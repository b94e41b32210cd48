"""Every public module-level function and class of quadreg, and every public
method of its classes, has a use outside the tests: scripts/, perfbench/ or
quadreg code that is itself in use reads it.  There are no exceptions; a
reference that only the tests call lives in tests/reference.py.

A use is a read: a name loaded or imported, or an attribute taken of a
quadreg module; a method is read through any attribute of its name, unless
a built-in type has an attribute of that name too (`text.encode()` is no
use of a quadreg `encode`: by name the two cannot be told apart).  A store,
a keyword argument or a dataclass field of the same spelling is not a use.
Uses inside a function or method count only when it is in use itself, so a
helper whose only callers are unused is unused too.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.ClassDef)
# public attribute names of the built-in types (str.encode, dict.items, ...)
BUILTIN_ATTRS = {name for t in vars(builtins).values() if isinstance(t, type)
                 for name in dir(t) if not name.startswith("_")}


def _reads(nodes, modules, strings: bool = False):
    """(kind, name) for each read under `nodes`: kind "name" for a loaded or
    imported name or an attribute of a module in `modules`, "attr" for any
    attribute read; with `strings`, the dotted parts of every string (the
    perfbench tracer names quadreg functions by string) are both."""
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield "name", node.id
        elif isinstance(node, ast.alias):
            yield "name", node.name.rpartition(".")[2]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield "attr", node.attr
            # gf.dot, quadreg.gf.dot
            base = getattr(node.value, "id", getattr(node.value, "attr", None))
            if base in modules:
                yield "name", node.attr
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            for part in node.value.split("."):
                yield "name", part
                yield "attr", part


def unused_public_names(root: Path = ROOT) -> set:
    """The public names of `root`/src/quadreg that nothing reads from
    `root`/scripts, `root`/perfbench or quadreg code in use."""
    src = root / "src" / "quadreg"
    modules = {path.stem for path in src.glob("*.py")}
    defs = {}  # key -> (kind of read that uses it, name, key of its class)
    uses = []  # (key of the definition it sits in, or None, kind, name)
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        uses += [(None, *r) for r in _reads((n for n in tree.body
                                             if not isinstance(n, DEFS)), modules)]
        for node in (n for n in tree.body if isinstance(n, DEFS)):
            key = f"{path.stem}.{node.name}"
            defs[key] = ("name", node.name, None)
            body = [node]
            if isinstance(node, ast.ClassDef):
                body = [n for n in ast.iter_child_nodes(node)
                        if not isinstance(n, ast.FunctionDef)]
                for m in node.body:
                    if not isinstance(m, ast.FunctionDef):
                        continue
                    if m.name.startswith("__") and m.name.endswith("__"):
                        body.append(m)  # Python calls it: in use with its class
                        continue
                    defs[f"{key}.{m.name}"] = ("attr", m.name, key)
                    uses += [(f"{key}.{m.name}", *r)
                             for r in _reads([m], modules)]
            uses += [(key, *r) for r in _reads(body, modules)]
    for folder in ("scripts", "perfbench"):
        for path in sorted((root / folder).glob("*.py")):
            uses += [(None, *r) for r in _reads([ast.parse(path.read_text())],
                                                modules, folder == "perfbench")]
    # grow the set of used definitions from the uses outside any definition
    live = set()
    while True:
        read = {(kind, name) for owner, kind, name in uses
                if (owner is None or owner in live)
                and not (kind == "attr" and name in BUILTIN_ATTRS)}
        new = {key for key, (kind, name, cls) in defs.items()
               if (kind, name) in read and cls in live | {None}} - live
        if not new:
            break
        live |= new
    return {key for key, (_, name, _) in defs.items()
            if key not in live and not name.startswith("_")}


def test_every_public_name_has_a_use():
    # a name here is unused outside the tests: delete it, or move it to
    # tests/reference.py when it is a test reference
    unused = sorted(unused_public_names())
    assert not unused, "unused outside the tests: " + ", ".join(unused)


def test_a_builtin_method_read_is_no_use(tmp_path):
    # `'text'.encode()` in a script keeps no quadreg `encode` alive, and
    # `Group().size_of()` keeps `size_of` alive
    (tmp_path / "src" / "quadreg").mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "src" / "quadreg" / "gf.py").write_text(
        "class Group:\n"
        "    def encode(self, vec):\n        return 0\n"
        "    def size_of(self):\n        return 0\n")
    (tmp_path / "scripts" / "run.py").write_text(
        "from quadreg.gf import Group\n"
        "Group().size_of()\n'text'.encode()\n")
    assert unused_public_names(tmp_path) == {"gf.Group.encode"}
