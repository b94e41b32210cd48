"""Every public module-level function and class of quadreg has a use outside
the tests: another quadreg module, its own module, scripts/ or perfbench/
names it.  The only exceptions are the test references below."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quadreg"

# reference implementations that only the tests call
TEST_REFERENCES = {"tau_closed_bound", "refines", "u2_fourth_naive",
                   "omega_members", "k222_members", "preimage_intersection"}


def names_used(path: Path) -> Counter:
    """Identifiers the file reads, imports or takes an attribute of; in
    perfbench/ also the dotted parts of its strings (the tracer names
    quadreg functions by string)."""
    used = Counter()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name] += 1
        elif (path.parent.name == "perfbench" and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            used.update(node.value.split("."))
    return used


def test_every_public_name_has_a_use():
    files = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    used = sum(map(names_used, files), Counter())
    public = {node.name for path in SRC.glob("*.py")
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    unused = {name for name in public if not used[name]}
    # a new name here is an unused helper or alias; a missing one has
    # gained a use (or is gone) and leaves the list
    assert unused == TEST_REFERENCES
