#!/usr/bin/env python3
"""Mutation check: every exact identity, every search whose order the
outputs depend on and every input schema rule has a test that fails when
its code is broken.

Each mutation is one source patch (a file under src/quadreg, a text that
occurs there exactly once, and its replacement) with the test ids that must
catch it.  For each, src/ and tests/ are copied into a temporary directory,
the patch is applied there, and only the named tests run.  A mutation is
caught when every one of them fails, so each named test is shown to catch
its patch.  Before that, the named tests run once on the unpatched copy and
must all pass.  The working tree is never edited.

    python3 scripts/mutation_check.py

Exit status: 0 when every mutation is caught, 1 when a named test still
passes under its patch (each such test is named), 2 when a patch no longer
applies, a test id is unknown or the unpatched tests fail.
It also exits 2 when a check of quadreg.verify has no mutation and is not
in UNFAILABLE.  It takes about a minute.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

VERIFY_QUICK = "tests/test_cli.py::test_verify_command[quick]"
BAD_INPUT = "tests/test_cli.py::test_bad_input_exits_4"
BAD_X = "tests/test_verify.py::test_count_bad_x_matches_rank_per_x"

# verify checks that no mutation can fail at the sizes they run, and why
UNFAILABLE = {
    "omegagood_bound": "at n = 2, 3 (l, q <= 1) count_bad_w_tuples is at most "
                       "p^(4n), below the bound 14 p^(4n+l+4q-r) unless "
                       "r >= l+4q+3, which needs n >= 7 at q = 1",
}


class Mutation(NamedTuple):
    target: str   # the verify check it breaks, or the identity/search named
    name: str
    path: str     # under src/quadreg
    old: str
    new: str
    tests: tuple


MUTATIONS = [
    Mutation("rank_oracle", "rref eliminates with the wrong sign", "gf.py",
             "mat[r] = [(a - c * b) % p", "mat[r] = [(a + c * b) % p",
             ("tests/test_gf.py::test_rank_matches_bruteforce", VERIFY_QUICK)),
    Mutation("atoms_partition", "enumerate_atom drops its first element",
             "factors.py", "return np.nonzero(self.atom_indicator(label))[0]",
             "return np.nonzero(self.atom_indicator(label))[0][1:]",
             ("tests/test_factors.py::test_atoms_partition_group", VERIFY_QUICK)),
    Mutation("constraints_equivalence",
             "the constraint test skips beta_Q(h_b, h_c) = 0", "localnorms.py",
             "for a, b in ((0, 1), (0, 2), (1, 2)):",
             "for a, b in ((0, 1), (0, 2)):",
             ("tests/test_acceptance.py::"
              "test_accept_03_constraints_equivalence_exhaustive_n2",
              VERIFY_QUICK)),
    # add and bq are symmetric, so a transposed flat index is no mutation
    Mutation("constraints_equivalence", "the constraint test's pairwise flat "
             "bq index takes h_a twice", "localnorms.py",
             "ok &= bq[Hs[a] * N + Hs[b]] == 0", "ok &= bq[Hs[a] * N + Hs[a]] == 0",
             ("tests/test_acceptance.py::"
              "test_accept_03_constraints_equivalence_exhaustive_n2",
              VERIFY_QUICK)),
    Mutation("constraints_equivalence", "the constraint test labels a tuple "
             "by h1's atom, not x's", "localnorms.py",
             "np.where(ok, B.label_codes()[X], -1)",
             "np.where(ok, B.label_codes()[H1], -1)",
             ("tests/test_acceptance.py::"
              "test_accept_03_constraints_equivalence_exhaustive_n2",
              "tests/test_localnorms.py::test_omega_codes_count_every_label",
              VERIFY_QUICK)),
    Mutation("omega_identity", "omega_count is off by one", "localnorms.py",
             "        total += int(np.einsum(\"ab,ac,bc->\", P, P, P))\n"
             "    return total\n",
             "        total += int(np.einsum(\"ab,ac,bc->\", P, P, P))\n"
             "    return total + 1\n",
             ("tests/test_acceptance.py::test_accept_02_omega_identity",
              "tests/test_localnorms.py::test_omega_count_equals_cube_sum",
              VERIFY_QUICK)),
    Mutation("omega_identity", "common_code drops x+h1 from its same-code "
             "mask", "gowers.py",
             "for pt in pts[1:-1]:\n        same &= codes[pt] == code",
             "for pt in pts[2:-1]:\n        same &= codes[pt] == code",
             ("tests/test_gowers.py::"
              "test_level_set_cube_sums_match_naive_per_level_set[3-2]",
              "tests/test_acceptance.py::test_accept_02_omega_identity",
              VERIFY_QUICK)),
    Mutation("sigma_label_sum", "sigma_label adds the pair values once, not "
             "twice", "localnorms.py", "quad = tuple((a + b + c + 2 * (u + v + w))",
             "quad = tuple((a + b + c + (u + v + w))",
             ("tests/test_localnorms.py::test_sigma_label_is_sum_label",
              VERIFY_QUICK)),
    Mutation("sigma_label_sum", "the label key takes radix p^q for the "
             "third atom code", "verify.py",
             "radices = (B.p ** (B.l + B.q),) * 3 + (B.p ** B.q,) * 3",
             "radices = (B.p ** (B.l + B.q),) * 2 + (B.p ** B.q,) * 4",
             ("tests/test_localnorms.py::test_sigma_label_is_sum_label",
              VERIFY_QUICK)),
    Mutation("psi_fibres", "psi_map sends every x2 - x1 to 0", "localnorms.py",
             "a[x2, neg[x1]], a[y2, neg[y1]]", "a[x2, neg[x2]], a[y2, neg[y1]]",
             ("tests/test_acceptance.py::"
              "test_accept_04_psi_surjective_uniform_fibres[1]", VERIFY_QUICK)),
    Mutation("rewrite_identity", "rewrite_sum_g6 repeats z1 for z2",
             "gowers.py", "* F3[:, None, :, :, None] * F3[:, None, :, None, :])",
             "* F3[:, None, :, :, None] * F3[:, None, :, :, None])",
             ("tests/test_acceptance.py::test_accept_04_rewrite_identity[1]",
              "tests/test_gowers.py::test_rewrite_sum_identity", VERIFY_QUICK)),
    Mutation("chain_bounds", "f_table extends -1 steps with the wrong sign",
             "chains.py", "((a + rho(a + b), b - 1), (a + 1, b + 1))",
             "((a - rho(a + b), b - 1), (a + 1, b + 1))",
             ("tests/test_acceptance.py::test_accept_07_seq4_closed_form_bounds[0]",
              VERIFY_QUICK)),
    Mutation("chain_bounds", "chain_bounds takes entry i's parent as i // 2",
             "verify.py", "parent = (i - 1) // 2", "parent = i // 2",
             ("tests/test_acceptance.py::test_accept_07_seq4_closed_form_bounds[0]",
              "tests/test_verify.py::"
              "test_chain_bounds_matches_the_walk_on_corrupted_tables[0]",
              VERIFY_QUICK)),
    Mutation("chain recursions", "GrowthFunction drops the fraction of a "
             "non-integral C", "chains.py",
             '"_c", C.numerator if C.denominator == 1 else C)',
             '"_c", C.numerator)',
             ("tests/test_chains.py::test_non_integral_growth_stays_fractional",
              "tests/test_chains.py::test_recursions_match_fraction_reference")),
    Mutation("vc2_baselines", "the VC/VC2 search starts its count at 1", "vc2.py",
             "    best, wit = 0, None\n", "    best, wit = 1, None\n",
             ("tests/test_acceptance.py::test_accept_12_vc2_baselines",
              VERIFY_QUICK)),
    # restricting only the candidates, or only the translates, keeps the
    # search translation invariant; restricting both does not
    Mutation("vc2_baselines", "the VC search scans half of the candidates "
             "over four translates", "vc2.py",
             "_first_shattered(inA[grp.add], points, comb(N, k), k)",
             "_first_shattered(inA[grp.add][:, :4], points, comb(N, k) // 2, k)",
             ("tests/test_acceptance.py::test_accept_12_translation_invariance",
              "tests/test_vc2.py::test_translation_invariance_small",
              VERIFY_QUICK)),
    Mutation("badcount1_bound", "the zero combination counts, so every x is "
             "bad", "verify.py", "_vectors(p, B.q)[1:]", "_vectors(p, B.q)",
             (BAD_X, VERIFY_QUICK)),
    Mutation("badcount1_bound", "the span mask marks only the zero vector",
             "verify.py", "in_span[_vectors(p, rank) @ ech % p @ weights] = True",
             "in_span[0] = True", (BAD_X,)),
    Mutation("count_bad_w_tuples", "the DFS prunes n independent rows too",
             "verify.py", "if len(ech) + depth * B.q > B.n:",
             "if len(ech) + depth * B.q >= B.n:",
             ("tests/test_verify.py::test_count_bad_w_tuples_invertible_matrix_n4",)),
    Mutation("pythagoras", "refinement_sum drops a part", "regularity.py",
             "return sum(((a - b) ** 2 * size for a, b, size\n"
             "                in _with_parents(A, parts, refined_parts, N))",
             "return sum(((a - b) ** 2 * size for a, b, size\n"
             "                in _with_parents(A, parts, refined_parts, N)[1:])",
             ("tests/test_acceptance.py::test_accept_08_pythagoras_100_random",
              "tests/test_regularity.py::test_pythagoras_exact_random",
              VERIFY_QUICK)),
    Mutation("u3 fast = naive", "the naive cube sums square the sums over h_1, "
             "not over x", "gowers.py", "t.sum(axis=0)", "t.sum(axis=1)",
             ("tests/test_gowers.py::test_u3_fast_matches_naive",
              "tests/test_gowers.py::test_u2_fourier_matches_naive",
              "tests/test_gowers.py::test_naive_sums_match_literal_loop",
              VERIFY_QUICK)),
    Mutation("u3 fast = naive", "u3_eighth_fast divides each h's term by |G|",
             "gowers.py", "total += u2_fourth(g, grp)\n",
             "total += u2_fourth(g, grp) / grp.size\n",
             ("tests/test_gowers.py::test_u3_fast_matches_naive",)),
    Mutation("K222 sum", "k222_sum drops the d_bc cross mask", "localnorms.py",
             "W = v[g.add[x1]][yz] * v[g.add[x2]][yz] * cross",
             "W = v[g.add[x1]][yz] * v[g.add[x2]][yz]",
             ("tests/test_localnorms.py::test_tw_matches_definitional_bruteforce",
              "tests/test_acceptance.py::test_accept_05_k222_sum_matches_members")),
    Mutation("preimage parametrization", "psi_map negates x2 - x1",
             "localnorms.py", "a[x2, neg[x1]], a[y2, neg[y1]]",
             "a[x1, neg[x2]], a[y2, neg[y1]]",
             ("tests/test_acceptance.py::test_accept_05_preimage_parametrization[1]",)),
    Mutation("vc search", "the VC2 grid order is swapped", "vc2.py",
             "add[tup[g // M][:, :, None], tup[g % M][:, None, :]]",
             "add[tup[g % M][:, :, None], tup[g // M][:, None, :]]",
             ("tests/test_vc2.py::test_batched_search_matches_reference[3]",)),
    Mutation("vc search", "the VC2 pattern bits are transposed", "vc2.py",
             "return grid.reshape(hi - lo, k * k)",
             "return grid.transpose(0, 2, 1).reshape(hi - lo, k * k)",
             ("tests/test_vc2.py::test_batched_search_matches_reference[3]",)),
    Mutation("vc search", "the last translate of each pattern is taken",
             "vc2.py", "_, first = np.unique(codes[r], return_index=True)",
             "first = N - 1 - np.unique(codes[r][::-1], return_index=True)[1]",
             ("tests/test_vc2.py::test_batched_search_matches_reference[2]",)),
    Mutation("inverse oracle", "_coeffs_to_matrix does not halve the "
             "off-diagonals", "regularity.py",
             "c = np.where(i == j, c, c * pow(2, -1, grp.p)) % grp.p",
             "c = c % grp.p",
             ("tests/test_regularity.py::test_monomial_order_is_matrix_order[2]",
              "tests/test_regularity.py::"
              "test_witness_achieves_reported_correlation[2-exhaustive]")),
    Mutation("inverse oracle", "the linear part is r = s, not -s",
             "regularity.py", "r = tuple(int((-c) % p)", "r = tuple(int(c % p)",
             ("tests/test_regularity.py::"
              "test_witness_achieves_reported_correlation[2-exhaustive]",
              "tests/test_regularity.py::"
              "test_oracle_returns_the_documented_witness")),
    Mutation("inverse oracle", "the scan takes the last frequency within 1e-9",
             "regularity.py", "freq[k] = np.argmax(mags >= mags.max() - TIE)",
             "freq[k] = len(mags) - 1 - np.argmax(mags[::-1] >= mags.max() - TIE)",
             ("tests/test_regularity.py::"
              "test_oracle_returns_the_documented_witness",)),
    Mutation("chain validation", "a deletion may drop a matrix whose "
             "coefficient is 0", "chains.py",
             "if rank >= demand or coeffs[kill] == 0:", "if rank >= demand:",
             ("tests/test_chains.py::"
              "test_deletion_needs_a_nonzero_coefficient_on_the_deleted_matrix",)),
    Mutation("chain validation", "a deletion may add more vectors than "
             "L + rowspace(U) needs", "chains.py",
             "\n                and B2.l == gf.mat_rank(list(B.L) + rows, p)):",
             "):",
             ("tests/test_chains.py::"
              "test_deletion_adds_exactly_the_row_space[extra-vector]",
              "tests/test_chains.py::test_deletion_through_a_later_combination")),
    Mutation("dense arrays", "as_values accepts any length", "gowers.py",
             "if v.shape != (grp.size,):", "if False:",
             ("tests/test_regularity.py::"
              "test_decompose_refuses_a_set_of_the_wrong_length",
              "tests/test_vc2.py::test_search_refuses_a_set_of_the_wrong_length",
              "tests/test_cli.py::test_bad_input_exits_4[norms-function-wrong-length]")),
    Mutation("CSV files", "the CSV writer drops the header row", "io.py",
             "            w.writerow(header)\n", "",
             ("tests/test_cli.py::test_norms_command", VERIFY_QUICK)),
    Mutation("verify report", "verify prints no failure detail", "cli.py",
             "if detail is not None)", "if False)",
             ("tests/test_cli.py::test_verify_names_each_failing_check",)),
    Mutation("integer input", "the integer rule accepts floats", "gf.py",
             "isinstance(x, (int, np.integer))",
             "isinstance(x, (int, float, np.integer))",
             tuple(f"{BAD_INPUT}[{case}]" for case in (
                 "fractional-member", "norms-factor-fractional-entry",
                 "gen-coset-fractional-entry", "gen-variety-fractional-value",
                 "gen-label-fractional-digit"))),
    Mutation("input schema", "a real may be a bool", "io.py",
             "type(value) in (int, float)", "isinstance(value, (int, float))",
             (f"{BAD_INPUT}[decompose-dense-value-boolean]",
              f"{BAD_INPUT}[gen-density-boolean]")),
    Mutation("input domain", "a dense value may lie outside [-1, 1]", "io.py",
             "np.flatnonzero(abs(v) > 1)", "np.flatnonzero(abs(v) > np.inf)",
             (f"{BAD_INPUT}[norms-dense-value-past-one]",)),
    Mutation("input schema", "a list rule accepts a non-list", "io.py",
             "if isinstance(schema, list) and isinstance(value, list):",
             "if isinstance(schema, list):",
             (f"{BAD_INPUT}[norms-L-not-a-list]", f"{BAD_INPUT}[gen-labels-not-a-list]")),
    Mutation("input schema", "an object may miss a required key", "io.py",
             "elif name == key:", "elif False:",
             (f"{BAD_INPUT}[vc2-set-without-elements]",
              f"{BAD_INPUT}[atom-union-without-labels]",
              f"{BAD_INPUT}[gen-label-without-b]")),
]


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", dest)


def run_tests(tree: Path, tests) -> tuple[int, str]:
    """(pytest exit code, its output) for `tests` in `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def failures(output: str) -> list:
    return [line.split()[1] for line in output.splitlines()
            if line.startswith(("FAILED ", "ERROR "))]


def passing(tests, failed) -> list:
    """The ids in `tests` none of whose parametrizations is in `failed`."""
    return [t for t in tests
            if not any(f == t or f.startswith(t + "[") for f in failed)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.parse_args(argv)
    from quadreg.verify import CHECKS
    uncovered = ({name for name, _ in CHECKS} - set(UNFAILABLE)
                 - {m.target for m in MUTATIONS})
    if uncovered:
        print(f"no mutation for the checks {sorted(uncovered)}")
        return 2
    for name, why in UNFAILABLE.items():
        print(f"cannot fail  {name}: {why}")
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        named = list(dict.fromkeys(t for m in MUTATIONS for t in m.tests))
        code, out = run_tests(base, named)
        if code != 0:
            print(f"the unpatched tests do not pass (pytest exit {code}):\n{out}")
            return 2
        survived = 0
        for i, m in enumerate(MUTATIONS):
            tree = Path(tmp) / f"m{i}"
            copy_tree(tree)
            path = tree / "src" / "quadreg" / m.path
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"does not apply  {m.target}: {m.name} ({m.path})")
                return 2
            path.write_text(text.replace(m.old, m.new))
            code, out = run_tests(tree, m.tests)
            if code not in (0, 1):
                print(f"pytest exit {code} on {m.target}: {m.name}:\n{out}")
                return 2
            missed = passing(m.tests, failures(out))
            if missed:
                survived += 1
                print(f"SURVIVED  {m.target}: {m.name}; {len(missed)} of "
                      f"{len(m.tests)} tests pass: {', '.join(missed)}")
            else:
                print(f"caught    {m.target}: {m.name}; {len(m.tests)} of "
                      f"{len(m.tests)} tests fail")
            shutil.rmtree(tree)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
