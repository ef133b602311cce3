"""Mutants of dtopt that the tests must kill, and the known survivors.

Run from anywhere, with the repository's own interpreter and test
dependencies (numpy, pytest, hypothesis):

    python tests/mutants.py            # every mutant
    python tests/mutants.py block      # only those whose name contains "block"

Each mutant replaces one piece of text, which must occur exactly once, in a
fresh copy of the working tree's ``src``, ``tests`` and ``pyproject.toml``.
The tests named for it then run there with ``-x`` and a fixed hypothesis
seed; a failing or crashing run kills the mutant. Every named test selection
first runs once on an unmutated copy, which must pass. The script prints one
line per mutant and every survivor with its reason, and exits 1 if a
mutant marked must-die survives, an entry's text is not found exactly once,
or the unmutated tests fail. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600  # a mutant that makes a test loop for ever counts as killed after this


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in file
    new: str
    reason: str  # what the mutant breaks, or why it survives
    tests: tuple[str, ...]  # pytest arguments: test files and an optional -k
    must_die: bool = True


CFO, OBJECTIVES, DRIVER = "src/dtopt/cfo.py", "src/dtopt/objectives.py", "src/dtopt/driver.py"
THRESHOLD, FLOORSCAN = "src/dtopt/threshold.py", "src/dtopt/floorscan.py"
REPORT = "src/dtopt/report.py"
KERNEL_TESTS = ("tests/test_cfo.py", "-k", "acceleration")
LIBRARY_RULES = ("tests/test_input_rules.py", "-k", "library_entry_points")
PASS_LOOP_TESTS = ("tests/test_driver.py", "-k", "reference_pass_loop")

MUTANTS = (
    Mutant("plateau block one tile too tall", CFO,
           "(k0 - r0) // _TILE_ROWS)", "(k0 - r0) // _TILE_ROWS + 1)",
           "a block of whole floor tiles runs on over the mixed tile after it, whose rows "
           "then meet the floor's columns: same values, other bits", KERNEL_TESTS),
    Mutant("flat-field early exit removed", CFO,
           "if fit[0] == fit[-1]:  # no pair has weight", "if False:  # no pair has weight",
           "with no tile walked, the workspace del raises UnboundLocalError", KERNEL_TESTS),
    Mutant("re-sum test ignores a tile's last row", CFO,
           "if not np.isfinite(rowsum).all():", "if not np.isfinite(rowsum[:-1]).all():",
           "a coincident pair in a tile's last row keeps its non-finite weight", KERNEL_TESTS),
    Mutant("Gram near-pair threshold 1e-12", CFO,
           "_NEAR = 1e-4", "_NEAR = 1e-12",
           "pairs within two far clusters keep a Gram d2 with about 5 good digits, and the "
           "exact pair-by-pair sum sees an error near 4e-5 of the largest acceleration",
           KERNEL_TESTS),
    Mutant("plateau tile without its gap row", CFO,
           "if fit[r1 - 1] == fit[r0]:  # one fitness for every row",
           "if False:  # one fitness for every row",
           "performance only: the difference matmul gives the gap row's bits, so the "
           "accelerations keep their bytes (all 250 kernel calls of schwefel2d seed 1) at "
           "about 3 % more kernel time; only the benchmark guards it", KERNEL_TESTS,
           must_die=False),
    Mutant("plateau tiles never blocked", CFO,
           "block = 0 if gram else min(_BLOCK_VALUES, _TILE_ROWS // 2 * n_probes)",
           "block = 0",
           "performance only: one reduction matmul per plateau tile gives a block's bits, so "
           "the accelerations keep their bytes (all 250 kernel calls of schwefel2d seed 1) at "
           "about 7 % more kernel time; only the benchmark guards it", KERNEL_TESTS,
           must_die=False),
    Mutant("mixed-tile clamp one column short", CFO,
           "np.maximum(buf[:, :r1 - k0], 0.0, out=buf[:, :r1 - k0])",
           "np.maximum(buf[:, :r1 - k0 - 1], 0.0, out=buf[:, :r1 - k0 - 1])",
           "equivalent: column r1 - k0 - 1 is the tile's own fittest row, whose gap is never "
           "negative", KERNEL_TESTS, must_die=False),
    Mutant("below-side retrieval without its clamp", CFO,
           "np.minimum(lower + frep * (prev - lower), upper)", "lower + frep * (prev - lower)",
           "a pull at factor 1 from one ULP below upper rounds past it, and the above side "
           "pulls it back to prev, not upper", ("tests/test_cfo.py", "-k", "retriev")),
    Mutant("resting copy without its bytes check", CFO,
           "if resting and raw.tobytes() == checked:", "if resting:",
           "a resting step copies the previous fitness row although the objective answered "
           "with other values", ("tests/test_cfo.py",)),
    Mutant("evaluate_batch without its batch-shape check", OBJECTIVES,
           "if points.ndim != 2 or points.shape[1] != self.space.n_dims:", "if False:",
           "a 1-D point [0.1, 0.2] counts as 2 calls and a (3, 5) batch on a 2-D space as 3",
           ("tests/test_objectives.py", "-k", "batch")),
    Mutant("one value per point without its dtype rule", OBJECTIVES,
           "values = _real_numbers(\"func's result\", values)", "values = np.asarray(values)",
           "a bool, str or complex result is cast to float and runs as fitness values",
           ("tests/test_report.py", "-k", "one_value_per_point")),
    Mutant("run_cfo without the step prefix around evaluate_batch", CFO,
           "raise ValueError(f\"step {step}: {exc}\") from exc", "raise",
           "a result that evaluate_batch refuses ends the run without naming the step",
           ("tests/test_driver.py", "-k", "one_value_per_point")),
    Mutant("count rule refuses its least value", OBJECTIVES,
           "if not _is_integer(value) or value < least:",
           "if not _is_integer(value) or value <= least:",
           "a count at its least value is refused: n_dims = 1, n_steps = 0, seed 0",
           LIBRARY_RULES),
    Mutant("bool counted as an integer", OBJECTIVES,
           "return isinstance(value, numbers.Integral) and not isinstance(value, bool)",
           "return isinstance(value, numbers.Integral)",
           "True runs as a count of 1", LIBRARY_RULES),
    Mutant("fraction rule without zero_ok", OBJECTIVES,
           "0.0 < value <= 1.0 or (zero_ok and value == 0.0)", "0.0 <= value <= 1.0",
           "c_th = 0 builds a ramp that never raises the floor", LIBRARY_RULES),
    Mutant("n_dims without its upper bound", OBJECTIVES,
           "if n_dims > _MAX_VALUES:", "if False:",
           "n_dims = 2^60 ends in numpy's allocation error, not one naming n_dims",
           ("tests/test_input_rules.py", "-k", "n_dims_beyond")),
    Mutant("type rule accepts anything", OBJECTIVES,
           "if not isinstance(value, kinds):", "if False:",
           "an ObjectiveSpec builds over a func of None and fails in its first search",
           ("tests/test_objectives.py", "-k", "wrong_kind")),
    Mutant("call counter back in the constructor", OBJECTIVES,
           "eval_count: int = field(default=0, init=False)", "eval_count: int = 0",
           "a caller seeds the count a run reports: eval_count = 1.5 wrote \"using 48.0 "
           "function calls\"", ("tests/test_input_rules.py", "-k", "every_constructor")),
    Mutant("repeated-batch key without the layout", OBJECTIVES,
           "if layout == self._layout and data == self._points:",
           "if data == self._points:",
           "a batch of the same bytes in another shape or order is answered from the last "
           "one", ("tests/test_objectives.py",)),
    Mutant("history rule off by one", OBJECTIVES,
           "if (n_steps + 1) * n_probes * n_dims > _MAX_VALUES:",
           "if (n_steps + 1) * n_probes * n_dims >= _MAX_VALUES:",
           "the largest history one array holds is refused", ("tests/test_input_rules.py",)),
    Mutant("call rule off by one", OBJECTIVES,
           "if calls > _MAX_VALUES:", "if calls >= _MAX_VALUES:",
           "a run of exactly the most calls is refused", ("tests/test_input_rules.py",)),
    Mutant("run calls without the searches per pass", DRIVER,
           "return last, probes * (n_steps + 1) * searches",
           "return last, probes * (n_steps + 1)",
           "a probe-line run of 11 gammas is counted as one search per pass",
           ("tests/test_input_rules.py",)),
    Mutant("scan without its reversal", CFO,
           "idx = flat.size - 1 - int(arg_extreme(flat[::-1]))", "idx = int(arg_extreme(flat))",
           "the first of equal fitnesses takes the best and worst indices, not the last",
           ("tests/test_cfo.py", "-k", "scan")),
    Mutant("retrieval factor one step ahead", CFO,
           "_FREP[(j - 1) % len(_FREP)]", "_FREP[j % len(_FREP)]",
           "step j retrieves with the factor of step j + 1",
           ("tests/test_cfo.py", "-k", "retriev")),
    Mutant("schedule handed the run's best", DRIVER,
           "config.num_passes, f_star, f_min, pass_best)",
           "config.num_passes, f_star, f_min, f_star)",
           "a schedule gets the best of the whole run so far, not of the pass just completed",
           ("tests/test_driver.py", "-k", "schedule")),
    Mutant("schedule threshold unchecked", DRIVER,
           "            _check_floor(threshold)\n", "            pass\n",
           "a NaN, +inf or non-number threshold reaches the next pass's first search, which "
           "is blamed for it", ("tests/test_driver.py", "-k", "schedule")),
    Mutant("run description not frozen", DRIVER,
           "@dataclass(frozen=True)\nclass DtoConfig:", "@dataclass\nclass DtoConfig:",
           "an assignment to a built config skips its checks: schedule = None ends pass 1 in "
           "a bare AttributeError", ("tests/test_input_rules.py", "-k", "frozen")),
    Mutant("linear ramp not frozen", THRESHOLD,
           "@dataclass(frozen=True)\nclass LinearRamp:", "@dataclass\nclass LinearRamp:",
           "c_th = 7.0 on a built ramp floors far above the maximum: schwefel2d reported a "
           "best of 25,346,388", ("tests/test_input_rules.py", "-k", "frozen")),
    Mutant("floor built without its check", THRESHOLD,
           "        _check_floor(self.t_current, \"t_current\")\n", "        pass\n",
           "a ThresholdState builds at a NaN, +inf or non-number floor, and a search runs "
           "under it unchecked", ("tests/test_input_rules.py", "-k", "every_constructor")),
    Mutant("threshold rule takes +inf", THRESHOLD,
           "if np.isnan(value) or value == np.inf:", "if np.isnan(value):",
           "a +inf floor runs to an infinite best",
           ("tests/test_cfo.py", "-k", "plus_inf_threshold")),
    Mutant("margin rule without its upper bound", FLOORSCAN,
           "0.0 <= margin <= sys.float_info.max", "0.0 <= margin",
           "an infinite margin counts every sample on the floor", LIBRARY_RULES),
    Mutant("objective values unchecked", CFO,
           "if not np.isfinite(raw).all():", "if False:",
           "a NaN or +-inf fitness runs on, and no pass, search or step is named",
           ("tests/test_driver.py", "-k", "non_finite_objective_value")),
    Mutant("probe positions unchecked", CFO,
           "if not np.isfinite(points).all():", "if False:",
           "an overflowed acceleration step hands NaN positions to the objective",
           ("tests/test_cfo.py", "-k", "nan_probe_positions")),
    Mutant("floor-scan chunk cap dropped", FLOORSCAN,
           "return min(max(_MIN_CHUNK_ROWS, _CHUNK_VALUES // n_dims), "
           "max(1, _MAX_CHUNK_VALUES // n_dims))",
           "return max(_MIN_CHUNK_ROWS, _CHUNK_VALUES // n_dims)",
           "a chunk at large D outgrows its 8 MB bound", ("tests/test_floorscan.py",)),
    Mutant("linear ramp one pass behind", THRESHOLD,
           "fraction = self.c_th * k / num_passes", "fraction = self.c_th * (k - 1) / num_passes",
           "each threshold is the one of the pass before, so pass 2 runs on a floor at F_min",
           PASS_LOOP_TESTS),
    Mutant("linear ramp overflow form with its weights swapped", THRESHOLD,
           "return f_min * (1.0 - fraction) + f_star * fraction",
           "return f_min * fraction + f_star * (1.0 - fraction)",
           "over a range beyond the largest float the ramp starts from F* and falls toward F_min",
           PASS_LOOP_TESTS),
    Mutant("run worst value kept on a tie", DRIVER,
           "if result.worst_value <= f_min:", "if result.worst_value < f_min:",
           "equivalent: an equal worst value is the same number, so F_min differs at most in "
           "the sign of a zero, which floors the same fitnesses", PASS_LOOP_TESTS,
           must_die=False),
    Mutant("floor test without its margin boundary", FLOORSCAN,
           "return f_val - t <= margin", "return f_val - t < margin",
           "a fitness exactly the margin above the threshold counts as above the floor",
           ("tests/test_floorscan.py", "-k", "on_floor")),
    Mutant("p_above counts the samples on the floor", FLOORSCAN,
           "p_above=1.0 - n_on_floor / n_samples,", "p_above=n_on_floor / n_samples,",
           "the estimate reports the flattened share of the space, not the share above it",
           ("tests/test_floorscan.py", "-k", "p_above")),
    Mutant("one Halton table entry off", FLOORSCAN,
           "        table.flags.writeable = False\n",
           "        if base == 2:\n            table[3] += 2.0**-40\n"
           "        table.flags.writeable = False\n",
           "the first coordinate of every index that is 3 modulo the base-2 table's size moves "
           "by 2^-40: index 3 reads 0.75 + 2^-40", ("tests/test_floorscan.py", "-k", "halton")),
    Mutant("summary thresholds at two decimals", REPORT,
           'f"{rec.threshold:.3f}"', 'f"{rec.threshold:.2f}"',
           "summary.txt prints -347.95 for the threshold -347.955",
           ("tests/test_report.py", "-k", "summary_layout")),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_tests(tree: Path, tests: tuple[str, ...]) -> tuple[int | None, str]:
    """(pytest's exit code, or None on timeout; its last output line)."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    try:
        run = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT_S} s"
    lines = (run.stdout + run.stderr).strip().splitlines()
    return run.returncode, lines[-1] if lines else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*",
                        help="run only the mutants whose name contains one of these")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS if not args.names or any(n in m.name for n in args.names)]
    failures = []
    for m in mutants:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            failures.append(f"{m.name}: its text occurs {count} times in {m.file}, not once")
    if failures:
        print(*failures, sep="\n")
        return 1

    with tempfile.TemporaryDirectory() as scratch:
        clean = Path(scratch) / "clean"
        _copy_tree(clean)
        for tests in dict.fromkeys(m.tests for m in mutants):
            code, last = _run_tests(clean, tests)
            if code != 0:
                print(f"the unmutated tree fails {' '.join(tests)}: {last}")
                return 1

        survivors = []
        for i, m in enumerate(mutants):
            tree = Path(scratch) / f"mutant{i}"
            _copy_tree(tree)
            path = tree / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
            start = time.perf_counter()
            code, last = _run_tests(tree, m.tests)
            shutil.rmtree(tree)
            killed = code != 0
            verdict = "killed" if killed else "SURVIVED"
            print(f"{verdict:8} {m.name} ({time.perf_counter() - start:.1f} s): {last}")
            if not killed:
                survivors.append(m)
                if m.must_die:
                    failures.append(m.name)
            elif not m.must_die:
                print(f"         now killed: mark {m.name!r} must-die")

    dying = [m for m in mutants if m.must_die]
    print(f"\n{len(dying) - len(failures)} of {len(dying)} must-die mutants killed")
    for m in survivors:
        kind = "MUST DIE" if m.must_die else "known"
        print(f"survivor ({kind}): {m.name} in {m.file}: {m.reason}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
