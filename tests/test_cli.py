import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from dtopt.cli import main

SMALL_PROBE_LINE = """\
function = schwefel226
n_dims = 2
passes = 3
c_th = 0.6
schedule = linear
nt = 4
np0 = 4
ipd = probe_line
gamma_sweep = 0.0,0.5,1.0
"""

SMALL_RANDOM = """\
function = schwefel226
n_dims = 2
passes = 3
c_th = 0.9
schedule = linear
nt = 4
np0 = 4
ipd = random
seed = 11
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_writes_summary_and_csv(tmp_path, capsys):
    config = _write(tmp_path, "exp.cfg", SMALL_PROBE_LINE)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    csv = (out / "passes.csv").read_text()
    assert summary.startswith("RUN COMPLETED")
    assert "none" in summary
    assert len(csv.splitlines()) == 4  # header + 3 passes
    assert csv.splitlines()[1].split(",")[1] == ""  # pass 1 has no threshold
    assert "->" in capsys.readouterr().out


def test_run_single_pass_table(tmp_path):
    config = _write(tmp_path, "exp.cfg", SMALL_PROBE_LINE.replace("passes = 3", "passes = 1"))
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    lines = (out / "summary.txt").read_text().splitlines()
    header_idx = lines.index("Pass#      Threshold      Best Fitness")
    rows = lines[header_idx + 1:]
    assert len(rows) == 1
    assert rows[0].split()[1] == "none"


@pytest.mark.parametrize("config_text", [SMALL_PROBE_LINE, SMALL_RANDOM])
def test_run_byte_identical_outputs(tmp_path, config_text):
    config = _write(tmp_path, "exp.cfg", config_text)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", config, "--out", str(out_a)]) == 0
    assert main(["run", "--config", config, "--out", str(out_b)]) == 0
    assert (out_a / "summary.txt").read_bytes() == (out_b / "summary.txt").read_bytes()
    assert (out_a / "passes.csv").read_bytes() == (out_b / "passes.csv").read_bytes()


def test_run_byte_identical_across_processes(tmp_path):
    config = _write(tmp_path, "exp.cfg", SMALL_PROBE_LINE)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        proc = subprocess.run(
            [sys.executable, "-m", "dtopt.cli", "run", "--config", config,
             "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
    assert (out_a / "summary.txt").read_bytes() == (out_b / "summary.txt").read_bytes()
    assert (out_a / "passes.csv").read_bytes() == (out_b / "passes.csv").read_bytes()


# Under another OpenBLAS core kernel a trajectory can move in its last digits
# (the acceleration kernel's BLAS reductions round differently), so the test
# pins the call counts and the default kernel's 5-decimal bests, not bytes.
# Prescott is SSE3, which every x86-64 CPU has.
_PRESCOTT_RUN = """\
from dtopt.driver import run_dto
from dtopt.report import PROFILES, to_dto_config
for config in (to_dto_config(PROFILES["schwefel30d"]),
               to_dto_config(PROFILES["schwefel2d"], seed=1)):
    report = run_dto(config)
    print(report.total_evals, f"{report.best_value:.5f}")
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE=Prescott names an x86-64 kernel")
def test_profiles_keep_calls_and_5_decimal_bests_under_another_blas_kernel():
    proc = subprocess.run([sys.executable, "-c", _PRESCOTT_RUN], capture_output=True, text=True,
                          env=dict(os.environ, OPENBLAS_CORETYPE="Prescott"), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["44352 12556.29351", "106392 837.96577"]


def test_run_seed_override_changes_random_run(tmp_path):
    config = _write(tmp_path, "exp.cfg", SMALL_RANDOM)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", config, "--out", str(out_a)]) == 0
    assert main(["run", "--config", config, "--seed", "999", "--out", str(out_b)]) == 0
    assert (out_a / "passes.csv").read_bytes() != (out_b / "passes.csv").read_bytes()


@pytest.mark.parametrize("text, message", [
    ("passes = 2\nwhat = ever\n", "unknown key 'what'"),
    ("passes = 2\nprobe_doubling = maybe\n",
     "bad value for 'probe_doubling': expected a boolean, got 'maybe'"),
])
def test_run_bad_config_exit_code(tmp_path, capsys, text, message):
    config = _write(tmp_path, "bad.cfg", text)
    assert main(["run", "--config", config]) == 2
    assert capsys.readouterr().err == f"error: line 2: {message}\n"


@pytest.mark.parametrize("value", ["true", "false"])
def test_run_config_naming_floor_repositioning_is_an_unknown_key(tmp_path, capsys, value):
    # floor repositioning is gone; a config that still names it, either way, is refused
    config = _write(tmp_path, "old.cfg", f"passes = 2\nfloor_repositioning = {value}\n")
    assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: line 2: unknown key 'floor_repositioning'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines, key", [
    ("n_dims = 0", "n_dims"),
    ("passes = 0", "passes"),
    ("np0 = 0", "np0"),
    ("nt = -1", "nt"),
    ("c_th = 2", "c_th"),
    ("gamma_sweep = 1.5", "gamma_sweep"),
    ("gamma_sweep =", "gamma_sweep"),
    ("function = sgo\nn_dims = 3", "n_dims"),
    ("ipd = random\nseed = -1", "seed"),
])
def test_run_out_of_range_config_is_clean_error(tmp_path, capsys, lines, key):
    config = _write(tmp_path, "bad.cfg", lines + "\n")
    assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (tmp_path / "out").exists()


def test_run_seed_on_a_probe_line_config_is_clean_error(tmp_path, capsys):
    # before, the seed was swapped in and never read: exit 0 and the unseeded files
    out = tmp_path / "out"
    assert main(["run", "--profile", "schwefel30d", "--seed", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: seed applies only to ipd = random, not to ipd = probe_line\n"
    assert not out.exists()


def test_run_negative_seed_override_is_clean_error(capsys):
    assert main(["run", "--profile", "schwefel2d", "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_run_requires_exactly_one_source(tmp_path, capsys):
    assert main(["run"]) == 2
    config = _write(tmp_path, "exp.cfg", SMALL_PROBE_LINE)
    assert main(["run", "--config", config, "--profile", "schwefel2d"]) == 2


def test_run_missing_config_file(capsys):
    assert main(["run", "--config", "/nonexistent/exp.cfg"]) == 2


def test_run_config_with_byte_order_mark(tmp_path):
    config = tmp_path / "bom.cfg"
    config.write_bytes(b"\xef\xbb\xbf" + SMALL_PROBE_LINE.encode())
    plain = _write(tmp_path, "plain.cfg", SMALL_PROBE_LINE)
    out_bom, out_plain = tmp_path / "bom", tmp_path / "plain"
    assert main(["run", "--config", str(config), "--out", str(out_bom)]) == 0
    assert main(["run", "--config", plain, "--out", str(out_plain)]) == 0
    assert (out_bom / "passes.csv").read_bytes() == (out_plain / "passes.csv").read_bytes()


def test_run_config_that_is_not_utf8_is_clean_error(tmp_path, capsys):
    config = tmp_path / "latin1.cfg"
    config.write_bytes("# caf\u00e9\npasses = 2\n".encode("latin-1"))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config {str(config)!r}")
    assert not (tmp_path / "out").exists()


def test_run_unwritable_output_dir(tmp_path, capsys):
    config = _write(tmp_path, "exp.cfg", SMALL_PROBE_LINE)
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a file where the output dir should go
    assert main(["run", "--config", config, "--out", str(blocker / "out")]) == 1
    assert "error" in capsys.readouterr().err


def test_run_profile_30d_summary_totals(tmp_path):
    out = tmp_path / "out30"
    assert main(["run", "--profile", "schwefel30d", "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "using 44352 function calls" in summary
    assert len((out / "passes.csv").read_text().splitlines()) == 1 + 6


def test_run_profile_2d_has_ten_pass_rows(tmp_path):
    out = tmp_path / "out2"
    assert main(["run", "--profile", "schwefel2d", "--seed", "4", "--out", str(out)]) == 0
    lines = (out / "passes.csv").read_text().splitlines()
    assert len(lines) == 1 + 10
    assert lines[-1].split(",")[-1] == "106392"


def test_env_var_sets_output_dir(tmp_path, monkeypatch):
    config = _write(tmp_path, "exp.cfg", SMALL_PROBE_LINE)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("DTO_OUTPUT_DIR", str(env_dir))
    assert main(["run", "--config", config]) == 0
    assert (env_dir / "summary.txt").exists()
    # --out wins over the environment
    flag_dir = tmp_path / "from_flag"
    assert main(["run", "--config", config, "--out", str(flag_dir)]) == 0
    assert (flag_dir / "summary.txt").exists()


def test_surface_outputs(tmp_path):
    config = _write(tmp_path, "exp.cfg", SMALL_PROBE_LINE)
    out = tmp_path / "surf"
    assert main(["surface", "--config", config, "--out", str(out)]) == 0
    data = (out / "surface.dat").read_text()
    rows = [ln for ln in data.splitlines() if ln]
    assert len(rows) == 10_000
    command = (out / "surface.gp").read_text()
    assert 'splot "surface.dat"' in command


def test_surface_threshold_floors_grid(tmp_path):
    config = _write(tmp_path, "exp.cfg", SMALL_PROBE_LINE)
    out = tmp_path / "surf"
    assert main(["surface", "--config", config, "--threshold", "686.126",
                 "--out", str(out)]) == 0
    z_vals = [float(ln.split()[2])
              for ln in (out / "surface.dat").read_text().splitlines() if ln]
    assert min(z_vals) == 686.126


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_surface_rejects_non_finite_threshold(tmp_path, capsys, value):
    out = tmp_path / "surf"
    assert main(["surface", "--profile", "schwefel2d", f"--threshold={value}",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --threshold must be finite")
    assert not out.exists()


def test_surface_refuses_non_2d(tmp_path, capsys):
    assert main(["surface", "--profile", "schwefel30d", "--out", str(tmp_path)]) == 2
    assert "n_dims" in capsys.readouterr().err


def test_floorscan_ramp_midpoint(capsys):
    assert main(["floorscan", "--function", "ramp", "--threshold", "0.5",
                 "--samples", "10000", "--margin", "1e-12"]) == 0
    line = capsys.readouterr().out.strip()
    t, n, n_floor, p_above = line.split(",")
    assert float(t) == 0.5
    assert int(n) == 10000
    assert abs(float(p_above) - 0.5) <= 0.01
    assert int(n_floor) == 10000 - round(float(p_above) * 10000)


def test_floorscan_below_minimum(capsys):
    assert main(["floorscan", "--function", "ramp", "--threshold", "-1.0"]) == 0
    assert capsys.readouterr().out.strip().endswith(",0,1.0")


def test_floorscan_repeat_identical(capsys):
    args = ["floorscan", "--function", "schwefel226", "--threshold", "100.0",
            "--samples", "2000"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("dims, line", [
    ("2", "0.0,100000,49973,0.50027"),
    ("30", "0.0,100000,50043,0.49956999999999996"),
])
def test_floorscan_golden_lines(capsys, dims, line):
    # recorded from the digit-by-digit Halton generator; must stay byte-identical
    assert main(["floorscan", "--function", "schwefel226", "--threshold", "0",
                 "--samples", "100000", "--dims", dims]) == 0
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize("args, flag", [
    (["--samples", "0"], "--samples"),
    (["--samples", "-5"], "--samples"),
    (["--dims", "0"], "--dims"),
    (["--margin", "-1"], "--margin"),
    (["--margin", "nan"], "--margin"),
    (["--margin", "inf"], "--margin"),
    (["--threshold=nan"], "--threshold"),
    (["--threshold=-inf"], "--threshold"),
    (["--function", "sgo", "--dims", "7"], "--dims"),
    (["--function", "rastrigin_offset", "--dims", "3"], "--dims"),
    (["--function", "ramp", "--dims", "7"], "--dims"),
])
def test_floorscan_bad_argument_is_clean_error(capsys, args, flag):
    base = ["floorscan", "--function", "schwefel226", "--threshold", "0"]
    assert main(base + args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("function, dims", [("schwefel226", 2), ("sgo", 2), ("ramp", 1)])
def test_floorscan_dims_default_is_the_function_own(capsys, function, dims):
    # an explicit --dims equal to the default is accepted and changes nothing
    base = ["floorscan", "--function", function, "--threshold", "0", "--samples", "500"]
    assert main(base) == 0
    default = capsys.readouterr().out
    assert main(base + ["--dims", str(dims)]) == 0
    assert capsys.readouterr().out == default


def test_floorscan_rejects_unknown_function():
    with pytest.raises(SystemExit):
        main(["floorscan", "--function", "mystery", "--threshold", "1.0"])
