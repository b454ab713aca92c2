"""CLI contract: exit codes, artifact schemas, determinism, echoes."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from gradflows import cli
from gradflows.sim import DivergenceError


def invoke(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def identity_run_config(out_dir, **overrides):
    cfg = {
        "schema_version": 1,
        "problem": {"name": "quadratic", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "flow": {"variant": "finite_time", "rho": 10.0, "alpha": 1.0, "delta": 0.01},
        "initial": [3.0, 4.0],
        "sim": {"step": 1e-3, "horizon": 2.0},
        "output": {"directory": out_dir, "prefix": "job"},
    }
    cfg.update(overrides)
    return cfg


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestMlCommands:
    def test_table_matches_reference(self, capsys):
        rc, out, _ = invoke(capsys, ["ml", "table"])
        assert rc == 0
        reference = {1.7: 1.57, 1.5: 1.65, 1.3: 1.89, 1.1: 2.88, 1.05: 3.72}
        rows = [line.split() for line in out.splitlines()[1:]]
        assert len(rows) == 5
        for a_txt, zero_txt in rows:
            assert abs(float(zero_txt) - reference[float(a_txt)]) <= 0.02

    def test_eval_exponential(self, capsys):
        rc, out, _ = invoke(capsys, ["ml", "eval", "--alpha", "1", "--beta", "1", "--z", "-3"])
        assert rc == 0
        assert abs(float(out) - math.exp(-3.0)) < 1e-10

    def test_eval_at_origin(self, capsys):
        rc, out, _ = invoke(capsys, ["ml", "eval", "--alpha", "1", "--beta", "1", "--z", "0"])
        assert rc == 0
        assert float(out) == 1.0

    def test_eval_domain_error(self, capsys):
        rc, _, err = invoke(capsys, ["ml", "eval", "--alpha", "-1", "--z", "0"])
        assert rc == 2
        assert err

    def test_zero_rate_scaling(self, capsys):
        rc, out1, _ = invoke(capsys, ["ml", "zero", "--alpha", "1.5", "--rho", "1"])
        rc2, out2, _ = invoke(capsys, ["ml", "zero", "--alpha", "1.5", "--rho", "2"])
        assert rc == 0 and rc2 == 0
        assert abs(float(out2) - float(out1) / 2.0 ** (1.0 / 1.5)) < 1e-4

    def test_zero_kind_aliases(self, capsys):
        _, plain, _ = invoke(capsys, ["ml", "zero", "--alpha", "1.5", "--kind", "standard"])
        _, alias, _ = invoke(capsys, ["ml", "zero", "--alpha", "1.5", "--kind", "StandardForm"])
        assert plain == alias
        _, kplain, _ = invoke(capsys, ["ml", "zero", "--alpha", "1.5", "--kind", "kernel"])
        _, kalias, _ = invoke(capsys, ["ml", "zero", "--alpha", "1.5", "--kind", "KernelForm"])
        assert kplain == kalias
        assert float(kplain) > float(plain)

    def test_zero_bad_kind(self, capsys):
        rc, _, err = invoke(capsys, ["ml", "zero", "--alpha", "1.5", "--kind", "spiral"])
        assert rc == 2
        assert "kind" in err

    def test_zero_bad_exponent(self, capsys):
        rc, _, err = invoke(capsys, ["ml", "zero", "--alpha", "2.5"])
        assert rc == 2
        assert err


def python_subprocess(args):
    """Run a fresh interpreter on the package under test, so a search that
    never ends fails the test at the timeout instead of hanging the suite."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60, env=env,
    )


def cli_subprocess(argv):
    return python_subprocess(["-m", "gradflows.cli", *argv])


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_zero_rejects_nonpositive_tolerance(tol):
    proc = cli_subprocess(["ml", "zero", "--alpha", "1.5", "--tol", tol])
    assert proc.returncode == 2
    assert "tol" in proc.stderr


def test_zero_with_tolerance_below_double_resolution():
    # bisection stops once the midpoint no longer moves
    proc = cli_subprocess(["ml", "zero", "--alpha", "1.5", "--tol", "1e-300"])
    assert proc.returncode == 0, proc.stderr
    default = cli_subprocess(["ml", "zero", "--alpha", "1.5"])
    assert abs(float(proc.stdout) - float(default.stdout)) <= 1e-6


def test_runs_without_mpmath():
    # mpmath is a test dependency only: the package and the ML commands must
    # import and run with it blocked
    code = """
import contextlib, io, sys
sys.modules["mpmath"] = None
import gradflows
from gradflows import cli
for argv in (["ml", "eval", "--alpha", "1.05", "--z", "-75"], ["ml", "table"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    print(rc)
    print(out.getvalue(), end="")
"""
    proc = python_subprocess(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "0",
        "-0.000665476646207",
        "0",
        "alpha  first_zero",
        "1.7    1.569252",
        "1.5    1.645229",
        "1.3    1.893382",
        "1.1    2.882974",
        "1.05   3.721496",
    ]


class TestBoundsCommand:
    BASE = ["bounds", "--lipschitz", "4.30", "--strong-convexity", "0.70", "--rho", "10", "--alpha", "1"]

    def parse(self, out):
        rows = {}
        for line in out.splitlines():
            parts = line.split(None, 1)
            rows[parts[0]] = parts[1]
        return rows

    def test_reference_second_order_value(self, capsys):
        rc, out, _ = invoke(capsys, self.BASE + ["--lam", "1"])
        assert rc == 0
        rows = self.parse(out)
        value = float(rows["fixed_time_second_order"].split("=")[1].split()[0])
        assert abs(value - 1.51) <= 0.01

    def test_all_rules_with_full_constants(self, capsys):
        rc, out, _ = invoke(
            capsys, self.BASE + ["--lam", "1", "--beta", "0.2", "--distance", "14.142135623730951"]
        )
        assert rc == 0
        rows = self.parse(out)
        assert abs(float(rows["finite_time_alpha2"].split("=")[1].split()[0]) - 43.0) < 1e-6
        assert abs(float(rows["finite_time_general"].split("=")[1].split()[0]) - 8.687) < 1e-3
        assert "bound=" in rows["fixed_time_fractional"]

    def test_decay_gate_flagged(self, capsys):
        # keep the finite-time rows applicable so the command still succeeds
        rc, out, _ = invoke(capsys, self.BASE + ["--lam", "4", "--distance", "1"])
        assert rc == 0
        rows = self.parse(out)
        assert "inapplicable" in rows["fixed_time_second_order"]
        assert "lambda" in rows["fixed_time_second_order"]

    def test_zero_distance_gives_zero_bounds(self, capsys):
        rc, out, _ = invoke(capsys, self.BASE + ["--distance", "0"])
        assert rc == 0
        rows = self.parse(out)
        assert float(rows["finite_time_alpha2"].split("=")[1].split()[0]) == 0.0
        assert float(rows["finite_time_general"].split("=")[1].split()[0]) == 0.0

    def test_nothing_applicable(self, capsys):
        rc, _, err = invoke(
            capsys, ["bounds", "--lipschitz", "4.30", "--rho", "10", "--alpha", "1"]
        )
        assert rc == 2
        assert "no applicable" in err


# exact stdout and exit code of `bounds` on argument sets covering every row
# shape: alpha = 2, a missing --distance or --strong-convexity, the decay-rate
# gate, a zero search past its horizon, and invalid constants
BOUNDS_CONSTANTS = ["--lipschitz", "4.30", "--strong-convexity", "0.70", "--rho", "10"]
PINNED_BOUNDS = [
    (
        BOUNDS_CONSTANTS + ["--alpha", "1", "--lam", "1", "--beta", "0.2", "--distance", "14.142135623730951"],
        0,
        "finite_time_alpha2       bound=43\n"
        "finite_time_general      bound=8.68731188\n"
        "fixed_time_second_order  bound=1.51357865\n"
        "fixed_time_fractional    bound=0.619854242  [drive_coefficient=4.55813953]\n",
    ),
    (
        BOUNDS_CONSTANTS + ["--alpha", "2", "--beta", "0.5", "--distance", "14.14"],
        0,
        "finite_time_alpha2       bound=42.987014\n"
        "fixed_time_second_order  bound=2.08099512  [alpha2_variant_bound=1.47148576]\n"
        "fixed_time_fractional    bound=0.949995101  [drive_coefficient=2.27906977]\n",
    ),
    (
        BOUNDS_CONSTANTS + ["--alpha", "1", "--beta", "0.2"],
        0,
        "finite_time_alpha2       inapplicable: needs --distance\n"
        "finite_time_general      inapplicable: needs --distance\n"
        "fixed_time_second_order  bound=1.47148576\n"
        "fixed_time_fractional    bound=0.619854242  [drive_coefficient=4.55813953]\n",
    ),
    (
        ["--lipschitz", "4.30", "--rho", "10", "--alpha", "1", "--distance", "1"],
        0,
        "finite_time_alpha2       bound=0.215\n"
        "finite_time_general      inapplicable: alpha=1 < 2 needs the strong-convexity constant\n"
        "fixed_time_second_order  inapplicable: needs --strong-convexity\n"
        "fixed_time_fractional    inapplicable: needs --strong-convexity and --beta\n",
    ),
    (
        BOUNDS_CONSTANTS + ["--alpha", "1", "--lam", "4", "--distance", "1"],
        0,
        "finite_time_alpha2       bound=0.215\n"
        "finite_time_general      bound=0.614285714\n"
        "fixed_time_second_order  inapplicable: decay rate fails the validity condition: "
        "lambda^2 = 16 must stay below 8*rho*mu^2/(alpha*L) = 9.11628\n"
        "fixed_time_fractional    inapplicable: needs --strong-convexity and --beta\n",
    ),
    (
        ["--lipschitz", "4.30", "--strong-convexity", "0.70", "--rho", "1e-6", "--alpha", "1",
         "--beta", "0.5", "--distance", "1"],
        0,
        "finite_time_alpha2       bound=2150000\n"
        "finite_time_general      bound=6142857.14\n"
        "fixed_time_second_order  bound=4653.24656\n"
        "fixed_time_fractional    inapplicable: no sign change of the standard form before "
        "t=100 (alpha=1.5, rho=4.55814e-07)\n",
    ),
    (
        ["--lipschitz", "4.30", "--rho", "10", "--alpha", "2"],
        2,
        "finite_time_alpha2       inapplicable: needs --distance\n"
        "finite_time_general      inapplicable: needs --distance\n"
        "fixed_time_second_order  inapplicable: needs --strong-convexity\n"
        "fixed_time_fractional    inapplicable: needs --strong-convexity and --beta\n",
    ),
    (
        ["--lipschitz", "4.30", "--strong-convexity", "0.70", "--rho", "-1", "--alpha", "2",
         "--beta", "0.5", "--distance", "1"],
        2,
        "finite_time_alpha2       inapplicable: rho must lie in (0, inf), got -1.0\n"
        "fixed_time_second_order  inapplicable: rho must lie in (0, inf), got -1.0\n"
        "fixed_time_fractional    inapplicable: rho must lie in (0, inf), got -1.0\n",
    ),
    (
        BOUNDS_CONSTANTS + ["--alpha", "1", "--distance", "0"],
        0,
        "finite_time_alpha2       bound=0\n"
        "finite_time_general      bound=0\n"
        "fixed_time_second_order  bound=1.47148576\n"
        "fixed_time_fractional    inapplicable: needs --strong-convexity and --beta\n",
    ),
]


@pytest.mark.parametrize(
    "args,code,stdout",
    PINNED_BOUNDS,
    ids=["all", "alpha2", "no_distance", "no_strong_convexity", "decay_gate", "zero_search",
         "nothing_applicable_alpha2", "invalid_rho", "zero_distance"],
)
def test_bounds_output_pinned(capsys, args, code, stdout):
    rc, out, err = invoke(capsys, ["bounds"] + args)
    assert (rc, out) == (code, stdout)
    assert err == ("" if code == 0 else "no applicable convergence-time guarantee for these constants\n")


# constants whose bound arithmetic leaves double range: the bound overflows,
# the second-order radicand overflows, the drive coefficient underflows, or
# the finite-time denominator underflows
OUT_OF_RANGE_BOUNDS = [
    (["--lipschitz", "1", "--strong-convexity", "1", "--rho", "1e308", "--alpha", "0.1"],
     {"fixed_time_second_order": "4*rho*mu^2/(alpha*L)"}),
    (["--lipschitz", "1e300", "--strong-convexity", "1", "--rho", "1e-300", "--alpha", "1",
      "--distance", "1e10", "--beta", "0.5"],
     {"finite_time_alpha2": "bound", "finite_time_general": "bound",
      "fixed_time_second_order": "4*rho*mu^2/(alpha*L)", "fixed_time_fractional": "4*rho*mu^2/(alpha*L)"}),
    (["--lipschitz", "1", "--strong-convexity", "1e-100", "--rho", "1e-300", "--alpha", "0.5",
      "--distance", "1"],
     {"finite_time_general": "rho*mu^(2-alpha)*alpha", "fixed_time_second_order": "4*rho*mu^2/(alpha*L)"}),
]


@pytest.mark.parametrize(
    "args,blamed",
    OUT_OF_RANGE_BOUNDS,
    ids=["radicand_overflow", "bound_overflow", "denominator_underflow"],
)
def test_bounds_out_of_range_rows(capsys, args, blamed):
    rc, out, err = invoke(capsys, ["bounds"] + args)
    rows = dict(line.split(None, 1) for line in out.splitlines())
    for rule, text in rows.items():
        if rule in blamed:
            assert text.startswith("inapplicable:") and blamed[rule] in text, text
            assert "double range" in text
        elif text.startswith("bound="):
            value = float(text.split("=")[1].split()[0])
            assert 0.0 < value < math.inf
    assert rc == (0 if any(t.startswith("bound=") for t in rows.values()) else 2)
    assert "Traceback" not in err


class TestRunCommand:
    def test_artifacts_and_echo(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        cfg = identity_run_config(out_dir)
        path = write_config(tmp_path, cfg)
        rc, out, _ = invoke(capsys, ["run", "--config", path])
        assert rc == 0
        assert "converged at t=" in out

        header, rows = read_csv(os.path.join(out_dir, "job.csv"))
        assert header == ["t", "x_1", "x_2", "theta", "V"]
        assert rows[0][0] == "0"
        assert all(r[3] == "" for r in rows)  # no gain state in this law
        assert float(rows[-1][4]) <= 1e-6 * (1 + 1e-9)

        with open(os.path.join(out_dir, "job_report.json")) as fh:
            report = json.load(fh)
        assert report["schema_version"] == 1
        assert report["config"] == cfg  # exact numeric round-trip
        assert report["converged"] is True
        assert abs(report["convergence_time"] - 0.5) < 0.03
        assert report["bound"]["rule"] == "finite_time_general"
        assert report["bound"]["observed"] == report["convergence_time"]
        assert report["final_gain"] is None

    def test_gain_column_present_for_second_order(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        cfg = identity_run_config(
            out_dir,
            flow={
                "variant": "fixed_time_second_order",
                "rho": 10.0,
                "alpha": 1.0,
                "lambda": 1.0,
                "delta": 0.01,
            },
        )
        path = write_config(tmp_path, cfg)
        rc, _, _ = invoke(capsys, ["run", "--config", path])
        assert rc == 0
        _, rows = read_csv(os.path.join(out_dir, "job.csv"))
        assert rows[0][3] == "0"
        assert float(rows[-1][3]) > 0.0

    def test_csv_byte_deterministic(self, tmp_path, capsys):
        blobs = []
        for sub in ("a", "b"):
            out_dir = str(tmp_path / sub)
            path = write_config(tmp_path, identity_run_config(out_dir), name=sub + ".json")
            rc, _, _ = invoke(capsys, ["run", "--config", path])
            assert rc == 0
            with open(os.path.join(out_dir, "job.csv"), "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]

    def test_out_and_step_overrides(self, tmp_path, capsys):
        out_dir = str(tmp_path / "cfgdir")
        override_dir = str(tmp_path / "flagdir")
        path = write_config(tmp_path, identity_run_config(out_dir))
        rc, _, _ = invoke(
            capsys, ["run", "--config", path, "--out", override_dir, "--step", "5e-4"]
        )
        assert rc == 0
        assert not os.path.exists(out_dir)
        _, rows = read_csv(os.path.join(override_dir, "job.csv"))
        assert float(rows[1][0]) == pytest.approx(5e-4)

    def test_seed_flag_accepted(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        path = write_config(tmp_path, identity_run_config(out_dir))
        rc, _, _ = invoke(capsys, ["run", "--seed", "42", "--config", path])
        assert rc == 0

    def test_fractional_reference_config(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        rc, _, _ = invoke(
            capsys,
            [
                "run",
                "--config",
                "configs/fractional_memory.json",
                "--out",
                out_dir,
                "--step",
                "1e-3",
            ],
        )
        assert rc == 0
        with open(os.path.join(out_dir, "fractional_report.json")) as fh:
            report = json.load(fh)
        assert report["bound"]["rule"] == "fixed_time_fractional"
        assert report["convergence_time"] < report["bound"]["bound"]

    def test_finite_time_reference_config(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        rc, _, _ = invoke(
            capsys,
            ["run", "--config", "configs/quadratic_finite_time.json", "--out", out_dir],
        )
        assert rc == 0
        with open(os.path.join(out_dir, "finite_time_report.json")) as fh:
            report = json.load(fh)
        assert report["convergence_time"] <= 8.687
        _, rows = read_csv(os.path.join(out_dir, "finite_time.csv"))
        x = [float(rows[-1][1]), float(rows[-1][2])]
        assert math.hypot(*x) <= 1e-3

    def test_horizon_override_without_convergence(self, tmp_path, capsys):
        # the identity run converges near t = 0.5; the flag cuts it at 0.1
        out_dir = str(tmp_path / "out")
        path = write_config(tmp_path, identity_run_config(out_dir))
        rc, out, _ = invoke(capsys, ["run", "--config", path, "--horizon", "0.1"])
        assert rc == 0
        assert out.startswith("no convergence before t=0.1  bound=")
        _, rows = read_csv(os.path.join(out_dir, "job.csv"))
        assert float(rows[-1][0]) == pytest.approx(0.1)
        with open(os.path.join(out_dir, "job_report.json")) as fh:
            report = json.load(fh)
        assert report["converged"] is False and report["convergence_time"] is None
        assert report["bound"]["observed"] is None

    def test_bound_error_reported(self, tmp_path, capsys):
        # the Zakharov problem carries no curvature constants
        out_dir = str(tmp_path / "out")
        cfg = identity_run_config(out_dir, problem={"name": "zakharov", "dimension": 2},
                                  initial=[0.5, 0.5])
        rc, out, _ = invoke(capsys, ["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        assert "bound=" not in out
        with open(os.path.join(out_dir, "job_report.json")) as fh:
            report = json.load(fh)
        assert report["bound"] is None
        assert "constant" in report["bound_error"]


class TestRunErrors:
    def test_malformed_json_no_artifacts(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        out_dir = tmp_path / "out"
        rc, _, err = invoke(capsys, ["run", "--config", str(path), "--out", str(out_dir)])
        assert rc == 2
        assert "config error" in err
        assert not out_dir.exists()

    def test_missing_schema_version(self, tmp_path, capsys):
        cfg = identity_run_config(str(tmp_path / "out"))
        del cfg["schema_version"]
        rc, _, err = invoke(capsys, ["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "schema_version" in err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = identity_run_config(str(tmp_path / "out"))
        cfg["plotting"] = True
        rc, _, err = invoke(capsys, ["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "plotting" in err

    def test_invalid_flow_parameters(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = identity_run_config(str(out_dir))
        cfg["flow"]["rho"] = -1.0
        rc, _, err = invoke(capsys, ["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "rho" in err
        assert not out_dir.exists()

    def test_boolean_dimension(self, tmp_path, capsys):
        # JSON true is not the integer 1
        out_dir = tmp_path / "out"
        cfg = identity_run_config(str(out_dir), initial=[3.0])
        cfg["problem"] = {"name": "zakharov", "dimension": True}
        rc, _, err = invoke(capsys, ["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "dimension" in err
        assert not out_dir.exists()

    def test_unknown_problem_name(self, tmp_path, capsys):
        cfg = identity_run_config(str(tmp_path / "out"))
        cfg["problem"] = {"name": "rosenbrock"}
        rc, _, err = invoke(capsys, ["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "rosenbrock" in err

    def test_missing_initial(self, tmp_path, capsys):
        cfg = identity_run_config(str(tmp_path / "out"))
        del cfg["initial"]
        rc, _, err = invoke(capsys, ["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "initial" in err

    def test_wrong_dimension_initial(self, tmp_path, capsys):
        cfg = identity_run_config(str(tmp_path / "out"))
        cfg["initial"] = [1.0, 2.0, 3.0]
        rc, _, err = invoke(capsys, ["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert err

    def test_divergence_maps_to_exit_3(self, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise DivergenceError("state norm left the finite range", last_valid_time=0.5)

        monkeypatch.setattr(cli, "integrate", explode)
        cfg = identity_run_config(str(tmp_path / "out"))
        rc, _, err = invoke(capsys, ["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 3
        assert "simulation failed" in err

    # a typo, and the zakharov parameter, which a quadratic does not take
    @pytest.mark.parametrize("key", ["matrx", "dimension"])
    def test_unknown_problem_key(self, tmp_path, capsys, key):
        out_dir = tmp_path / "out"
        cfg = identity_run_config(str(out_dir))
        cfg["problem"][key] = 2
        rc, _, err = invoke(capsys, ["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert key in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_schema_version_must_be_the_int_one(self, tmp_path, capsys, version):
        out_dir = tmp_path / "out"
        cfg = identity_run_config(str(out_dir), schema_version=version)
        rc, _, err = invoke(capsys, ["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "schema_version" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("directory,flags", [(5, []), ("out", ["--out", ""])])
    def test_bad_output_directory(self, tmp_path, capsys, monkeypatch, directory, flags):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, identity_run_config(directory))
        rc, _, err = invoke(capsys, ["run", "--config", path] + flags)
        assert rc == 2
        assert "directory" in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_output_path_is_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        path = write_config(tmp_path, identity_run_config(str(tmp_path / "out")))
        rc, out, err = invoke(capsys, ["run", "--config", path, "--out", str(taken)])
        assert rc == 2
        assert str(taken) in err
        assert "Traceback" not in err and "wrote" not in out

    def test_invalid_config_file(self, tmp_path, capsys):
        # the config the CI runs through the console script to expect exit 2
        path = os.path.join(ROOT, "tests", "data", "unknown_problem_key.json")
        out_dir = tmp_path / "out"
        rc, _, err = invoke(capsys, ["run", "--config", path, "--out", str(out_dir)])
        assert rc == 2
        assert "matrx" in err
        assert not out_dir.exists()

    def test_unreadable_config_path(self, tmp_path, capsys):
        rc, _, err = invoke(capsys, ["run", "--config", str(tmp_path / "missing.json")])
        assert rc == 2
        assert "cannot read" in err

    def test_invalid_sim_value(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = identity_run_config(str(out_dir), sim={"step": -1e-3, "horizon": 2.0})
        rc, _, err = invoke(capsys, ["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "invalid sim options" in err
        assert not out_dir.exists()

    def test_usage_error(self, capsys):
        rc = cli.main(["run"])  # --config is required
        capsys.readouterr()
        assert rc == 2

    def test_unknown_subcommand(self, capsys):
        rc = cli.main(["render"])
        capsys.readouterr()
        assert rc == 2


class TestConfigSections:
    """Each config section is an object that names only its own keys."""

    @pytest.mark.parametrize("section", ["flow", "sim", "output"])
    def test_non_object_section(self, tmp_path, capsys, section):
        out_dir = tmp_path / "out"
        cfg = identity_run_config(str(out_dir))
        cfg[section] = [1.0]
        rc, _, err = invoke(capsys, ["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert section in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("section", ["flow", "sim", "output"])
    def test_unknown_section_key(self, tmp_path, capsys, section):
        out_dir = tmp_path / "out"
        cfg = identity_run_config(str(out_dir))
        cfg[section]["colour"] = "blue"
        rc, _, err = invoke(capsys, ["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "colour" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("key", ["variant", "rho", "alpha"])
    def test_flow_section_missing_key(self, tmp_path, capsys, key):
        out_dir = tmp_path / "out"
        cfg = identity_run_config(str(out_dir))
        del cfg["flow"][key]
        rc, _, err = invoke(capsys, ["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert key in err
        assert not out_dir.exists()

    def test_unknown_variation_key(self, tmp_path, capsys):
        # a sweep captures the failure in that run's status and goes on
        out_dir = tmp_path / "out"
        cfg = identity_run_config(str(out_dir))
        del cfg["initial"]
        cfg["variations"] = [{"colour": "blue", "x0": [3.0, 4.0]}, {"x0": [3.0, 4.0]}]
        rc, _, _ = invoke(capsys, ["sweep", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        _, rows = read_csv(os.path.join(str(out_dir), "job_summary.csv"))
        assert rows[0][-1].startswith("error: ")
        assert "colour" in rows[0][-1]
        assert rows[1][-1] == "ok"


class TestSweepCommand:
    def sweep_config(self, out_dir):
        return {
            "schema_version": 1,
            "problem": {"name": "quadratic", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
            "flow": {"variant": "fixed_time_second_order", "rho": 10.0, "alpha": 1.0,
                     "lambda": 1.0, "delta": 0.01},
            "variations": [{"x0": [1.0, 1.0]}, {"x0": [3.0, 4.0]}],
            "sim": {"step": 1e-3, "horizon": 3.0},
            "output": {"directory": out_dir, "prefix": "fam"},
        }

    def test_summary_and_per_run_files(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        path = write_config(tmp_path, self.sweep_config(out_dir))
        rc, _, _ = invoke(capsys, ["sweep", "--config", path])
        assert rc == 0
        header, rows = read_csv(os.path.join(out_dir, "fam_summary.csv"))
        assert header == ["label", "convergence_time", "bound", "status"]
        assert len(rows) == 2
        for row in rows:
            assert row[-1] == "ok"
            assert float(row[1]) > 0
        assert os.path.exists(os.path.join(out_dir, "fam_00_x0_1_1.csv"))
        assert os.path.exists(os.path.join(out_dir, "fam_01_x0_3_4.csv"))

    def test_output_path_is_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        path = write_config(tmp_path, self.sweep_config(str(tmp_path / "out")))
        rc, out, err = invoke(capsys, ["sweep", "--config", path, "--out", str(taken)])
        assert rc == 2
        assert str(taken) in err
        assert "Traceback" not in err and "wrote" not in out

    def test_single_variation_matches_run(self, tmp_path, capsys):
        run_dir = str(tmp_path / "single")
        cfg_run = identity_run_config(run_dir)
        rc, _, _ = invoke(capsys, ["run", "--config", write_config(tmp_path, cfg_run, "r.json")])
        assert rc == 0

        sweep_dir = str(tmp_path / "family")
        cfg_sweep = dict(cfg_run)
        del cfg_sweep["initial"]
        cfg_sweep["variations"] = [{"x0": [3.0, 4.0]}]
        cfg_sweep["output"] = {"directory": sweep_dir, "prefix": "fam"}
        rc, _, _ = invoke(capsys, ["sweep", "--config", write_config(tmp_path, cfg_sweep, "s.json")])
        assert rc == 0

        with open(os.path.join(run_dir, "job.csv"), "rb") as fh:
            run_bytes = fh.read()
        with open(os.path.join(sweep_dir, "fam_00_x0_3_4.csv"), "rb") as fh:
            sweep_bytes = fh.read()
        assert run_bytes == sweep_bytes

    def test_partial_failure_keeps_exit_zero(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        cfg = self.sweep_config(out_dir)
        cfg["variations"].insert(0, {"rho": -5.0, "x0": [1.0, 1.0]})
        path = write_config(tmp_path, cfg)
        rc, _, _ = invoke(capsys, ["sweep", "--config", path])
        assert rc == 0
        _, rows = read_csv(os.path.join(out_dir, "fam_summary.csv"))
        assert "error" in rows[0][-1]
        assert rows[0][1] == ""
        assert rows[1][-1] == "ok"

    def test_no_detection_status(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        cfg = self.sweep_config(out_dir)
        cfg["sim"]["horizon"] = 0.05
        rc, _, _ = invoke(capsys, ["sweep", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        _, rows = read_csv(os.path.join(out_dir, "fam_summary.csv"))
        assert [(r[1], r[-1]) for r in rows] == [("", "no_detection")] * 2
        assert all(float(r[2]) > 0.0 for r in rows)

    def test_total_failure_exits_3(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        cfg = self.sweep_config(out_dir)
        cfg["variations"] = [{"rho": -5.0, "x0": [1.0, 1.0]}, {"alpha": 9.0, "x0": [1.0, 1.0]}]
        rc, _, _ = invoke(capsys, ["sweep", "--config", write_config(tmp_path, cfg)])
        assert rc == 3

    def test_non_string_label(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = self.sweep_config(str(out_dir))
        cfg["variations"].append({"label": 5, "x0": [1.0, 1.0]})
        rc, _, err = invoke(capsys, ["sweep", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "label" in err
        assert not out_dir.exists()

    def test_missing_variations(self, tmp_path, capsys):
        cfg = self.sweep_config(str(tmp_path / "out"))
        del cfg["variations"]
        rc, _, err = invoke(capsys, ["sweep", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "variations" in err

    def test_default_initial_fills_variations(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        cfg = self.sweep_config(out_dir)
        cfg["variations"] = [{"alpha": 0.5}, {"alpha": 1.0}]
        cfg["initial"] = [3.0, 4.0]
        rc, _, _ = invoke(capsys, ["sweep", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        _, rows = read_csv(os.path.join(out_dir, "fam_summary.csv"))
        assert [r[0] for r in rows] == ["alpha=0.5", "alpha=1"]


# ---------------------------------------------------------------------------
# byte identity of the shipped configs' CSVs against the benchmark's references

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SHIPPED = (
    "run/fractional_memory",
    "run/quadratic_finite_time",
    "sweep/quadratic_second_order_sweep",
    "sweep/zakharov_second_order",
)


@pytest.fixture(scope="module")
def cli_reference():
    path = os.path.join(ROOT, "bench", "data", "cli.json")
    if not os.path.exists(path):
        pytest.skip("no benchmark reference at bench/data/cli.json")
    with open(path) as fh:
        return json.load(fh)["cases"]


@pytest.mark.parametrize("case", SHIPPED)
def test_shipped_config_csv_bytes(case, cli_reference, tmp_path, capsys):
    command, name = case.split("/")
    config = os.path.join(ROOT, "configs", name + ".json")
    rc, _, _ = invoke(capsys, [command, "--config", config, "--out", str(tmp_path)])
    assert rc == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert got == cli_reference[case]["csv"]
