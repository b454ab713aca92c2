"""The four benchmark workloads: seeded inputs, program calls and checks.

Each workload defines a pool of cases.  A case is one program call (one
trajectory, one solve, one zero, bound or evaluation group, or one CLI
invocation) with a key into the reference data captured by ``capture.py``.
The workload seed picks the cases of a run from the pool and their order;
the program only ever sees the generated inputs.  Pools are stratified so
that every seed draws the same mix of work, which keeps the end-to-end
figures comparable across seeds.

Program calls go through the package object at call time (``gf.integrate``
rather than a bound name), so the tracer's wrappers see them.
"""

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import shutil
import tempfile

import numpy as np

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

BENCH_MATRIX = [[1.0, 1.0], [1.0, 4.0]]
LAWS = {
    "finite_time": dict(variant="finite_time", rho=10.0, alpha=1.0, delta=0.01),
    "second_order": dict(variant="fixed_time_second_order", rho=10.0, alpha=1.0, lam=1.0, delta=0.01),
    "fractional": dict(variant="fixed_time_fractional", rho=10.0, alpha=1.0, beta=0.5, delta=0.01),
}

# Tolerances.  Convergence times are grid times and must match exactly; float
# outputs allow reordered sums (1e-9 relative, well above the 1e-12 a blocked
# memory convolution needs) but not a different answer.
STATE_REL, STATE_ABS = 1e-9, 1e-12
ZERO_ABS = 1e-6  # the zero finder's own tolerance
EVAL_ABS, EVAL_REL = 2e-9, 1e-9  # ml_eval keeps 1e-9 absolute error; two such values
TABLE_ABS = 2e-6  # `ml table` prints zeros with six decimals
ANALYTIC_ABS = 1e-5  # Caputo relaxation against E_beta(-t^beta); seed error is below 5e-6


class Case:
    """One program call with its reference key, output summary and check.

    ``call()`` makes the call and returns its raw output; ``summarize(out)``
    turns it into a JSON-able summary holding ``work`` (integrator steps or
    zero searches); ``compare(summary, ref)`` returns an error string or None.
    """

    __slots__ = ("key", "call", "summarize", "compare")

    def __init__(self, key, call, summarize, compare):
        self.key = key
        self.call = call
        self.summarize = summarize
        self.compare = compare


def _close(a, b, rel, abs_):
    return abs(a - b) <= abs_ + rel * abs(b)


def _compare_vector(name, got, want, rel, abs_):
    if len(got) != len(want):
        return "%s has %d entries, reference %d" % (name, len(got), len(want))
    for i, (a, b) in enumerate(zip(got, want)):
        if not _close(a, b, rel, abs_):
            return "%s[%d] = %r, reference %r" % (name, i, a, b)
    return None


def _compare_trajectory(summary, ref):
    if summary["t"] != ref["t"]:
        return "convergence time %r, reference %r" % (summary["t"], ref["t"])
    for key in ("x", "theta"):
        if key in ref:
            err = _compare_vector(key, summary[key], ref[key], STATE_REL, STATE_ABS)
            if err:
                return err
    return None


def _trajectory_summary(opts):
    def summarize(traj):
        out = {
            "t": traj.convergence_time,
            "x": [float(v) for v in traj.final_state],
            "work": int(round(traj.times[-1] / opts.step)),
        }
        if traj.gains is not None:
            out["theta"] = [float(traj.gains[-1])]
        return out

    return summarize


def _stratified(rng, keys_by_stratum):
    """One pool entry per stratum, chosen by the seed."""
    return [rng.choice(options) for options in keys_by_stratum]


# ---------------------------------------------------------------------------
# starts: multi-start audit of the fixed-time claim


class Starts:
    """All three laws from starts on circles of radius 1e-2 to 1e4.

    Each (law, radius) cell has STRATA base angles spread over a half turn
    (the benchmark quadratic is even, so x0 and -x0 give the same run); the
    seed picks one of JITTER nearby angles for each.  Finite-time radii stop
    at 10, where the slowest start converges at t = 1.19 of the 5.0 horizon.
    A few starts run on a 64-dimensional SPD quadratic built from a fixed
    generator seed, with directions drawn from a pool by the workload seed.
    """

    RADII = {
        "finite_time": (1e-2, 1e-1, 1.0, 10.0),
        "second_order": (1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4),
        "fractional": (1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4),
    }
    STRATA = 4
    JITTER = 4
    JITTER_RAD = math.radians(1.0)
    HIGH_DIM = 64
    HIGH_DIM_RADIUS = 10.0
    HIGH_DIM_POOL = 8
    HIGH_DIM_SEED = 64

    def __init__(self, gf):
        self.gf = gf
        self.opts = gf.SimOptions(step=1e-4, horizon=5.0, record_stride=1000)
        self.laws = {name: gf.FlowLaw(**spec) for name, spec in LAWS.items()}
        self.plane = gf.quadratic_problem(BENCH_MATRIX)
        gen = random.Random(self.HIGH_DIM_SEED)
        n = self.HIGH_DIM
        q, _ = np.linalg.qr(np.array([[gen.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]))
        # same curvature range as the plane problem's symmetric part
        eigs = np.geomspace(self.plane.strong_convexity, self.plane.lipschitz, n)
        self.space = gf.quadratic_problem((q * eigs) @ q.T)
        self.directions = []
        for _ in range(len(LAWS) * self.HIGH_DIM_POOL):
            v = np.array([gen.gauss(0.0, 1.0) for _ in range(n)])
            self.directions.append(self.HIGH_DIM_RADIUS * v / np.linalg.norm(v))
        self.problems = [self.plane, self.space]

    def strata(self):
        out = []
        for law, radii in self.RADII.items():
            for r in radii:
                for j in range(self.STRATA):
                    out.append(["%s/r%g/a%d/j%d" % (law, r, j, s) for s in range(self.JITTER)])
        for li, law in enumerate(LAWS):
            out.append(["%s/d%d/%d" % (law, self.HIGH_DIM, li * self.HIGH_DIM_POOL + i)
                        for i in range(self.HIGH_DIM_POOL)])
        return out

    def start(self, key):
        law, where, *rest = key.split("/")
        if where.startswith("d"):
            return law, self.space, self.directions[int(rest[0])]
        r = float(where[1:])
        j, s = int(rest[0][1:]), int(rest[1][1:])
        angle = math.pi * (j + 0.5) / self.STRATA + (s - 0.5 * (self.JITTER - 1)) * self.JITTER_RAD
        return law, self.plane, np.array([r * math.cos(angle), r * math.sin(angle)])

    def case(self, key):
        gf, opts = self.gf, self.opts
        law_name, problem, x0 = self.start(key)
        law = self.laws[law_name]
        return Case(key, lambda: gf.integrate(law, problem, x0, opts),
                    _trajectory_summary(opts), _compare_trajectory)

    def audit(self, summaries):
        """Largest settling time per law against that law's bound."""
        gf = self.gf
        lines = []
        for law_name, law in self.laws.items():
            worst = None
            for key, s in summaries.items():
                if not key.startswith(law_name + "/") or s.get("t") is None:
                    continue
                _, problem, x0 = self.start(key)
                bound = gf.applicable_bound(law, problem, x0).bound
                ratio = s["t"] / bound
                if worst is None or ratio > worst[0]:
                    worst = (ratio, s["t"], bound, key)
            if worst:
                lines.append("audit %-12s worst settling time %.4f of bound %.4f (ratio %.3f) at %s"
                             % (law_name, worst[1], worst[2], worst[0], worst[3]))
        return lines


# ---------------------------------------------------------------------------
# memory: long-memory Caputo solves


class Memory:
    """Relaxation D^beta theta = -theta, theta(0) = 1, and fine-step fractional runs.

    Each solve takes 2^15 steps; the seed picks its step from a pool, which
    changes the time span but not the work.  Solves are checked against the
    captured values and against E_beta(-t^beta), evaluated during set-up.
    Two fixed_time_fractional runs at step 1e-5 build about 20k samples of
    memory through the simulator.  They start from (-10, 10) and from its
    mirror image across an eigenvector axis of the quadratic, so they
    converge at the same time and cost the same: the slowest items of a run
    are then alike, and the tail does not move with the number of passes.
    """

    SOLVE_STEPS = 1 << 15
    SOLVE_BETAS = (0.2, 0.5, 0.8)
    STEP_POOL = (1.0e-4, 1.5e-4, 2.0e-4, 3.0e-4)
    CHECK_STRIDE = 512
    RUN_BETA = 0.5
    RUN_START = (-10.0, 10.0)

    def __init__(self, gf):
        self.gf = gf
        self.plane = gf.quadratic_problem(BENCH_MATRIX)
        self.run_opts = gf.SimOptions(step=1e-5, horizon=1.0, record_stride=1000)
        self.problems = [self.plane]
        self.checkpoints = np.arange(0, self.SOLVE_STEPS + 1, self.CHECK_STRIDE)
        x0 = np.array(self.RUN_START)
        axis = np.linalg.eigh(np.array(BENCH_MATRIX))[1][:, 0]
        self.run_starts = {"run/direct": x0, "run/mirror": 2.0 * (axis @ x0) * axis - x0}

    def strata(self):
        out = [["solve/b%g/h%d" % (b, i) for i in range(len(self.STEP_POOL))] for b in self.SOLVE_BETAS]
        return out + [[key] for key in self.run_starts]

    def case(self, key):
        gf = self.gf
        if key in self.run_starts:
            x0 = self.run_starts[key]
            law = gf.FlowLaw(**dict(LAWS["fractional"], beta=self.RUN_BETA))
            opts = self.run_opts
            return Case(key, lambda: gf.integrate(law, self.plane, x0, opts),
                        _trajectory_summary(opts), _compare_trajectory)
        _, b, last = key.split("/")
        beta = float(b[1:])
        h = self.STEP_POOL[int(last[1:])]
        n = self.SOLVE_STEPS
        idx = self.checkpoints
        spec = gf.MLSpec(beta, 1.0)
        exact = [gf.ml_eval(spec, -((i * h) ** beta)) for i in idx]

        def summarize(out):
            _, values = out
            return {"v": [float(values[i]) for i in idx], "work": len(values) - 1}

        def compare(summary, ref):
            err = _compare_vector("theta", summary["v"], ref["v"], STATE_REL, STATE_ABS)
            if err:
                return err
            return _compare_vector("theta vs E_beta(-t^beta)", summary["v"], exact, 0.0, ANALYTIC_ABS)

        return Case(key, lambda: gf.solve_caputo(beta, lambda t, th: -th, n * h, h, initial_value=1.0),
                    summarize, compare)


# ---------------------------------------------------------------------------
# certify: Mittag-Leffler zeros, fractional bounds and evaluations


class Certify:
    """Zero searches, fractional bounds and an ml_eval sweep.

    Items are groups, each one check of the certification machinery: the
    whole `ml table` (five standard-form zeros at unit rate); one point of
    criterion 8's (alpha, rho) grid, whose standard-form zero must precede
    its kernel-form zero; bound_fixed_time_fractional at one fractional order
    for three drive rates, the order jittered by the seed by up to 0.015;
    and one ml_eval group per alpha at z = -95, -85, ..., 95 (up to 5 for
    alpha < 1, where positive arguments grow past the series' reach),
    including points served by the mpmath fallback.  The evaluation grid is
    not seeded: the evaluator's cost jumps where its route changes, and the
    slowest group sets the tail, so moving its points would move the tail.
    """

    TABLE_ALPHAS = (1.7, 1.5, 1.3, 1.1, 1.05)
    GRID_ALPHAS = (1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9)
    GRID_RHOS = (0.5, 1.0, 2.0, 10.0)
    BOUND_BETAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    BOUND_RHOS = (1.0, 10.0, 100.0)
    BETA_JITTER = 0.01
    EVAL_ALPHAS = (0.5, 0.75, 1.0, 1.05, 1.25, 1.5, 1.75, 2.0)
    JITTER = 4

    def __init__(self, gf):
        self.gf = gf
        plane = gf.quadratic_problem(BENCH_MATRIX)
        self.lipschitz = plane.lipschitz
        self.strong_convexity = plane.strong_convexity
        self.problems = [plane]

    def strata(self):
        out = [["table"]]
        out += [["zero/a%g/r%g" % (a, r)] for a in self.GRID_ALPHAS for r in self.GRID_RHOS]
        out += [["bound/b%g/j%d" % (b, j) for j in range(self.JITTER)] for b in self.BOUND_BETAS]
        out += [["eval/a%g" % a] for a in self.EVAL_ALPHAS]
        return out

    def jittered(self, j, i):
        """Offset index of member i in seeded variant j.

        The offsets rotate across a group's members, so every variant holds
        the same mix of offsets and costs about the same.
        """
        return (j + i) % self.JITTER

    def case(self, key):
        gf = self.gf
        parts = key.split("/")
        kind = parts[0]
        if kind == "eval":
            alpha = float(parts[1][1:])
            spec = gf.MLSpec(alpha, 1.0)
            zs = [float(z) for z in np.arange(-95.0, 100.0 if alpha >= 1.0 else 10.0, 10.0)]

            def compare(summary, ref):
                return _compare_vector("E(z)", summary["v"], ref["v"], EVAL_REL, EVAL_ABS)

            return Case(key, lambda: [gf.ml_eval(spec, z) for z in zs],
                        lambda vals: {"v": [float(v) for v in vals], "work": 0}, compare)
        if kind == "bound":
            j = int(parts[2][1:])
            centre = float(parts[1][1:]) - 0.5 * (self.JITTER - 1) * self.BETA_JITTER
            L, mu = self.lipschitz, self.strong_convexity
            pairs = [(centre + self.jittered(j, i) * self.BETA_JITTER, rho)
                     for i, rho in enumerate(self.BOUND_RHOS)]

            def call():
                return [gf.bound_fixed_time_fractional(L, mu, rho, 1.0, beta).bound for beta, rho in pairs]

            compare = _compare_zeros
        else:
            if kind == "table":
                queries = [gf.ZeroQuery(alpha=a, rho=1.0, kind="standard") for a in self.TABLE_ALPHAS]
                compare = _compare_zeros
            else:
                alpha, rho = float(parts[1][1:]), float(parts[2][1:])
                queries = [gf.ZeroQuery(alpha=alpha, rho=rho, kind=k) for k in ("standard", "kernel")]
                compare = _compare_zero_order

            def call():
                return [gf.ml_first_positive_zero(q, tol=1e-6) for q in queries]

        return Case(key, call, lambda zs: {"z": [float(z) for z in zs], "work": len(zs)}, compare)


def _compare_zeros(summary, ref):
    return _compare_vector("zero", summary["z"], ref["z"], 0.0, ZERO_ABS)


def _compare_zero_order(summary, ref):
    """Criterion 8: the standard-form zero precedes the kernel-form zero."""
    standard, kernel = summary["z"]
    if not standard < kernel:
        return "standard-form zero %r does not precede kernel-form zero %r" % (standard, kernel)
    return _compare_zeros(summary, ref)


# ---------------------------------------------------------------------------
# cli: the shipped configs through the command-line entry point


def _json_diff(got, want, path="$"):
    """First difference between two parsed JSON values; floats to ZERO_ABS."""
    if isinstance(want, float) or isinstance(got, float):
        ok = (isinstance(got, (int, float)) and isinstance(want, (int, float))
              and not isinstance(got, bool) and _close(got, want, STATE_REL, ZERO_ABS))
        return None if ok else "%s = %r, reference %r" % (path, got, want)
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return "%s keys differ" % path
        for k in want:
            err = _json_diff(got[k], want[k], path + "." + k)
            if err:
                return err
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return "%s length differs" % path
        for i, (a, b) in enumerate(zip(got, want)):
            err = _json_diff(a, b, "%s[%d]" % (path, i))
            if err:
                return err
        return None
    return None if got == want else "%s = %r, reference %r" % (path, got, want)


class Cli:
    """Two `run` and two `sweep` invocations on the shipped configs, plus `ml table`.

    Each invocation goes through gradflows.cli.main in-process and writes
    into a fresh directory under .bench_build/.  CSV files must match the
    captured SHA-256 byte for byte.  Report JSON is compared field by field,
    floats to 1e-6, because it carries the fractional bound (a zero-finder
    result known only to the finder's tolerance); `ml table` zeros are
    compared to 2e-6.  The seed sets the order of the invocations.
    """

    INVOCATIONS = (
        ("run", "quadratic_finite_time"),
        ("run", "fractional_memory"),
        ("sweep", "quadratic_second_order_sweep"),
        ("sweep", "zakharov_second_order"),
        ("ml", "table"),
    )

    def __init__(self, gf, root):
        importlib.import_module(gf.__name__ + ".cli")  # the package does not import it
        self.gf = gf
        self.root = root
        self.out_root = os.path.join(root, ".bench_build")
        self.problems = []

    def strata(self):
        return [["%s/%s" % inv] for inv in self.INVOCATIONS]

    def case(self, key):
        gf = self.gf
        command, target = key.split("/")
        if command == "ml":
            argv_base = ["ml", target]
        else:
            argv_base = [command, "--config", os.path.join(self.root, "configs", target + ".json")]
        out_root = self.out_root

        def call():
            os.makedirs(out_root, exist_ok=True)
            out_dir = tempfile.mkdtemp(prefix="cli-", dir=out_root)
            argv = argv_base if command == "ml" else argv_base + ["--out", out_dir]
            stdout = io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout):
                    rc = gf.cli.main(argv)
            except BaseException:
                shutil.rmtree(out_dir, ignore_errors=True)
                raise
            return rc, out_dir, stdout.getvalue()

        return Case(key, call, _cli_summary, _compare_cli)


def _cli_summary(out):
    rc, out_dir, stdout = out
    summary = {"rc": rc, "csv": {}, "json": {}, "work": 0, "bytes": 0, "rows": 0}
    try:
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
            summary["bytes"] += len(data)
            if name.endswith(".csv"):
                summary["csv"][name] = hashlib.sha256(data).hexdigest()
                rows = data.count(b"\n") - 1
                summary["rows"] += rows
                if not name.endswith("_summary.csv"):
                    summary["work"] += rows - 1  # one row per step after t = 0
            else:
                summary["json"][name] = json.loads(data)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if stdout.startswith("alpha"):
        summary["table"] = [[float(c) for c in line.split()] for line in stdout.splitlines()[1:]]
    return summary


def _compare_cli(summary, ref):
    if summary["rc"] != 0:
        return "exit code %r" % summary["rc"]
    if summary["csv"] != ref["csv"]:
        bad = sorted(set(summary["csv"].items()) ^ set(ref["csv"].items()))
        return "CSV output differs from the reference: %s" % ", ".join(sorted({n for n, _ in bad}))
    err = _json_diff(summary["json"], ref["json"])
    if err:
        return err
    if "table" in ref:
        got = [v for row in summary.get("table", []) for v in row]
        return _compare_vector("ml table", got, [v for row in ref["table"] for v in row], 0.0, TABLE_ABS)
    return None


# ---------------------------------------------------------------------------
# assembly

NAMES = ("starts", "memory", "certify", "cli")


def make(name, gf, root):
    if name == "starts":
        return Starts(gf)
    if name == "memory":
        return Memory(gf)
    if name == "certify":
        return Certify(gf)
    if name == "cli":
        return Cli(gf, root)
    raise ValueError("unknown workload %r" % (name,))


def reference_path(name):
    return os.path.join(DATA_DIR, name + ".json")


def load_references(name):
    with open(reference_path(name)) as fh:
        return json.load(fh)["cases"]


class Built:
    """A workload ready to run: its cases in seeded order and their references."""

    def __init__(self, name, seed, gf, root):
        self.name = name
        self.workload = make(name, gf, root)
        rng = random.Random(seed)
        keys = _stratified(rng, self.workload.strata())
        rng.shuffle(keys)
        self.references = load_references(name)
        self.cases = [self.workload.case(k) for k in keys]
        self.problems = self.workload.problems
