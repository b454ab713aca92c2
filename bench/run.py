#!/usr/bin/env python3
"""gradflows benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {starts,memory,certify,cli} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from ../src relative to this
file.  The run repeats the workload's fixed item list (one closed loop, one
thread) until S seconds have passed, checks every output against the
captured references, and prints one `metric NAME VALUE UNIT` line per metric
followed, as the last line, by a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics.  --trace 1 spends the first half
of the time untraced and the second half with every public layer call
wrapped, and reports the per-layer metrics, including the tracing overhead.
See bench/README.md.
"""

import os

# One BLAS thread: the hot paths are small matrix-vector products, and the
# measurement must not depend on how many cores happen to be idle.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

STARTED = time.perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# workloads.NAMES, repeated so that argument parsing imports no numpy before set-up is timed
WORKLOADS = ("starts", "memory", "certify", "cli")

SETUP_SAMPLES = 5  # this process's set-up plus four fresh interpreters
SETUP_CHILD_TIMEOUT_S = 30.0
ITEM_CAP_S = 20.0  # a hung item is recorded as failed, not waited for
DEADLINE_S = 150.0  # items not started by then are recorded as failed
TAIL_BEYOND = 10  # the tail percentile keeps at least this many items above it

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("problems.grad_calls", "count"),
    ("problems.grad_s", "s"),
    ("problems.self_s", "s"),
    ("flows.field_calls", "count"),
    ("flows.field_self_s", "s"),
    ("flows.bound_calls", "count"),
    ("flows.bound_s", "s"),
    ("flows.self_s", "s"),
    ("sim.steps", "count"),
    ("sim.self_s", "s"),
    ("sim.self_us_per_step", "us"),
    ("sim.field_calls_per_step", "ratio"),
    ("sim.substepped_steps", "count"),
    ("sim.max_substeps", "count"),
    ("caputo.correct_calls", "count"),
    ("caputo.push_calls", "count"),
    ("caputo.correct_s", "s"),
    ("caputo.correct_us_per_call", "us"),
    ("caputo.memory_len_max", "count"),
    ("caputo.bytes_computed", "bytes"),
    ("caputo.self_s", "s"),
    ("special.zero_calls", "count"),
    ("special.zero_s", "s"),
    ("special.evals_per_zero", "ratio"),
    ("special.ml_eval_calls", "count"),
    ("special.ml_eval_s", "s"),
    ("special.ml_eval_us_p50", "us"),
    ("special.ml_eval_us_tail", "us"),
    ("special.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.rows_written", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.residual_s", "s"),
)


class ItemTimeout(BaseException):
    """Raised by the alarm when an item outlives ITEM_CAP_S.

    A BaseException, so the program's own `except Exception` handlers (sweep
    captures per-run errors) cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise ItemTimeout()


def setup(workload, seed):
    """Import gradflows and build every input of the workload; time both."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import gradflows
    import workloads

    built = workloads.Built(workload, seed, gradflows, ROOT)
    return time.perf_counter() - t0, gradflows, built


def setup_in_child(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError("set-up in a fresh interpreter failed:\n" + proc.stderr)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Runner:
    """Closed-loop passes over a built workload, with checks and counters."""

    def __init__(self, built):
        self.built = built
        self.deadline = STARTED + DEADLINE_S
        self.latencies = []
        self.groups = {}
        self.walls = []
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.summaries = {}
        self.bytes_written = 0
        self.rows_written = 0

    def fail(self, key, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append("%s: %s" % (key, message))

    def run_item(self, case):
        self.attempted += 1
        if time.perf_counter() > self.deadline:
            self.fail(case.key, "not started: run deadline passed")
            return
        signal.setitimer(signal.ITIMER_REAL, ITEM_CAP_S)
        t0 = time.perf_counter()
        try:
            out = case.call()
        except ItemTimeout:
            self.latencies.append(time.perf_counter() - t0)
            self.fail(case.key, "exceeded the %.0f s item cap" % ITEM_CAP_S)
            return
        except Exception as exc:  # one failing item must not stop the run
            self.latencies.append(time.perf_counter() - t0)
            self.fail(case.key, "raised %s: %s" % (type(exc).__name__, exc))
            return
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - t0
        self.latencies.append(latency)
        ref = self.built.references.get(case.key)
        try:
            summary = case.summarize(out)
            err = "no reference captured" if ref is None else case.compare(summary, ref)
        except Exception as exc:
            err = "output check raised %s: %s" % (type(exc).__name__, exc)
        if err:
            self.fail(case.key, err)
            return
        self.work += summary["work"]
        group = "/".join(case.key.split("/")[:2])
        self.groups.setdefault(group, []).append((latency, summary["work"]))
        self.bytes_written += summary.get("bytes", 0)
        self.rows_written += summary.get("rows", 0)
        self.summaries[case.key] = summary

    def run_for(self, seconds):
        """Whole passes until `seconds` have elapsed (at least one)."""
        t_start = time.perf_counter()
        walls = []
        while True:
            p0 = time.perf_counter()
            for case in self.built.cases:
                self.run_item(case)
            walls.append(time.perf_counter() - p0)
            now = time.perf_counter()
            if now - t_start >= seconds or now > self.deadline:
                break
        self.walls.extend(walls)
        return walls


def tail(values):
    """(value, percentile, n): the highest percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def environment(workload, seed):
    import mpmath
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": _blas_threads(numpy),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads(numpy):
    """Threads the bundled OpenBLAS reports, else the pinned setting."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return "pinned %s" % os.environ["OPENBLAS_NUM_THREADS"]


def end_to_end(runner, setup_samples):
    t_val, t_pct, t_n = tail(runner.latencies)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(runner.walls),
        "item_p50_ms": 1e3 * statistics.median(runner.latencies),
        "item_tail_ms": 1e3 * t_val,
        "work_per_s": runner.work / sum(runner.walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    unit = "zero searches" if runner.built.name == "certify" else "start-steps"
    notes = [
        "setup_s is the median of %d set-ups: %s" % (
            len(setup_samples), ", ".join("%.4f" % s for s in setup_samples)),
        "wall_s is the median of %d passes over %d items" % (len(runner.walls), len(runner.built.cases)),
        "item_tail_ms is p%.2f of %d items" % (t_pct, t_n),
        "work_per_s counts %s (%d over %.3f s)" % (unit, runner.work, sum(runner.walls)),
    ]
    for group, samples in sorted(runner.groups.items()):
        latency = statistics.median(s[0] for s in samples)
        work = statistics.median(s[1] for s in samples)
        per_unit = " = %.2f us per unit of work" % (1e6 * latency / work) if work else ""
        notes.append("group %-36s %5d items, median %9.3f ms, work %9.0f%s"
                     % (group, len(samples), 1e3 * latency, work, per_unit))
    return metrics, notes


def per_layer(tracer, runner, traced_walls, untraced_walls):
    passes = len(traced_walls)
    calls, total, self_time = tracer.calls, tracer.total, tracer.self_time

    def per_pass(value):
        return value / passes

    def sum_over(table, names):
        return sum(table.get(n, 0) for n in names)

    bounds = [n for n in calls if n.startswith("flows.bound_")]
    steps = tracer.steps
    field_calls = calls.get("flows.vector_field", 0)
    correct_calls = calls.get("caputo.CaputoChannel.correct", 0)
    zero_calls = calls.get("special.ml_first_positive_zero", 0)
    eval_us = sorted(1e6 * s for s in tracer.eval_seconds)
    eval_tail = tail(eval_us) if eval_us else (0.0, 100.0, 0)
    layer_self = {layer: tracer.layer_self(layer) for layer in ("problems", "flows", "sim", "caputo",
                                                                   "special", "cli")}
    traced_wall = statistics.median(traced_walls)
    untraced_wall = statistics.median(untraced_walls)
    mean_traced_wall = sum(traced_walls) / passes
    metrics = {
        "problems.grad_calls": per_pass(calls.get("problems.gradient", 0)),
        "problems.grad_s": per_pass(total.get("problems.gradient", 0.0)),
        "problems.self_s": per_pass(layer_self["problems"]),
        "flows.field_calls": per_pass(field_calls),
        "flows.field_self_s": per_pass(self_time.get("flows.vector_field", 0.0)),
        "flows.bound_calls": per_pass(sum_over(calls, bounds)),
        "flows.bound_s": per_pass(sum_over(total, bounds)),
        "flows.self_s": per_pass(layer_self["flows"]),
        "sim.steps": per_pass(steps),
        "sim.self_s": per_pass(layer_self["sim"]),
        "sim.self_us_per_step": 1e6 * layer_self["sim"] / steps if steps else 0.0,
        "sim.field_calls_per_step": field_calls / steps if steps else 0.0,
        "sim.substepped_steps": per_pass(tracer.substepped_steps),
        "sim.max_substeps": tracer.max_substeps,
        "caputo.correct_calls": per_pass(correct_calls),
        "caputo.push_calls": per_pass(calls.get("caputo.CaputoChannel.push", 0)),
        "caputo.correct_s": per_pass(total.get("caputo.CaputoChannel.correct", 0.0)),
        "caputo.correct_us_per_call": (1e6 * total.get("caputo.CaputoChannel.correct", 0.0) / correct_calls
                                       if correct_calls else 0.0),
        "caputo.memory_len_max": tracer.memory_len_max,
        "caputo.bytes_computed": per_pass(tracer.bytes_computed),
        "caputo.self_s": per_pass(layer_self["caputo"]),
        "special.zero_calls": per_pass(zero_calls),
        "special.zero_s": per_pass(total.get("special.ml_first_positive_zero", 0.0)),
        "special.evals_per_zero": tracer.zero_evals / zero_calls if zero_calls else 0.0,
        "special.ml_eval_calls": per_pass(calls.get("special.ml_eval", 0)),
        "special.ml_eval_s": per_pass(total.get("special.ml_eval", 0.0)),
        "special.ml_eval_us_p50": statistics.median(eval_us) if eval_us else 0.0,
        "special.ml_eval_us_tail": eval_tail[0],
        "special.self_s": per_pass(layer_self["special"]),
        "cli.self_s": per_pass(layer_self["cli"]),
        "cli.bytes_written": per_pass(runner.bytes_written),
        "cli.rows_written": per_pass(runner.rows_written),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.residual_s": mean_traced_wall - sum(per_pass(v) for v in layer_self.values()),
    }
    notes = [
        "per-layer figures are per pass, averaged over %d traced passes" % passes,
        "layer self times %s plus trace.residual_s %.4f (harness, checks, tracer) = mean traced pass %.4f s"
        % (" + ".join("%s %.4f" % (k, per_pass(v)) for k, v in layer_self.items()),
           metrics["trace.residual_s"], mean_traced_wall),
        "special.ml_eval_us_tail is p%.4f of %d evaluations" % (eval_tail[1], eval_tail[2])
        if eval_us else "special.ml_eval is not called on this workload",
        "caputo.bytes_computed is computed, not measured: 16 bytes per stored sample per correct",
    ]
    for parent, name, n, secs in tracer.span_table():
        notes.append("span %-34s <- %-34s calls %10.0f  total %9.4f s"
                     % (name, parent, per_pass(n), per_pass(secs)))
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description="gradflows benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gradflows", "__init__.py")):
        print("error: no gradflows sources at %s; run from a full checkout" % SRC, file=sys.stderr)
        return 2

    setup_s, gf, built = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(built)

    if args.trace:
        import tracing

        untraced = runner.run_for(args.seconds / 2.0)
        tracer = tracing.Tracer()
        tracer.install(gf)
        for problem in built.problems:
            tracer.adopt(problem)
        runner.bytes_written = runner.rows_written = 0  # per-layer counts cover traced passes only
        tracer.enabled = True
        traced = runner.run_for(args.seconds / 2.0)
        tracer.enabled = False
        metrics, notes = per_layer(tracer, runner, traced, untraced)
        spec = PER_LAYER
    else:
        samples = [setup_s] + [setup_in_child(args.workload, args.seed)
                               for _ in range(SETUP_SAMPLES - 1)]
        runner.run_for(args.seconds)
        metrics, notes = end_to_end(runner, samples)
        spec = END_TO_END

    if args.workload == "starts" and runner.summaries:
        notes.extend(built.workload.audit(runner.summaries))
    notes.append("failed_frac %.6f (%d of %d items)" % (
        runner.failed / max(runner.attempted, 1), runner.failed, runner.attempted))
    for line in notes:
        print("note " + line)
    for err in runner.errors:
        print("failure " + err, file=sys.stderr)
    for name, unit in spec:
        print("metric %-28s %.6g %s" % (name, metrics[name], unit))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
