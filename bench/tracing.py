"""Layer tracing from outside the package.

The tracer wraps the public functions of each gradflows module (the names in
its ``__all__``, plus ``cli.main``) and the public methods of
``CaputoChannel``, wherever those objects are bound in the package's
namespaces.  Each call becomes a span with a name, a duration and the span
that caused it.  Spans are aggregated in memory by (parent, name) rather than
stored one by one, since a single pass makes millions of them; a layer's self
time is its spans' durations minus the time covered by their child spans.

Problem gradients are instance attributes, not module functions, so the
problem factories are wrapped to hand out problems whose gradient is traced,
and problems built before installation are adopted explicitly.

Nothing is patched until ``install`` runs, so untraced runs pay nothing.
"""

import importlib
import inspect
from array import array
from time import perf_counter

LAYERS = ("problems", "flows", "sim", "caputo", "special", "cli")
# public methods of the Caputo channel, the one stateful object with a hot path
CHANNEL_METHODS = ("correct", "push", "predict")

GRADIENT = "problems.gradient"
INTEGRATE = "sim.integrate"
CORRECT = "caputo.CaputoChannel.correct"
ZERO = "special.ml_first_positive_zero"
ML_EVAL = "special.ml_eval"
# bytes read per stored sample by one corrector dot product: a weight and a sample
BYTES_PER_SAMPLE = 16


class Tracer:
    """Aggregating span recorder; enable it only around the traced passes."""

    def __init__(self):
        self.enabled = False
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.edges = {}
        self._stack = []
        self.eval_seconds = array("d")
        self.zero_evals = 0
        self.steps = 0
        self.substepped_steps = 0
        self.max_substeps = 0
        self.memory_len_max = 0
        self.bytes_computed = 0
        self._default_step = None
        self._after = {
            "problems.quadratic_problem": self._after_factory,
            "problems.zakharov_problem": self._after_factory,
            "problems.custom_problem": self._after_factory,
            INTEGRATE: self._after_integrate,
            CORRECT: self._after_correct,
            ML_EVAL: self._after_ml_eval,
        }

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Patch every public layer function bound anywhere in the package."""
        modules = {layer: importlib.import_module(package.__name__ + "." + layer) for layer in LAYERS}
        self._default_step = modules["sim"].SimOptions().step
        wrapped = {}
        for layer, module in modules.items():
            names = getattr(module, "__all__", None) or ("main",)
            for name in names:
                obj = getattr(module, name, None)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(layer + "." + name, obj))
                elif inspect.isclass(obj) and name == "CaputoChannel":
                    for method in CHANNEL_METHODS:
                        fn = obj.__dict__[method]
                        setattr(obj, method, self._wrap("caputo.CaputoChannel." + method, fn))
        for namespace in [package, *modules.values()]:
            for attr, value in list(vars(namespace).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(namespace, attr, hit[1])

    def adopt(self, problem):
        """Trace the gradient oracle of a problem built before installation."""
        object.__setattr__(problem, "gradient", self._wrap(GRADIENT, problem.gradient))
        return problem

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn):
        after = self._after.get(name)
        stack = self._stack
        record = self._record

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                record(name, dt, frame[1])
            if after is not None:
                after(dt, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _record(self, name, dt, child_time):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][1] += dt
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dt
        self.self_time[name] = self.self_time.get(name, 0.0) + dt - child_time
        edge = self.edges.get((parent, name))
        if edge is None:
            self.edges[(parent, name)] = [1, dt]
        else:
            edge[0] += 1
            edge[1] += dt

    def _inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    # -- per-span counters ------------------------------------------------

    def _after_factory(self, dt, args, kwargs, problem):
        self.adopt(problem)

    def _after_integrate(self, dt, args, kwargs, traj):
        opts = args[3] if len(args) > 3 else kwargs.get("opts")
        step = opts.step if opts is not None else self._default_step
        self.steps += int(round(traj.times[-1] / step))
        diag = traj.diagnostics
        self.substepped_steps += int(diag.get("substepped_steps", 0))
        self.max_substeps = max(self.max_substeps, int(diag.get("max_substeps", 1)))

    def _after_correct(self, dt, args, kwargs, result):
        n = len(args[0])
        self.memory_len_max = max(self.memory_len_max, n)
        self.bytes_computed += BYTES_PER_SAMPLE * n

    def _after_ml_eval(self, dt, args, kwargs, result):
        self.eval_seconds.append(dt)
        if self._inside(ZERO):
            self.zero_evals += 1

    # -- summaries --------------------------------------------------------

    def layer_self(self, layer):
        prefix = layer + "."
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))

    def span_table(self):
        """Rows (parent, name, calls, total seconds), heaviest first."""
        rows = [(p or "-", n, c, t) for (p, n), (c, t) in self.edges.items()]
        return sorted(rows, key=lambda r: -r[3])
