"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps each layer's public functions and replaces every
reference to them in the loaded ``nilflow`` modules, so calls through
``from .torus import solve_small_divisor`` are traced as well.  Nothing in
the package is edited.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by its child spans.  Spans are aggregated in memory by name as
they close: a call count and a self-time sum.  Computed counts (modes,
Hermite coefficients, lattice points, flops) are derived from the arguments
and results; they are computed, not measured.
"""

import functools
import sys
import threading
import time

# layer functions traced, by module; the metric prefix is the module name
LAYERS = {
    "corpus": ["torus_corpus", "cochain_corpus", "nil_corpus", "vf_cocycle_member"],
    "torus": ["solve_small_divisor", "sobolev_norm", "directional_derivative",
              "kam_iterate", "kam_step", "verify_conjugacy"],
    "nilrep": ["apply_X1", "apply_X2", "nil_sobolev_norm", "cg_decay_report"],
    "cohomology": ["delta1_star_split", "vf_coboundary_solve", "rep_spectrum",
                   "gh_certificate", "joint_kernel_dim", "laplacian_solve"],
    "diophantine": ["fit_witness", "simultaneous_witness", "min_small_divisor"],
    "rigidity": ["newton_step", "nil_multiply", "vf_bracket", "smoothing_truncate"],
    "algebra": ["const_cohomology_basis"],
}
CONSTRUCTOR = "torus.TorusFunction.init"
SUBCOMMANDS = ["solve-coboundary", "split", "cg-decay", "spectrum", "gh-report",
               "kernel-dim", "witness", "constant-cohomology", "kam", "rigidity-step"]
COUNTS = ["corpus.members", "torus.modes", "torus.kam_steps", "nilrep.hermite_coeffs",
          "cohomology.rep_spectrum.flops_computed", "diophantine.lattice_points"]
COMPUTED = ["torus.modes", "nilrep.hermite_coeffs",
            "cohomology.rep_spectrum.flops_computed", "diophantine.lattice_points"]


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _toral_modes(f):
    coeffs = getattr(f, "coeffs", None)  # vector fields recurse per component
    return ("torus.modes", len(coeffs)) if coeffs is not None else None


def _hermite(F):
    return "nilrep.hermite_coeffs", sum(len(v) for v in F.reps.values())


def _lattice(n, K):
    return "diophantine.lattice_points", (2 * K + 1) ** n - 1


def _simultaneous_dim(thetas):
    # a flat vector of thetas is one column: one integer multiplier
    shape = getattr(thetas, "shape", None) or (len(thetas),)
    return 1 if len(shape) == 1 else shape[1]


# name -> counter(args, kwargs, result) -> (count name, amount) or None
COUNTERS = {
    "corpus.torus_corpus": lambda a, k, r: ("corpus.members", len(r)),
    "corpus.cochain_corpus": lambda a, k, r: ("corpus.members", len(r)),
    "corpus.nil_corpus": lambda a, k, r: ("corpus.members", len(r)),
    "corpus.vf_cocycle_member": lambda a, k, r: ("corpus.members", 1),
    "torus.solve_small_divisor": lambda a, k, r: _toral_modes(_arg(a, k, 1, "f")),
    "torus.directional_derivative": lambda a, k, r: _toral_modes(_arg(a, k, 1, "f")),
    "torus.sobolev_norm": lambda a, k, r: _toral_modes(_arg(a, k, 0, "f")),
    "torus.kam_step": lambda a, k, r: ("torus.kam_steps", 1),
    "nilrep.apply_X1": lambda a, k, r: _hermite(_arg(a, k, 1, "F")),
    "nilrep.apply_X2": lambda a, k, r: _hermite(_arg(a, k, 1, "F")),
    "nilrep.nil_sobolev_norm": lambda a, k, r: _hermite(_arg(a, k, 0, "F")),
    # two complex M x M products (8 M^3 real flops each) and a Hermitian
    # eigenvalue solve (about 16/3 M^3 real flops for the tridiagonal reduction)
    "cohomology.rep_spectrum": lambda a, k, r: (
        "cohomology.rep_spectrum.flops_computed", (16 + 16 / 3) * _arg(a, k, 2, "M") ** 3),
    "diophantine.fit_witness": lambda a, k, r: _lattice(len(_arg(a, k, 0, "a")), _arg(a, k, 2, "K")),
    "diophantine.min_small_divisor": lambda a, k, r: _lattice(len(_arg(a, k, 0, "a")), _arg(a, k, 1, "K")),
    "diophantine.simultaneous_witness": lambda a, k, r: _lattice(
        _simultaneous_dim(_arg(a, k, 0, "thetas")), _arg(a, k, 2, "K")),
}


def metric_names():
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = []
    for module, funcs in LAYERS.items():
        for func in funcs:
            names += ["%s.%s.calls" % (module, func), "%s.%s.self_s" % (module, func)]
        if module == "torus":
            names += [CONSTRUCTOR + ".calls", CONSTRUCTOR + ".self_s"]
    names += COUNTS
    names += ["cli.run.%s.self_s" % sub for sub in SUBCOMMANDS]
    names += ["parallel.ordered_map.wall_s", "parallel.ordered_map.busy_s",
              "parallel.ordered_map.efficiency"]
    return names


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {name: 0 for name in COUNTS}
        self.pool_wall = 0.0
        self.pool_busy = 0.0
        self.pool_capacity = 0.0  # sum of wall time x workers

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name, self_time, count=None):
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + self_time
            if count is not None:
                self.counts[count[0]] += count[1]

    def span(self, name, fn, counter=None):
        """Wrap fn so each call is a span named name."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            result = done = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                tracer._close(name, dt - frame[0],
                              counter(args, kwargs, result) if counter and done else None)

        return wrapper

    def run_op(self, subcommand, fn, *args):
        """Root span of one CLI run, attributed to cli.run.<subcommand>."""
        self._local.root = "cli.run." + subcommand
        return self.span(self._local.root, fn)(*args)

    def _ordered_map(self, original, worker_count):
        tracer = self

        def ordered_map(fn, items):
            items = list(items)
            workers = min(worker_count(), len(items)) if items else 1
            root = getattr(tracer._local, "root", "cli.run")
            busy = []  # CPU time of each item on its thread

            def item(x):
                # an item is detached from the calling thread's stack; its
                # body is the runner's closure in cli, so its self time goes
                # to the CLI root span
                stack = tracer._stack()
                saved = stack[:]
                del stack[:]
                frame = [0.0]
                stack.append(frame)
                t0 = time.perf_counter()
                c0 = time.thread_time()
                try:
                    return fn(x)
                finally:
                    busy.append(time.thread_time() - c0)
                    stack[:] = saved
                    tracer._close(root, (time.perf_counter() - t0) - frame[0])

            stack = tracer._stack()
            t0 = time.perf_counter()
            try:
                return original(item, items)
            finally:
                wall = time.perf_counter() - t0
                if stack:
                    stack[-1][0] += wall
                with tracer._lock:
                    tracer.pool_wall += wall
                    tracer.pool_busy += sum(busy)
                    tracer.pool_capacity += wall * workers

        return ordered_map

    def install(self):
        """Wrap the layer functions in every loaded nilflow module."""
        import nilflow  # noqa: F401  (loads every layer module)
        from nilflow import _parallel, torus

        replace = {}
        for module, funcs in LAYERS.items():
            mod = sys.modules["nilflow." + module]
            for func in funcs:
                name = "%s.%s" % (module, func)
                original = getattr(mod, func)
                replace[id(original)] = self.span(name, original, COUNTERS.get(name))
        original = _parallel.ordered_map
        replace[id(original)] = self._ordered_map(original, _parallel.worker_count)
        mods = [m for n, m in list(sys.modules.items())
                if n == "nilflow" or n.startswith("nilflow.")]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and callable(value):
                    setattr(mod, attr, replace[id(value)])
        cls = torus.TorusFunction
        cls.__init__ = self.span(CONSTRUCTOR, cls.__init__)

    def metrics(self):
        out = {}
        for module, funcs in LAYERS.items():
            for func in funcs:
                name = "%s.%s" % (module, func)
                out[name + ".calls"] = self.calls.get(name, 0)
                out[name + ".self_s"] = self.self_s.get(name, 0.0)
        out[CONSTRUCTOR + ".calls"] = self.calls.get(CONSTRUCTOR, 0)
        out[CONSTRUCTOR + ".self_s"] = self.self_s.get(CONSTRUCTOR, 0.0)
        out.update(self.counts)
        for sub in SUBCOMMANDS:
            out["cli.run.%s.self_s" % sub] = self.self_s.get("cli.run." + sub, 0.0)
        out["parallel.ordered_map.wall_s"] = self.pool_wall
        out["parallel.ordered_map.busy_s"] = self.pool_busy
        out["parallel.ordered_map.efficiency"] = (
            self.pool_busy / self.pool_capacity if self.pool_capacity else 0.0
        )
        return out
