"""Span tracer that wraps esobank's functions from outside the package.

``Tracer.install()`` replaces the functions and methods listed in ``PLAN``
with wrappers that record spans; ``uninstall()`` puts the originals back.
Nothing in ``src/esobank`` is edited: the wrappers are set on the classes and
on every esobank module that holds a reference to a wrapped function
(``from .integrate import rk4_step`` binds the name in four modules, so all
four bindings are replaced).

Each thread keeps its own span stack and its own tables, so the two worker
threads of ``harness.sweep`` never write to shared counters; the tables are
merged when the run ends. Spans are aggregated in memory per edge (caller
span -> callee span): calls, inclusive time and self time, where self time
is the span's duration minus the durations of its child spans. Per-call
durations are kept for the few spans whose percentiles are reported.
Nothing is written until ``summary()`` is called.

Spans are timed on the wall clock. Where threads take turns on the
interpreter lock (the two ``sweep`` workers), a thread's open spans also
count the time it waits for the lock; ``summary()`` therefore scales each
thread's times by the CPU time over the wall time of its outermost spans,
read with ``time.thread_time_ns`` at that depth only. Per-call durations are
left on the wall clock, so their tails show the lock waits.

Three kinds of wrapper:

``span``
    Timed on every call.
``inline``
    Timed on every call, and recorded under a separate name per caller
    (``integrate.rk4_step@plant.RfcPlant.step``). RK4 runs the derivative
    callbacks of the layer that called it, so ``layers.py`` can count that
    time to the caller's layer and still report RK4 on its own.
``leaf``
    For hot functions that call no other traced span (reference
    evaluation, the z-filter output, the control law). Every call is
    counted, but only one outermost call in ``LEAF_SAMPLE`` reads the clock.
    An untimed call is charged the running mean of the timed calls of the
    same function in the same thread, and that estimate is taken out of the
    caller's self time, as a measured child would be. Calls made from inside
    a leaf (``MoveReference.value`` calls ``derivative``) are counted only;
    their time is part of the outer call.

A wrapper costs time of its own, part inside the callee's measured interval
and part in the caller's. ``calibrate()`` measures both parts for each kind
on no-op functions, and ``summary(overhead=...)`` takes them out of every
span's self and inclusive time, so that the self-time shares are those of
the program rather than of the wrappers. The wall time of the traced
iteration is reported as measured; the overhead is its excess over the
untraced iterations.
"""

from __future__ import annotations

import array
import importlib
import statistics
import threading
import time

# One outermost call in LEAF_SAMPLE of a leaf function is timed. A prime, so
# that the sampled calls do not lock onto one position of a per-period
# calling pattern (the ideal trajectory makes 4 calls per period, an RK4 step
# 4 derivative evaluations).
LEAF_SAMPLE = 17

_ROOT = 0
# Edge keys pack (caller id, callee id) into one int: cheaper to hash than a
# tuple on every span.
_EDGE_SHIFT = 12
_MAX_DEPTH = 1024

# (module, attribute path, kind, flags). kind is "span", "inline" or "leaf";
# flags may contain "setup" (construction work, summed as harness.setup_s),
# "durations" (per-call durations kept for percentiles) and "instances" (on
# __init__: the object and a shallow copy of its attributes are kept, so
# counts can be read from it after the run).
_REFERENCE_METHODS = ("value", "derivative", "derivatives")
_REFERENCE_CLASSES = (
    "ConstantReference", "PolynomialReference", "MoveReference",
    "SinusoidReference",
)

PLAN = (
    # plant
    ("plant", "ChainPlant.__init__", "span", ("setup",)),
    ("plant", "RfcPlant.__init__", "span", ("setup",)),
    ("plant", "disturbance_from_config", "span", ("setup",)),
    ("plant", "ChainPlant.step", "span", ("durations",)),
    ("plant", "RfcPlant.step", "span", ("durations",)),
    ("plant", "ChainPlant.total_disturbance", "leaf", ()),
    ("plant", "RfcPlant.total_disturbance", "leaf", ()),
    # observer
    ("observer", "Leso.__init__", "span", ("setup",)),
    ("observer", "Leso.step", "span", ("durations",)),
    ("observer", "bound_tail_coefficient", "span", ()),
    ("observer", "bound_tail_max", "span", ()),
    ("observer", "error_contraction_matrix", "span", ()),
    ("observer", "estimation_error_bound", "span", ()),
    ("observer", "scaled_error_bound", "span", ()),
    ("observer", "contraction_norm_profile", "span", ()),
    # evaluator
    ("evaluator", "ZFilter.__init__", "span", ("setup",)),
    ("evaluator", "ZFilter.advance", "span", ()),
    ("evaluator", "ZFilter.output", "leaf", ()),
    ("evaluator", "SwitchIndex.__init__", "span", ("setup", "instances")),
    ("evaluator", "SwitchIndex.update", "span", ()),
    ("evaluator", "SwitchIndex.reselect", "span", ()),
    ("evaluator", "companion_matrix", "span", ()),
    ("evaluator", "initial_state_gap", "span", ()),
    ("evaluator", "tracking_bound_coefficient", "span", ()),
    ("evaluator", "tracking_error_bound", "span", ()),
    # controller
    *(
        ("controller", f"{cls}.{meth}", "leaf", ())
        for cls in _REFERENCE_CLASSES
        for meth in _REFERENCE_METHODS
    ),
    ("controller", "reference_from_config", "span", ("setup",)),
    ("controller", "reference_sup_bound", "span", ()),
    ("controller", "IdealTrajectory.__init__", "span", ("setup", "instances")),
    ("controller", "IdealTrajectory.step", "span", ()),
    ("controller", "adrc_law", "leaf", ()),
    ("controller", "SingleEsoAdrc.__init__", "span", ("setup", "instances")),
    ("controller", "Supervisor.__init__", "span", ("setup", "instances")),
    ("controller", "SingleEsoAdrc.evaluate", "span", ("durations",)),
    ("controller", "Supervisor.evaluate", "span", ("durations",)),
    # harness
    ("harness", "ScenarioConfig.from_dict", "span", ("setup",)),
    ("harness", "make_preset", "span", ("setup",)),
    ("harness", "build_plant", "span", ("setup",)),
    ("harness", "build_char", "span", ("setup",)),
    ("harness", "build_bank", "span", ("setup",)),
    ("harness", "_make_runtime", "span", ("setup",)),
    ("harness", "_simulate", "span", ()),
    ("harness", "run_scenario", "span", ()),
    ("harness", "run_single_law", "span", ()),
    ("harness", "sweep", "span", ("durations",)),
    ("harness", "iae", "span", ()),
    ("harness", "switch_transient_stats", "span", ()),
    ("harness", "SimulationTrace.__init__", "span", ()),
    ("harness", "SimulationTrace.append", "span", ()),
    ("harness", "SimulationTrace.to_csv_text", "span", ()),
    ("harness", "SimulationTrace.write_csv", "span", ()),
    # verify
    ("verify", "verify_suite", "span", ()),
    ("verify", "check_gain_expansion", "span", ()),
    ("verify", "check_residue_reconstruction", "span", ()),
    ("verify", "check_surrogate_identity", "span", ()),
    ("verify", "check_gap_decay_rate", "span", ()),
    ("verify", "check_estimation_error_bounds", "span", ()),
    ("verify", "check_tracking_error_bound", "span", ()),
    ("verify", "identity_probe", "span", ()),
    ("verify", "decay_probe", "span", ()),
    ("verify", "run_bound_audit", "span", ()),
    ("verify", "run_bank_bound_audit", "span", ()),
    ("verify", "random_pole_spec", "span", ()),
    ("verify", "residue_reconstruction_error", "span", ()),
    # polynomials
    ("polynomials", "char_poly", "span", ("setup",)),
    ("polynomials", "leso_gains", "span", ()),
    ("polynomials", "build_g_family", "span", ("setup",)),
    ("polynomials", "residues", "span", ()),
    ("polynomials", "reconstruct_fraction", "span", ()),
    ("polynomials", "decay_polys", "span", ()),
    ("polynomials", "ResidueTable.for_gain_family", "span", ("setup",)),
    # integrate
    ("integrate", "rk4_step", "inline", ()),
)

MODULES = (
    "plant", "observer", "evaluator", "controller", "harness", "verify",
    "polynomials", "integrate",
)
# Modules that only hold references to wrapped functions.
_HOLDERS = ("cli",)


class _Ctx:
    """One thread's span stack and tables."""

    __slots__ = ("depth", "ids", "child", "edges", "calls", "outer", "nested",
                 "tsum", "tcount", "mean", "leaf_outer", "durations",
                 "instances", "setup_depth", "setup_ns", "root_cpu",
                 "root_wall", "main")

    def __init__(self, size, main):
        # The span stack as two preallocated columns indexed by depth (0 is
        # the thread's root): the id of the open span and the time its
        # finished children took. A list per span would be garbage the
        # collector has to chase.
        self.depth = 0
        self.ids = [_ROOT] * _MAX_DEPTH
        self.child = [0] * _MAX_DEPTH
        self.edges = {}
        self.calls = [0] * size    # leaf calls, nested ones included
        self.outer = [0] * size    # outermost leaf calls
        self.nested = [0] * size   # nested leaf calls inside each outer leaf
        self.tsum = [0] * size
        self.tcount = [0] * size
        self.mean = [0.0] * size
        self.leaf_outer = _ROOT
        self.durations = {}
        self.instances = []
        self.setup_depth = 0
        self.setup_ns = 0
        self.root_cpu = 0
        self.root_wall = 0
        self.main = main


class Tracer:
    def __init__(self, package=None):
        self.package = package
        self.names = ["<root>"]
        self.kinds = [None]
        self._inline = {}  # inline base id -> [per-caller id, indexed by caller]
        self._local = threading.local()
        self._ctxs = []
        self._lock = threading.Lock()
        self._patches = []

    def _add(self, name, kind):
        self.names.append(name)
        self.kinds.append(kind)
        return len(self.names) - 1

    def _new_ctx(self):
        ctx = _Ctx(len(self.names),
                   threading.current_thread() is threading.main_thread())
        with self._lock:
            self._ctxs.append(ctx)
        self._local.ctx = ctx
        return ctx

    # -- wrappers ----------------------------------------------------------

    def _span(self, nid, fn, setup=False, keep_durations=False,
              keep_instances=False, per_caller=None):
        local, new_ctx, clock = self._local, self._new_ctx, time.perf_counter_ns
        cpu_clock = time.thread_time_ns

        def span(*args, **kwargs):
            try:
                ctx = local.ctx
            except AttributeError:
                ctx = new_ctx()
            ids, child = ctx.ids, ctx.child
            dep = ctx.depth
            pid = ids[dep]
            me = per_caller[pid] if per_caller else nid
            dep += 1
            ids[dep] = me
            child[dep] = 0
            ctx.depth = dep
            if setup:
                ctx.setup_depth += 1
            if dep == 1:
                cpu0 = cpu_clock()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                if dep == 1:
                    ctx.root_cpu += cpu_clock() - cpu0
                    ctx.root_wall += d
                ctx.depth = dep - 1
                child[dep - 1] += d
                key = pid << _EDGE_SHIFT | me
                edge = ctx.edges.get(key)
                if edge is None:
                    edge = ctx.edges[key] = [0, 0, 0]
                edge[0] += 1
                edge[1] += d
                edge[2] += d - child[dep]
                if setup:
                    ctx.setup_depth -= 1
                    if not ctx.setup_depth:
                        ctx.setup_ns += d
                if keep_durations:
                    durs = ctx.durations.get(me)
                    if durs is None:
                        durs = ctx.durations[me] = array.array("q")
                    durs.append(d)
                if keep_instances:
                    ctx.instances.append((me, args[0], dict(vars(args[0]))))

        return span

    def _leaf(self, nid, fn):
        local, new_ctx, clock = self._local, self._new_ctx, time.perf_counter_ns

        def leaf(*args, **kwargs):
            try:
                ctx = local.ctx
            except AttributeError:
                ctx = new_ctx()
            ctx.calls[nid] += 1
            if ctx.leaf_outer:
                ctx.nested[ctx.leaf_outer] += 1
                return fn(*args, **kwargs)
            dep = ctx.depth
            key = ctx.ids[dep] << _EDGE_SHIFT | nid
            edge = ctx.edges.get(key)
            if edge is None:
                edge = ctx.edges[key] = [0, 0, 0]
            edge[0] += 1
            ctx.outer[nid] += 1
            ctx.leaf_outer = nid
            try:
                if ctx.outer[nid] % LEAF_SAMPLE != 1:
                    est = ctx.mean[nid]
                    edge[1] += est
                    edge[2] += est
                    ctx.child[dep] += est
                    return fn(*args, **kwargs)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = clock() - t0
                    edge[1] += d
                    edge[2] += d
                    ctx.child[dep] += d
                    ctx.tsum[nid] += d
                    ctx.tcount[nid] += 1
                    ctx.mean[nid] = ctx.tsum[nid] / ctx.tcount[nid]
            finally:
                ctx.leaf_outer = _ROOT

        return leaf

    def _wrap(self, nid, fn, kind, flags=()):
        if kind == "leaf":
            wrapped = self._leaf(nid, fn)
        else:
            wrapped = self._span(nid, fn, "setup" in flags,
                                 "durations" in flags, "instances" in flags,
                                 self._inline.get(nid))
        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", "wrapped")
        wrapped.__qualname__ = getattr(fn, "__qualname__", wrapped.__name__)
        return wrapped

    # -- installation ------------------------------------------------------

    def _module(self, short):
        return importlib.import_module(f"{self.package.__name__}.{short}")

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [self.package] + [self._module(m) for m in MODULES + _HOLDERS]
        ids = [(entry, self._add(f"{entry[0]}.{entry[1]}", entry[2]))
               for entry in PLAN]
        callers = list(range(len(self.names)))
        for (_, path, kind, _), nid in ids:
            if kind == "inline":
                self._inline[nid] = [
                    self._add(f"{self.names[nid]}@{self.names[c]}", "span")
                    for c in callers
                ]
        for (short, path, kind, flags), nid in ids:
            module = self._module(short)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(nid, fn, kind, flags)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
            else:
                fn = getattr(module, path)
                wrapped = self._wrap(nid, fn, kind, flags)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, attr, fn))
                            setattr(mod, attr, wrapped)
                        elif _holds(value, fn):
                            # a registry such as verify.ALL_CHECKS, a tuple
                            # of (name, function) pairs
                            self._patches.append((mod, attr, value))
                            setattr(mod, attr, _replace(value, fn, wrapped))

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self, overhead=None):
        """Merge every thread's tables.

        Returns per-name stats (calls, incl_ns, self_ns and overhead_ns, the
        wrapper cost inside one call), per-edge stats keyed by (caller id,
        callee id), per-name duration arrays, the recorded instances, the
        setup time and each thread's own edges. Each thread's times are
        scaled to its CPU time (see the module docstring). With ``overhead``
        (from ``calibrate``), the wrappers' own cost is taken out of the self
        and inclusive times of names and edges; per-call durations stay on
        the wall clock and the setup time keeps the wrappers' cost.
        """
        size = len(self.names)
        mask = (1 << _EDGE_SHIFT) - 1
        calls = [0] * size
        nested = [0] * size
        edges = {}
        durations = {}
        instances = []
        setup_ns = 0
        threads = []
        with self._lock:
            ctxs = list(self._ctxs)
        for ctx in ctxs:
            # A thread that waits for the interpreter lock keeps its spans
            # open while another thread runs; spread that wait over them in
            # proportion to their time by scaling this thread's times to its
            # CPU time (1 for a thread that never waits).
            scale = ctx.root_cpu / ctx.root_wall if ctx.root_wall else 1.0
            mine = {}
            for key, (n, d, s) in ctx.edges.items():
                d, s = d * scale, s * scale
                pid, nid = key >> _EDGE_SHIFT, key & mask
                mine[(pid, nid)] = (n, d, s)
                acc = edges.setdefault((pid, nid), [0, 0.0, 0.0])
                acc[0] += n
                acc[1] += d
                acc[2] += s
                if self.kinds[nid] != "leaf":
                    calls[nid] += n
            for nid in range(size):
                if self.kinds[nid] == "leaf":
                    calls[nid] += ctx.calls[nid]
                nested[nid] += ctx.nested[nid]
            for nid, durs in ctx.durations.items():
                durations.setdefault(nid, array.array("q")).extend(durs)
            instances += [(self.names[nid], obj, attrs)
                          for nid, obj, attrs in ctx.instances]
            setup_ns += ctx.setup_ns * scale
            threads.append({"main": ctx.main, "edges": mine})
        inside = _correct(edges, nested, self.kinds, overhead) if overhead \
            else [0.0] * size
        incl = [0.0] * size
        own = [0.0] * size
        for (pid, nid), (_, d, s) in edges.items():
            incl[nid] += d
            own[nid] += s
        by_name = {
            self.names[i]: {"calls": calls[i], "incl_ns": incl[i],
                            "self_ns": own[i], "overhead_ns": inside[i]}
            for i in range(1, size)
        }
        return {
            "names": self.names,
            "by_name": by_name,
            "edges": edges,
            "durations": {self.names[i]: d for i, d in durations.items()},
            "instances": instances,
            "setup_ns": setup_ns,
            "threads": threads,
        }


def _holds(value, fn):
    return isinstance(value, tuple) and any(
        isinstance(item, tuple) and any(x is fn for x in item)
        for item in value)


def _replace(value, fn, wrapped):
    return tuple(
        tuple(wrapped if x is fn else x for x in item)
        if isinstance(item, tuple) else item
        for item in value)


def _correct(edges, nested, kinds, overhead):
    """Take the wrappers' cost out of the merged edges, in place.

    Each call of a span or leaf costs ``in`` ns inside its own measured
    interval and ``out`` ns in its caller's; each nested leaf call costs
    ``nested`` ns inside the outer leaf. Self times lose the overhead spent
    directly in them. Inclusive times also lose the overhead spent in their
    descendants, shared out over a callee's callers by call count.
    Returns the overhead inside one call of each name.
    """
    size = len(kinds)
    calls = [0] * size
    children = [[] for _ in range(size)]
    for (pid, nid), (n, _, _) in edges.items():
        calls[nid] += n
        children[pid].append((nid, n))

    def cost(nid):
        return overhead["leaf" if kinds[nid] == "leaf" else "span"]

    direct = [nested[i] * overhead["nested"] for i in range(size)]
    for (pid, nid), (n, _, _) in edges.items():
        direct[nid] += n * cost(nid)["in"]
        direct[pid] += n * cost(nid)["out"]
    # overhead inside one call of nid, descendants included
    inside = [None] * size

    def inside_per_call(nid, seen=()):
        if inside[nid] is None:
            total = direct[nid]
            for child, n in children[nid]:
                if child not in seen:
                    total += n * inside_per_call(child, seen + (nid,))
            inside[nid] = total / calls[nid] if calls[nid] else 0.0
        return inside[nid]

    for (pid, nid), edge in edges.items():
        n = edge[0]
        share = n / calls[nid] if calls[nid] else 0.0
        edge[2] -= direct[nid] * share
        edge[1] -= n * inside_per_call(nid)
    return [inside_per_call(i) for i in range(size)]


def calibrate(rounds=20_000, repeats=5):
    """Per-call wrapper overhead in ns, measured on no-op functions:
    ``{"span": {"in", "out"}, "leaf": {"in", "out"}, "nested": ns}``."""
    tracer = Tracer()

    def noop():
        return None

    parent_id = tracer._add("parent", "span")
    span_id = tracer._add("span", "span")
    leaf_id = tracer._add("leaf", "leaf")
    outer_id = tracer._add("outer", "leaf")
    span = tracer._span(span_id, noop)
    leaf = tracer._leaf(leaf_id, noop)
    three_nested = tracer._leaf(outer_id, lambda: (leaf(), leaf(), leaf()))
    three_bare = tracer._leaf(outer_id, lambda: (noop(), noop(), noop()))

    def loop(fn):
        """Per-round time of ``rounds`` calls of fn, made inside a span as
        the program's calls are."""
        tracer._ctxs.clear()
        tracer._local.__dict__.clear()

        def body():
            for _ in range(rounds):
                fn()

        t0 = time.perf_counter_ns()
        tracer._span(parent_id, body)()
        total = time.perf_counter_ns() - t0
        return total / rounds, tracer.summary()["by_name"]

    samples = {k: [] for k in ("span_in", "span_out", "leaf_in", "leaf_out",
                               "nested")}
    for _ in range(repeats):
        bare, _ = loop(noop)
        wrapped, by = loop(span)
        inner = by["span"]["incl_ns"] / rounds
        samples["span_in"].append(max(inner - bare, 0.0))
        samples["span_out"].append(max(wrapped - inner, 0.0))
        wrapped, by = loop(leaf)
        inner = by["leaf"]["incl_ns"] / rounds
        samples["leaf_in"].append(max(inner - bare, 0.0))
        samples["leaf_out"].append(max(wrapped - inner, 0.0))
        _, by = loop(three_nested)
        with_nested = by["outer"]["incl_ns"]
        _, by = loop(three_bare)
        samples["nested"].append(
            max(with_nested - by["outer"]["incl_ns"], 0.0) / (3 * rounds))
    med = {k: statistics.median(v) for k, v in samples.items()}
    return {
        "span": {"in": med["span_in"], "out": med["span_out"]},
        "leaf": {"in": med["leaf_in"], "out": med["leaf_out"]},
        "nested": med["nested"],
    }
