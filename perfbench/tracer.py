"""Spans around the calls into each iterint module, recorded from outside.

``Tracer.install`` rebinds every function and method that a module of the
package defines to a wrapper that records a span, and patches every other
module's binding of the same object (``iterint.transport.eval_form`` as well
as ``iterint.surfaces.eval_form``).  Names are discovered at install time,
so a renamed internal costs only the metrics that name it: those read as
absent, never as a crash.

Spans are timed in per-thread CPU seconds (``time.thread_time``).  With the
worker pool, the interpreter lock lets one thread run at a time, so wall
time would count every thread's wait for the lock as work of the layer it
waits in; thread CPU time adds up to the work actually done.  A span's self
time is its duration minus the time its child spans cover.  A named group's
time (``transport.solve_s`` and the like) is the time of its outermost spans
minus the time covered by child spans of other layers, so it keeps the
group's helpers in the same module and drops, say, the form evaluations a
segment solve asks for.

Spans are aggregated per job (spans of one job share its id) and per
function in memory, and written out once when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from pathlib import Path

LAYERS = ("cli", "words", "surfaces", "paths", "transport", "regularization", "variation")

# group -> qualified names of the functions whose outermost spans it counts
GROUPS = {
    "surfaces.eval_form": ("surfaces.eval_form",),
    "surfaces.dlog_theta": ("surfaces.dlog_theta",),
    "surfaces.lattice_distance": ("surfaces.lattice_distance",),
    "surfaces.pointwise": (
        "surfaces.fay_residual",
        "surfaces.structure_constants",
        "surfaces.StructureConstants.residual",
    ),
    "words.construct": ("words.Word.__post_init__",),
    "words.decompose": ("words.decompose_at", "words.decompose_leading"),
    "transport.product": ("transport.NcSeries.product",),
    "transport.invert": ("transport.NcSeries.invert",),
    "transport.solve": ("transport._solve_segment",),
    "transport.adaptive": ("transport._adaptive_segment",),
    "regularization.extend": ("regularization.RegularizedTransport.extend",),
    "regularization.ladder_fit": ("regularization._ladder_fit",),
    "regularization.reg_line_integral": ("regularization.reg_line_integral",),
    "regularization.assemble": (
        "regularization.RegularizedTransport.value",
        "regularization.RegularizedTransport.series",
    ),
    "variation.fd": ("variation.fd_variation",),
}

# argument observations: function -> (parameter name, statistic it feeds)
OBSERVED_ARGS = {
    "transport._solve_segment": ("words", "solve_words"),
    "transport._adaptive_segment": ("level", "level_max"),
}
# a call of this function that returns without calling itself is accepted
ACCEPTING = "transport._adaptive_segment"


# (name, unit, value from (summary, traced jobs), sources it needs);
# a metric whose sources did not install reads as absent
def _metric_table():
    def layer_self(layer):
        return lambda s, n: s["layer_self"].get(layer, 0.0) / n, ()

    def calls(group):
        return lambda s, n: s["group_calls"].get(group, 0) / n, (group,)

    def group_s(group):
        return lambda s, n: s["group_s"].get(group, 0.0) / n, (group,)

    def per_solve(stat, scale=1.0):
        def f(s, n):
            solves = s["group_calls"].get("transport.solve", 0)
            return scale * s["stats"].get(stat, 0) / solves if solves else 0.0

        return f

    return [
        ("surfaces.self_s", "s", *layer_self("surfaces")),
        ("surfaces.eval_form.calls", "count", *calls("surfaces.eval_form")),
        ("surfaces.dlog_theta.calls", "count", *calls("surfaces.dlog_theta")),
        ("surfaces.lattice_distance.calls", "count", *calls("surfaces.lattice_distance")),
        ("surfaces.pointwise_s", "s", *group_s("surfaces.pointwise")),
        ("words.self_s", "s", *layer_self("words")),
        ("words.word_constructions", "count", *calls("words.construct")),
        ("words.decompose.calls", "count", *calls("words.decompose")),
        ("words.decompose_s", "s", *group_s("words.decompose")),
        ("transport.self_s", "s", *layer_self("transport")),
        ("transport.product.calls", "count", *calls("transport.product")),
        ("transport.product_s", "s", *group_s("transport.product")),
        ("transport.invert.calls", "count", *calls("transport.invert")),
        ("transport.invert_s", "s", *group_s("transport.invert")),
        ("transport.segment_solves", "count", *calls("transport.solve")),
        ("transport.solve_s", "s", *group_s("transport.solve")),
        (
            "transport.words_per_solve", "count",
            per_solve("solve_words"), ("transport.solve", "arg:solve_words"),
        ),
        (
            "transport.refine_level_max", "count",
            lambda s, n: s["stats"].get("level_max", 0), ("transport.adaptive", "arg:level_max"),
        ),
        (
            "transport.useful_solve_ratio", "ratio",
            per_solve("accepted", 2.0), ("transport.solve", "transport.adaptive"),
        ),
        ("regularization.self_s", "s", *layer_self("regularization")),
        ("regularization.ladder_rungs", "count", *calls("regularization.extend")),
        ("regularization.ladder_fit.calls", "count", *calls("regularization.ladder_fit")),
        ("regularization.ladder_fit_s", "s", *group_s("regularization.ladder_fit")),
        ("regularization.reg_line_integral_s", "s", *group_s("regularization.reg_line_integral")),
        ("regularization.assemble_s", "s", *group_s("regularization.assemble")),
        ("variation.self_s", "s", *layer_self("variation")),
        ("variation.fd.calls", "count", *calls("variation.fd")),
        ("paths.self_s", "s", *layer_self("paths")),
        ("cli.self_s", "s", *layer_self("cli")),
    ]


METRICS = _metric_table()


_NAMED = {name for names in GROUPS.values() for name in names} | set(OBSERVED_ARGS)


def _wanted(qualname: str, attr: str, shared: bool) -> bool:
    """A call into the module: a public name, one another module imports, or
    one a metric names.  Private helpers stay inside their caller's span."""
    if qualname in _NAMED or shared or attr in ("__init__", "__post_init__"):
        return True
    return not attr.startswith("_")


def _targets(module, shared: set[int]):
    """(qualified name, owner, attribute, raw object) to wrap in a module."""
    layer = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            if _wanted(f"{layer}.{name}", name, id(obj) in shared):
                yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj) and _wanted(f"{layer}.{name}", name, id(obj) in shared):
            generated_init = hasattr(obj, "__dataclass_fields__")
            for attr, raw in vars(obj).items():
                if attr == "__init__" and generated_init:
                    continue
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                    continue
                qualname = f"{layer}.{name}.{attr}"
                if _wanted(qualname, attr, False):
                    yield qualname, obj, attr, raw


class _ThreadState:
    """One thread's open spans and totals for the current job."""

    __slots__ = ("job", "stack", "depth", "functions", "groups", "stats")

    def __init__(self, job):
        self.job = job
        self.stack: list[list] = []
        self.depth: dict[str, int] = {}
        self.functions: dict[str, list] = {}
        self.groups: dict[str, list] = {}
        self.stats: dict[str, int] = {}


def _merge_stat(stats: dict, name: str, v) -> None:
    if name == "level_max":
        stats[name] = max(stats.get(name, 0), v)
    else:
        stats[name] = stats.get(name, 0) + v


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._job = None
        self._states: list[_ThreadState] = []
        self.jobs: list[dict] = []
        self.installed: set[str] = set()
        self.observed: set[str] = set()
        self._group_of = {name: group for group, names in GROUPS.items() for name in names}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"iterint.{layer}") for layer in LAYERS}
        everyone = [importlib.import_module("iterint"), *modules.values()]
        shared = {
            id(obj)
            for m in everyone
            for obj in vars(m).values()
            if getattr(obj, "__module__", None) not in (None, m.__name__)
        }
        for layer, module in modules.items():
            for qualname, owner, attr, raw in list(_targets(module, shared)):
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(owner, attr, type(raw)(self._wrap(layer, qualname, raw.__func__)))
                elif owner is module:
                    wrapped = self._wrap(layer, qualname, raw)
                    for m in everyone:
                        for name, obj in list(vars(m).items()):
                            if obj is raw:
                                setattr(m, name, wrapped)
                else:
                    setattr(owner, attr, self._wrap(layer, qualname, raw))
                self.installed.add(qualname)

    def _wrap(self, layer: str, qualname: str, fn):
        group = self._group_of.get(qualname)
        observe = None
        if qualname in OBSERVED_ARGS:
            param, stat = OBSERVED_ARGS[qualname]
            params = list(inspect.signature(fn).parameters)
            if param in params:
                observe = (params.index(param), param, stat)
                self.observed.add(f"arg:{stat}")
        accepting = qualname == ACCEPTING
        tracer = self
        local = self._local
        clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = tracer._job
            if job is None:
                return fn(*args, **kwargs)
            st = getattr(local, "state", None)
            if st is None or st.job is not job:
                st = tracer._new_state(job)
            stack = st.stack
            if accepting and stack and stack[-1][0] == qualname:
                stack[-1][4] = True
            if group is not None:
                outermost = not st.depth.get(group)
                st.depth[group] = st.depth.get(group, 0) + 1
            if observe is not None:
                idx, param, stat = observe
                v = args[idx] if len(args) > idx else kwargs.get(param)
                _merge_stat(st.stats, stat, v if stat == "level_max" else len(v))
            # frame: name, start, child time, foreign time, recursed
            frame = [qualname, 0.0, 0.0, 0.0, False]
            stack.append(frame)
            returned = False
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                dur = clock() - frame[1]
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[2] += dur
                    parent[3] += frame[3] if parent[0].startswith(layer + ".") else dur
                fs = st.functions.get(qualname)
                if fs is None:
                    fs = st.functions[qualname] = [0, 0.0]
                fs[0] += 1
                fs[1] += dur - frame[2]
                if group is not None:
                    st.depth[group] -= 1
                    if outermost:
                        gs = st.groups.get(group)
                        if gs is None:
                            gs = st.groups[group] = [0, 0.0]
                        gs[0] += 1
                        gs[1] += dur - frame[3]
                if accepting and returned and not frame[4]:
                    _merge_stat(st.stats, "accepted", 1)

        return traced

    def _new_state(self, job) -> _ThreadState:
        """This thread's state for the current job, registered for the merge.

        Each thread counts into its own state, so worker threads never race on
        a shared counter; the states are merged when the job ends.
        """
        st = self._local.state = _ThreadState(job)
        with self._lock:
            self._states.append(st)
        return st

    # -- jobs -------------------------------------------------------------

    def traced(self, fn):
        """``fn`` with spans on; each call is one job, numbered in order."""

        def job(*args):
            self._job = object()
            self._states = []
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                return fn(*args)
            finally:
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
                self._job = None
                self._close_job(wall, cpu)

        return job

    def _close_job(self, wall: float, cpu: float) -> None:
        merged = {"functions": {}, "groups": {}, "stats": {}}
        for st in self._states:
            for key, table in (("functions", st.functions), ("groups", st.groups)):
                for name, (n, t) in table.items():
                    cur = merged[key].setdefault(name, [0, 0.0])
                    cur[0] += n
                    cur[1] += t
            for name, v in st.stats.items():
                _merge_stat(merged["stats"], name, v)
        self.jobs.append({"id": len(self.jobs), "wall_s": wall, "cpu_s": cpu, **merged})

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        layer_self: dict[str, float] = {}
        group_calls: dict[str, int] = {}
        group_s: dict[str, float] = {}
        stats: dict[str, float] = {}
        for job in self.jobs:
            for name, (_, t) in job["functions"].items():
                layer = name.split(".", 1)[0]
                layer_self[layer] = layer_self.get(layer, 0.0) + t
            for name, (n, t) in job["groups"].items():
                group_calls[name] = group_calls.get(name, 0) + n
                group_s[name] = group_s.get(name, 0.0) + t
            for name, v in job["stats"].items():
                _merge_stat(stats, name, v)
        return {"layer_self": layer_self, "group_calls": group_calls, "group_s": group_s, "stats": stats}

    def _present(self, source: str) -> bool:
        if source.startswith("arg:"):
            return source in self.observed
        return all(name in self.installed for name in GROUPS[source])

    def metrics(self) -> dict:
        """Every per-layer metric per traced job; absent ones have value None."""
        s = self.summary()
        n = len(self.jobs)
        out = {}
        for name, unit, fn, sources in METRICS:
            if all(self._present(src) for src in sources):
                out[name] = {"value": fn(s, n), "unit": unit}
            else:
                out[name] = {"value": None, "unit": unit, "absent": True}
        return out

    def write(self, path: Path, meta: dict) -> None:
        path.write_text(json.dumps({**meta, "jobs": self.jobs}, indent=1, sort_keys=True))
