"""In-process span tracing of the sqwsim layers, and the per-layer metrics built from it.

The tracer wraps every public module-level function of the layer modules and
rebinds the wrapper wherever a sqwsim module looks the original up (for
example ``sqwsim.noise.sample_plan``, which ``perturbed_step`` calls through its
module globals).  Each call records a span: name, start, end, parent span and
trace id.  Spans stay in memory until the benchmark writes them out.

A layer is the module that defines the function.  ``oracle`` is reference-only
and is not traced.  A metric whose function is absent in the traced commit is
reported as absent.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

LAYERS = ("graph", "evolve", "noise", "search", "analysis", "rng", "cli")

#: Percentiles tried, highest first, when reporting the tail of a timing.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
#: A percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    trace_id: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with TAIL_MIN_BEYOND samples beyond it."""
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        if len(ordered) * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            rank = max(0, min(len(ordered) - 1, int(round(pct / 100.0 * len(ordered))) - 1))
            return pct, ordered[rank]
    return None


# --- work accounting -------------------------------------------------------

_C16, _I8 = 16, 8  # complex128 and int64 item sizes


def clean_step_work(num_vertices: int, tessellations: list[tuple[int, int]]) -> tuple[int, int]:
    """Computed (bytes, flops) of one clean walk step, from the compiled cover sizes.

    ``tessellations`` lists (E, P) per tessellation: E covered entries in P
    polygons.  The model counts the array passes of the gather/reduceat/scatter
    reflection as of this benchmark's first version, each reading and writing
    whole arrays from memory, plus the norm check of the new state:

    ======================  ==========================  ========================
    pass                    bytes read / written        flops
    ======================  ==========================  ========================
    out = -vec              16N / 16N                   -
    sv = vec[order]         8E + 16E / 16E              -
    conj_amps * sv          32E / 16E                   6E
    add.reduceat            16E + 8P / 16P              2E
    repeat(inner, sizes)    16P + 8P / 16E              -
    2.0 * ...               16E / 16E                   2E
    ... * amps              32E / 16E                   6E
    out[order] += update    8E + 32E / 16E              2E
    norm of the new state   16N / -                     4N
    ======================  ==========================  ========================

    Cache reuse is ignored, so the bytes are an upper bound on memory traffic.
    """
    n = num_vertices
    bytes_moved = 0
    flops = 4 * n
    for e, p in tessellations:
        bytes_moved += 2 * _C16 * n
        bytes_moved += (_I8 + 2 * _C16) * e
        bytes_moved += 3 * _C16 * e
        bytes_moved += _C16 * e + _I8 * p + _C16 * p
        bytes_moved += _C16 * p + _I8 * p + _C16 * e
        bytes_moved += 2 * _C16 * e
        bytes_moved += 3 * _C16 * e
        bytes_moved += _I8 * e + 3 * _C16 * e
        flops += 18 * e
    bytes_moved += _C16 * n
    return bytes_moved, flops


_cover_sizes: "WeakKeyDictionary[object, tuple[int, list[tuple[int, int]]]]" = WeakKeyDictionary()


def cover_sizes(tg) -> tuple[int, list[tuple[int, int]]]:
    """(N, [(E, P) per tessellation]) of a cover, cached per cover object."""
    sizes = _cover_sizes.get(tg)
    if sizes is None:
        tess = [(sum(p.size for p in t.polygons), len(t.polygons)) for t in tg.tessellations]
        sizes = (tg.num_vertices, tess)
        _cover_sizes[tg] = sizes
    return sizes


# --- span annotations ------------------------------------------------------
# Each takes (args, kwargs, result) of a traced call and returns span attributes.

def _built(args, kwargs, tg):
    return {"edges": tg.graph.num_edges, "polygons": sum(len(t.polygons) for t in tg.tessellations)}


def _read_graph(args, kwargs, g):
    return {"edges": g.num_edges}


def _read_cover(args, kwargs, tg):
    return {"polygons": sum(len(t.polygons) for t in tg.tessellations)}


def _step(args, kwargs, result):
    return {"work": clean_step_work(*cover_sizes(args[0]))}


def _plan_step(args, kwargs, result):
    return {"work": clean_step_work(*cover_sizes(args[0].cover))}


def _sample_plan(args, kwargs, plan):
    tg, spec = args[0], args[1]
    if spec.is_off:
        return {"drawn": 0, "expected": 0.0}
    if spec.kind == "break_vertices":
        mask = plan.broken_vertex_mask
        return {"drawn": 0 if mask is None else int(mask.sum()), "expected": spec.p * tg.num_vertices}
    scope = spec.scope if spec.scope is not None else range(tg.num_tessellations)
    eligible = sum(len(tg.tessellations[t].polygons) for t in scope)
    drawn = sum(int(tb.broken.size) for tb in plan.polygon_breaks.values())
    return {"drawn": drawn, "expected": spec.p * eligible}


def _run_search(args, kwargs, result):
    cfg = args[0]
    return {"requested": cfg.runs * cfg.max_steps}


ANNOTATE = {
    "graph.make_grid_of_cliques": _built,
    "graph.read_graph": _read_graph,
    "graph.read_cover": _read_cover,
    "evolve.step": _step,
    "noise.plan_step": _plan_step,
    "noise.sample_plan": _sample_plan,
    "search.run_search": _run_search,
}


#: Functions the per-layer metrics read; any missing one is reported as absent.
USED_NAMES = (
    "graph.make_grid_of_cliques", "graph.read_graph", "graph.read_cover", "graph.validate_cover",
    "evolve.step", "noise.sample_plan", "noise.plan_step",
    "search.partial_cover", "search.run_search", "search.success_probability",
    "analysis.position_distribution", "analysis.torus_displacement_stats",
    "analysis.classical_sigma_series", "analysis.aggregate", "analysis.displacement_experiment",
    "rng.child_seed", "cli.main",
)


class Tracer:
    """Wraps the layer functions while installed and records one span per call."""

    def __init__(self, trace_id: str):
        self.spans: list[Span] = []
        self.trace_id = trace_id
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, annotate, trace_id = self.spans, self._stack, ANNOTATE.get(name), self.trace_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, parent=stack[-1] if stack else -1, trace_id=trace_id)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                try:
                    span.attrs = annotate(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError) as exc:
                    span.attrs = {"annotation_error": repr(exc)}
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        found = set()
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"sqwsim.{layer}")
            except ModuleNotFoundError:
                continue
            for attr, obj in vars(mod).items():
                found.add(f"{layer}.{attr}")
                if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        self.absent = sorted(set(USED_NAMES) - found)
        modules = [m for key, m in sys.modules.items() if key == "sqwsim" or key.startswith("sqwsim.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()


@dataclass
class Metric:
    value: float | None
    unit: str
    note: str = ""


def _p50(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def layer_metrics(spans: list[Span]) -> dict[str, Metric]:
    """Per-layer metrics of one traced run (the spans of one trace id)."""
    children: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            children[s.parent] = children.get(s.parent, 0.0) + s.duration
    self_time = [s.duration - children.get(i, 0.0) for i, s in enumerate(spans)]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def durs(name, keep=lambda i: True):
        return [spans[i].duration for i in by_name.get(name, ()) if keep(i)]

    def total(*names):
        return sum(sum(durs(n)) for n in names)

    def attr_sum(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in by_name.get(name, ()))

    def parent_name(i):
        p = spans[i].parent
        return spans[p].name if p >= 0 else ""

    under_search = [False] * len(spans)
    for i, s in enumerate(spans):
        under_search[i] = s.name == "search.run_search" or (s.parent >= 0 and under_search[s.parent])

    # A walk step is a masked plan_step, or a clean step not taken inside plan_step.
    walk = sorted(by_name.get("noise.plan_step", []) +
                  [i for i in by_name.get("evolve.step", ()) if parent_name(i) != "noise.plan_step"])
    clean = by_name.get("evolve.step", [])
    root = [i for i, s in enumerate(spans) if s.parent < 0]
    traced_s = sum(spans[i].duration for i in root)

    m: dict[str, Metric] = {}
    for layer in LAYERS:
        layer_self = sum(t for t, s in zip(self_time, spans) if s.name.split(".")[0] == layer)
        m[f"{layer}.self_s"] = Metric(layer_self, "s", "span time minus child spans")
        m[f"{layer}.share"] = Metric(100.0 * layer_self / traced_s if traced_s else 0.0, "%",
                                     "self time over the traced cli.main time")

    m["graph.build_s"] = Metric(total("graph.make_grid_of_cliques"), "s")
    m["graph.read_s"] = Metric(total("graph.read_graph", "graph.read_cover"), "s")
    m["graph.validate_s"] = Metric(total("graph.validate_cover"), "s")
    m["graph.edges"] = Metric(attr_sum("graph.make_grid_of_cliques", "edges") +
                              attr_sum("graph.read_graph", "edges"), "count", "built or read")
    m["graph.polygons"] = Metric(attr_sum("graph.make_grid_of_cliques", "polygons") +
                                 attr_sum("graph.read_cover", "polygons"), "count", "built or read")

    step_d = [spans[i].duration for i in clean]
    m["evolve.steps"] = Metric(len(walk), "count", "walk steps, clean and masked")
    m["evolve.first_step_s"] = Metric(spans[walk[0]].duration if walk else None, "s", "includes compile")
    work = [spans[i].attrs.get("work", (0, 0)) for i in walk]
    m["evolve.step_bytes"] = Metric(sum(w[0] for w in work) / len(work) if work else 0, "B",
                                    "computed, mean per walk step, clean-kernel model")
    m["evolve.step_ops"] = Metric(sum(w[1] for w in work) / len(work) if work else 0, "count",
                                  "computed flops, mean per walk step, clean-kernel model")
    clean_bytes = sum(spans[i].attrs.get("work", (0, 0))[0] for i in clean)
    m["evolve.step_gbps"] = Metric(clean_bytes / sum(step_d) / 1e9 if step_d else None, "GB/s",
                                   "computed bytes over measured clean-step time")
    for name, key, note in (("evolve.step", "evolve.step_s", "clean step"),
                            ("noise.sample_plan", "noise.sample_plan_s", ""),
                            ("noise.plan_step", "noise.plan_step_s", "masked step")):
        values = durs(name)
        m[f"{key}.p50"] = Metric(_p50(values), "s", note)
        tl = tail(values)
        m[f"{key}.tail"] = Metric(tl[1] if tl else None, "s",
                                  f"p{tl[0]:g} of {len(values)}" if tl else f"{len(values)} samples")
    m["noise.breaks_drawn"] = Metric(attr_sum("noise.sample_plan", "drawn"), "count")
    m["noise.breaks_expected"] = Metric(attr_sum("noise.sample_plan", "expected"), "count",
                                        "p x eligible vertices or polygons, summed over plans")

    m["search.partial_cover_s"] = Metric(total("search.partial_cover"), "s")
    m["search.run_search_s"] = Metric(total("search.run_search"), "s")
    m["search.success_probability_s.p50"] = Metric(_p50(durs("search.success_probability")), "s")
    m["search.steps_simulated"] = Metric(sum(1 for i in walk if under_search[i]), "count")
    m["search.steps_requested"] = Metric(attr_sum("search.run_search", "requested"), "count",
                                         "runs x step budget, summed over searches")

    not_classical = lambda i: parent_name(i) != "analysis.classical_sigma_series"  # noqa: E731
    observe = [_p50(durs("analysis.position_distribution", not_classical)),
               _p50(durs("analysis.torus_displacement_stats", not_classical))]
    m["analysis.observe_s.p50"] = Metric(sum(observe) if all(v is not None for v in observe) else None, "s",
                                         "position_distribution + torus_displacement_stats")
    m["analysis.classical_s"] = Metric(total("analysis.classical_sigma_series"), "s")
    m["analysis.aggregate_s"] = Metric(total("analysis.aggregate"), "s")

    m["rng.child_seed_calls"] = Metric(len(by_name.get("rng.child_seed", ())), "count")
    m["rng.child_seed_s"] = Metric(total("rng.child_seed"), "s")

    # Time the runs themselves take: experiment spans minus their set-up children.
    setup_children = {"search.partial_cover", "analysis.aggregate", "analysis.classical_sigma_series"}
    run_time = 0.0
    for name in ("search.run_search", "analysis.displacement_experiment"):
        for i in by_name.get(name, ()):
            run_time += spans[i].duration
    for i, s in enumerate(spans):
        if s.parent >= 0 and spans[s.parent].name in ("search.run_search", "analysis.displacement_experiment"):
            if s.name.split(".")[0] in ("graph", "rng") or s.name in setup_children:
                run_time -= s.duration
    m["pool.run_s"] = Metric(run_time, "s", "traced time inside the runs, all runs")
    m["trace.traced_s"] = Metric(traced_s, "s", "traced cli.main")
    return m
