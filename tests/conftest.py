"""Shared helpers: random tessellation covers, the hypothesis profile and
acceptance-line reporting."""
from __future__ import annotations

import re

import numpy as np
from hypothesis import settings

from sqwsim.evolve import WalkState, step
from sqwsim.graph import Polygon, SimpleGraph, Tessellation, TessellatedGraph
from sqwsim.oracle import tessellation_of

# Derandomized so every run draws the same examples; no deadline, because
# example timings on a loaded machine say nothing about correctness.
settings.register_profile("sqwsim", derandomize=True, deadline=None)
settings.load_profile("sqwsim")

_ACCEPTANCE_NAME = re.compile(r"^test_(c\d{2})_")

_CRITERIA = {
    "c01": "reflection algebra on random covers",
    "c02": "dense-matrix oracle equivalence",
    "c03": "coined-walk equivalence",
    "c04": "noiseless spread: symmetry and ballistic sigma",
    "c05": "noise suppresses spread, ordered in p",
    "c06": "noiseless search scaling in n",
    "c07": "noise degrades search, ordered in p",
    "c08": "one_vs_rest splits soften with q",
    "c09": "noise plumbing: p=0 identity, magnitudes, break rate",
    "c10": "sweep byte determinism across repeats and workers",
}


def random_cover(
    rng: np.random.Generator,
    num_vertices: int,
    num_tessellations: int,
    max_polygon: int = 4,
    uniform: bool = False,
) -> TessellatedGraph:
    """Random cover: each tessellation is a random partition of the vertices
    into polygons of size 1..max_polygon; amplitudes are random with
    magnitudes bounded away from zero (or uniform), so renormalized blocks
    are always well defined.  The graph is the union of polygon edges."""
    tessellations = []
    edges = set()
    for _ in range(num_tessellations):
        perm = rng.permutation(num_vertices)
        polys = []
        pos = 0
        while pos < num_vertices:
            size = min(int(rng.integers(1, max_polygon + 1)), num_vertices - pos)
            verts = perm[pos : pos + size]
            pos += size
            if uniform:
                polys.append(Polygon.uniform(verts))
            else:
                mags = rng.uniform(0.3, 1.0, size)
                phases = rng.uniform(0.0, 2.0 * np.pi, size)
                amps = mags * np.exp(1j * phases)
                amps /= np.linalg.norm(amps)
                polys.append(Polygon(verts, amps))
            for i in range(size):
                for j in range(i + 1, size):
                    a, b = int(verts[i]), int(verts[j])
                    edges.add((a, b) if a < b else (b, a))
        tessellations.append(tessellation_of(tuple(polys)))
    graph = SimpleGraph(num_vertices, frozenset(edges))
    return TessellatedGraph(graph, tuple(tessellations))


def reflect(tess: Tessellation, state: WalkState) -> WalkState:
    """The reflection of a single tessellation: one step of the cover it alone makes."""
    return step(TessellatedGraph(SimpleGraph(state.num_vertices), (tess,)), state)


def random_state(rng: np.random.Generator, num_vertices: int) -> np.ndarray:
    vec = rng.normal(size=num_vertices) + 1j * rng.normal(size=num_vertices)
    return vec / np.linalg.norm(vec)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            name = getattr(rep, "location", (None, None, ""))[2]
            match = _ACCEPTANCE_NAME.match(name)
            if not match:
                continue
            key = match.group(1)
            desc = _CRITERIA.get(key, name)
            verdict = "PASS" if outcome == "passed" else "FAIL"
            lines.append((key, f"{key.upper()} {desc}: {verdict} ({rep.duration:.1f}s)"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
