"""Weighted connected dominating set extraction for the global skeleton.

Greedy color-scan procedure: start from the vertex with the most unvisited
(white) neighbors, repeatedly scan the current vertex (black), mark its
neighbors (gray), and pick the next current vertex among the gray ones by

    w_ver = r_vw * N_ngb / N_max_ngb + (1 - r_vw) * w_edge

where N_ngb is the vertex's remaining white-neighbor count, N_max_ngb the
maximum white-neighbor count in the initial graph, and w_edge the largest
edge weight from the gray vertex to any black vertex. At r_vw = 1 this is
the classical neighbor-count-only greedy; ties go to the lowest vertex id.
"""

from __future__ import annotations

from dataclasses import dataclass

from .components import connected_components

DEFAULT_VERTEX_WEIGHT_RATIO = 0.5

_WHITE, _GRAY, _BLACK = 0, 1, 2


@dataclass
class WcdsResult:
    selected_vertices: list  # scan order across components
    induced_subgraph: "MatchGraph"
    r_vw: float


def _component_wcds(adj, comp, r_vw, n_max_ngb):
    color = {v: _WHITE for v in comp}
    white_ngb = {v: sum(1 for u, _ in adj[v] if u in comp) for v in comp}
    # step 1: initial current vertex by white-neighbor count only
    current = min(comp, key=lambda v: (-white_ngb[v], v))
    selected = []
    while True:
        # scan current, mark white neighbors gray
        if color[current] == _WHITE:
            for u, _ in adj[current]:
                white_ngb[u] -= 1
        color[current] = _BLACK
        selected.append(current)
        for u, _ in adj[current]:
            if color[u] == _WHITE:
                color[u] = _GRAY
                for w, _ in adj[u]:
                    white_ngb[w] -= 1
        if not any(color[v] == _WHITE for v in comp):
            break
        # step 3: best gray vertex by blended weight; only grays that still
        # dominate at least one white vertex are candidates, so every
        # selection makes progress (one such gray always exists while white
        # vertices remain in a connected component)
        best = None
        best_w = -1.0
        for v in sorted(comp):
            if color[v] != _GRAY or white_ngb[v] == 0:
                continue
            w_edge = max(
                (w for u, w in adj[v] if color[u] == _BLACK), default=None
            )
            assert w_edge is not None, "gray vertex must touch a black vertex"
            w_ver = r_vw * (white_ngb[v] / n_max_ngb) + (1.0 - r_vw) * w_edge
            if w_ver > best_w + 1e-15:
                best, best_w = v, w_ver
        current = best
    return selected


def extract_wcds(graph, r_vw: float = DEFAULT_VERTEX_WEIGHT_RATIO) -> WcdsResult:
    """Greedy weighted connected dominating set, run per connected component."""
    if not (0.0 <= r_vw <= 1.0):
        raise ValueError("r_vw must lie in [0, 1]")
    adj = graph.adjacency()
    n_max_ngb = max((len(adj[v]) for v in graph.vertices), default=0)
    selected = []
    for comp in connected_components(graph):
        if len(comp) == 1:
            selected.extend(comp)
            continue
        selected.extend(_component_wcds(adj, comp, r_vw, max(n_max_ngb, 1)))
    return WcdsResult(selected, graph.subgraph(selected), r_vw)

