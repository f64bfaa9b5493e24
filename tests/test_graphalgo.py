import itertools

import numpy as np
import pytest

from parsfm.graphalgo import connected_components, extract_wcds, normalized_cut
from parsfm.graphalgo.ncut import _best_bisection
from parsfm.matchgraph import MatchGraph

from helpers import mcds_reference


def make_graph(edges, extra_vertices=()):
    g = MatchGraph()
    for a, b, w in edges:
        g.add_edge(a, b, w)
    for v in extra_vertices:
        g.add_vertex(v)
    return g


def random_connected_graph(rng, n, extra_edges=None, weights=True):
    """Random spanning tree plus extra edges; weights uniform in (0, 1)."""
    edges = []
    perm = rng.permutation(n)
    for i in range(1, n):
        a = perm[i]
        b = perm[rng.integers(0, i)]
        edges.append((int(a), int(b)))
    if extra_edges is None:
        extra_edges = int(rng.integers(0, n))
    have = {(min(a, b), max(a, b)) for a, b in edges}
    for _ in range(extra_edges):
        a, b = rng.integers(0, n, 2)
        if a != b and (min(a, b), max(a, b)) not in have:
            have.add((min(a, b), max(a, b)))
            edges.append((int(a), int(b)))
    g = MatchGraph()
    for a, b in edges:
        w = float(rng.uniform(0.01, 1.0)) if weights else 0.5
        g.add_edge(a, b, w)
    return g


def random_geometric_graph(rng, n, radius=0.35):
    pts = rng.uniform(0, 1, size=(n, 2))
    g = MatchGraph()
    for v in range(n):
        g.add_vertex(v)
    for i in range(n):
        for j in range(i + 1, n):
            d = np.linalg.norm(pts[i] - pts[j])
            if d < radius:
                g.add_edge(i, j, float(1.0 - d / radius))
    return g


def dominates(graph, selected):
    sel = set(selected)
    adj = graph.adjacency()
    for v in graph.vertices:
        if v in sel:
            continue
        if not any(u in sel for u, _ in adj[v]):
            return False
    return True


def induced_connected_per_component(graph, selected):
    sel = set(selected)
    sub = graph.subgraph(sel)
    for comp in connected_components(graph):
        picked = comp & sel
        if not picked:
            return False
        comps_in = connected_components(sub.subgraph(picked))
        if len(comps_in) != 1:
            return False
    return True


class TestWcds:
    def test_star_center_only(self):
        g = make_graph([(0, i, 0.1 * i) for i in range(1, 6)])
        res = extract_wcds(g)
        assert res.selected_vertices == [0]
        assert set(res.induced_subgraph.vertices) == {0}

    def test_path_hand_trace(self):
        # path 0-1-2-3-4, uniform weights, r_vw=1 -> {1, 2, 3} in scan order
        g = make_graph([(i, i + 1, 0.5) for i in range(4)])
        res = extract_wcds(g, r_vw=1.0)
        assert res.selected_vertices == [1, 2, 3]
        assert dominates(g, res.selected_vertices)
        assert induced_connected_per_component(g, res.selected_vertices)

    def test_bridge_forces_strongest_edge(self):
        # two triangles joined by one strong bridge; r_vw=0 follows the bridge
        edges = [
            (0, 1, 0.1), (0, 2, 0.1), (1, 2, 0.1),
            (3, 4, 0.1), (3, 5, 0.1), (4, 5, 0.1),
            (2, 3, 0.9),
        ]
        res = extract_wcds(make_graph(edges), r_vw=0.0)
        assert 2 in res.selected_vertices
        assert 3 in res.selected_vertices

    def test_empty_graph(self):
        res = extract_wcds(MatchGraph())
        assert res.selected_vertices == []

    @pytest.mark.parametrize("r_vw", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_domination_and_connectivity_random(self, r_vw):
        rng = np.random.default_rng(int(r_vw * 100) + 1)
        for _ in range(25):
            n = int(rng.integers(5, 60))
            g = random_connected_graph(rng, n)
            res = extract_wcds(g, r_vw=r_vw)
            assert dominates(g, res.selected_vertices)
            assert induced_connected_per_component(g, res.selected_vertices)

    def test_disconnected_graph_handled_per_component(self):
        g = make_graph(
            [(0, 1, 0.5), (1, 2, 0.5), (10, 11, 0.5)], extra_vertices=[20]
        )
        res = extract_wcds(g)
        assert dominates(g, res.selected_vertices)
        assert induced_connected_per_component(g, res.selected_vertices)
        assert 20 in res.selected_vertices

    def test_mcds_reduction_at_r_one(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(4, 50))
            g = random_connected_graph(rng, n)
            assert extract_wcds(g, r_vw=1.0).selected_vertices == mcds_reference(g)

    def test_selection_ratio_trend(self):
        rng = np.random.default_rng(7)
        ratios = {0.0: [], 0.5: [], 1.0: []}
        count = 0
        while count < 50:
            g = random_geometric_graph(rng, int(rng.integers(30, 80)))
            if len(connected_components(g)) > 3:
                continue
            count += 1
            for r in ratios:
                sel = extract_wcds(g, r_vw=r).selected_vertices
                ratios[r].append(len(sel) / len(g.vertices))
        assert np.mean(ratios[0.0]) >= np.mean(ratios[1.0])

    def test_min_weight_edge_trend(self):
        rng = np.random.default_rng(8)
        mins = {0.0: [], 1.0: []}
        for _ in range(40):
            g = random_connected_graph(rng, int(rng.integers(10, 40)))
            for r in mins:
                sub = extract_wcds(g, r_vw=r).induced_subgraph
                if sub.edges:
                    mins[r].append(min(w for w, _ in sub.edges.values()))
        assert np.mean(mins[0.0]) >= np.mean(mins[1.0])

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            extract_wcds(MatchGraph(), r_vw=1.5)


def brute_force_best_ncut(graph, vertices):
    verts = sorted(vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    W = np.zeros((n, n))
    for (a, b), (w, _) in graph.edges.items():
        if a in idx and b in idx:
            W[idx[a], idx[b]] = W[idx[b], idx[a]] = w
    d = W.sum(axis=1)
    best = np.inf
    best_parts = None
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        cut = W[mask][:, ~mask].sum()
        aa, ab = d[mask].sum(), d[~mask].sum()
        if aa <= 0 or ab <= 0:
            continue
        val = cut / aa + cut / ab
        if val < best - 1e-12:
            best = val
            best_parts = (
                {verts[i] for i in range(n) if mask[i]},
                {verts[i] for i in range(n) if not mask[i]},
            )
    return best, best_parts


class TestNormalizedCut:
    def _two_cliques(self):
        edges = []
        for base in (0, 5):
            for i, j in itertools.combinations(range(base, base + 5), 2):
                edges.append((i, j, 1.0))
        edges.append((0, 5, 0.01))
        return make_graph(edges)

    def test_two_cliques_split_exactly(self):
        g = self._two_cliques()
        res = normalized_cut(g, max_size=5)
        parts = sorted((sorted(c) for c in res.clusters))
        assert parts == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
        # the chosen split is the global Ncut optimum (brute force oracle)
        _, best_parts = brute_force_best_ncut(g, g.vertices)
        assert {frozenset(p) for p in best_parts} == {
            frozenset(c) for c in res.clusters
        }

    def test_small_graph_single_cluster(self):
        g = make_graph([(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)])
        res = normalized_cut(g, max_size=10)
        assert len(res.clusters) == 1
        assert res.clusters[0] == {0, 1, 2, 3}

    def test_ring_contiguous_arcs(self):
        n = 20
        g = make_graph([(i, (i + 1) % n, 0.8) for i in range(n)])
        res = normalized_cut(g, max_size=5)
        assert len(res.clusters) >= 4
        for c in res.clusters:
            assert len(c) <= 5
            # contiguity on the ring: the complement of a contiguous arc has
            # exactly one gap when walking the circle
            ids = sorted(c)
            gaps = sum(
                1
                for a, b in zip(ids, ids[1:] + [ids[0] + n])
                if (b - a) % n != 1
            )
            assert gaps <= 1

    def test_ring_first_bisection_matches_arc_brute_force(self):
        n = 20
        g = make_graph([(i, (i + 1) % n, 0.8) for i in range(n)])
        verts = sorted(g.vertices)
        W = np.zeros((n, n))
        for (a, b), (w, _) in g.edges.items():
            W[a, b] = W[b, a] = w
        d = W.sum(axis=1)
        a, b = _best_bisection(verts, W, d)
        mask = np.array([v in a for v in verts])
        cut = W[mask][:, ~mask].sum()
        got = cut / d[mask].sum() + cut / d[~mask].sum()
        # brute force over all contiguous-arc bipartitions
        best = np.inf
        for start in range(n):
            for length in range(1, n):
                arc = {(start + k) % n for k in range(length)}
                m = np.array([v in arc for v in verts])
                c = W[m][:, ~m].sum()
                best = min(best, c / d[m].sum() + c / d[~m].sum())
        assert got <= best + 1e-9

    def test_isolated_vertices_become_singletons(self):
        g = make_graph([(0, 1, 0.5)], extra_vertices=[7, 8])
        res = normalized_cut(g, max_size=2)
        assert {7} in res.clusters and {8} in res.clusters

    def test_validity_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(6, 70))
            g = random_connected_graph(rng, n)
            max_size = int(rng.integers(2, 20))
            res = normalized_cut(g, max_size)
            seen = set()
            for c in res.clusters:
                assert len(c) <= max_size
                assert not (c & seen)
                seen |= c
            assert seen == g.vertices

    def test_invalid_max_size(self):
        with pytest.raises(ValueError):
            normalized_cut(MatchGraph(), max_size=1)


class TestConnectedComponents:
    def test_edgeless(self):
        g = MatchGraph(vertices={0, 1, 2})
        assert connected_components(g) == [{0}, {1}, {2}]

    def test_connected(self):
        g = make_graph([(0, 1, 0.5), (1, 2, 0.5)])
        assert connected_components(g) == [{0, 1, 2}]

    def test_random_against_union_find(self):
        class UF:
            def __init__(self, items):
                self.p = {i: i for i in items}

            def find(self, x):
                while self.p[x] != x:
                    self.p[x] = self.p[self.p[x]]
                    x = self.p[x]
                return x

            def union(self, a, b):
                self.p[self.find(a)] = self.find(b)

        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(3, 50))
            g = MatchGraph(vertices=set(range(n)))
            for _ in range(int(rng.integers(0, 2 * n))):
                a, b = rng.integers(0, n, 2)
                if a != b:
                    g.add_edge(int(a), int(b), 0.5)
            uf = UF(range(n))
            for a, b in g.edges:
                uf.union(a, b)
            expect = {}
            for v in range(n):
                expect.setdefault(uf.find(v), set()).add(v)
            got = connected_components(g)
            assert sorted(map(sorted, got)) == sorted(
                sorted(s) for s in expect.values()
            )
