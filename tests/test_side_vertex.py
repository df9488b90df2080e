"""Tests for strong side-vertex detection and maintenance."""

from hypothesis import given, settings, strategies as st

from repro.core.side_vertex import (
    is_strong_side_vertex,
    k_common_partners,
    split_inheritance,
    strong_side_vertices,
)
from repro.graph.generators import complete_graph, gnp_random_graph
from repro.graph.graph import Graph

from helpers import random_connected_graph


class TestKCommonPartners:
    def test_shared_neighbors_counted(self):
        # 0 and 1 share neighbors 2, 3, 4.
        g = Graph([(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        assert 1 in k_common_partners(g, 0, 3)
        assert 1 not in k_common_partners(g, 0, 4)

    def test_self_excluded(self):
        g = complete_graph(5)
        assert 0 not in k_common_partners(g, 0, 1)

    def test_adjacent_vertices_can_appear(self):
        g = complete_graph(5)
        # In K5 every pair shares 3 common neighbors.
        assert k_common_partners(g, 0, 3) == {1, 2, 3, 4}


class TestStrongSideVertex:
    def test_clique_vertices_are_strong(self):
        g = complete_graph(6)
        for v in g.vertices():
            assert is_strong_side_vertex(g, v, 4)

    def test_cut_vertex_is_not_strong(self):
        # Two triangles joined at vertex 2: at k=2, vertex 2's neighbors
        # 0 and 3 are non-adjacent with no common neighbor besides 2.
        g = Graph([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        assert not is_strong_side_vertex(g, 2, 2)

    def test_low_degree_vacuous(self):
        g = Graph([(0, 1)])
        assert is_strong_side_vertex(g, 0, 3)  # no neighbor pairs

    def test_strong_implies_side_vertex(self):
        """A strong side-vertex is in no inclusion-minimal < k cut.

        Checked exhaustively: for every < k cut S that disconnects G and
        every strong side-vertex u in S, S minus u must still be a cut
        (i.e. u is never essential to a small cut).
        """
        from itertools import combinations

        from repro.graph.connectivity import is_vertex_cut

        for seed in range(12):
            g = random_connected_graph(9, 0.45, seed=seed)
            for k in (2, 3):
                strong = strong_side_vertices(g, k)
                vertices = sorted(g.vertices())
                for size in range(1, k):
                    for s in combinations(vertices, size):
                        if not is_vertex_cut(g, s):
                            continue
                        for u in set(s) & strong:
                            rest = set(s) - {u}
                            assert is_vertex_cut(g, rest), (
                                f"strong vertex {u} essential to cut {s}"
                            )

    def test_candidates_restriction(self):
        g = complete_graph(5)
        out = strong_side_vertices(g, 3, candidates=[0, 2, 99])
        assert out == {0, 2}  # 99 not in graph -> skipped


def parent_child_views(graph, child_labels):
    """(parent, child) views on one base: the whole graph and the
    subgraph induced by ``child_labels``, plus the label -> id map."""
    base = graph.to_csr()
    ids = base.interner
    parent = base.full_view()
    child = parent.restrict(ids[v] for v in child_labels)
    return parent, child, ids


class TestSplitInheritance:
    def test_unchanged_vertex_inherited(self):
        parent, child, ids = parent_child_views(complete_graph(6), range(6))
        inherited, recheck = split_inheritance(
            parent, child, {ids[0], ids[1]}
        )
        assert inherited == {ids[0], ids[1]}
        assert recheck == set()

    def test_vertex_missing_from_child_dropped(self):
        parent, child, ids = parent_child_views(complete_graph(6), [0, 1, 2])
        inherited, recheck = split_inheritance(
            parent, child, {ids[0], ids[5]}
        )
        assert ids[5] not in inherited | recheck

    def test_degree_change_triggers_recheck(self):
        parent, child, ids = parent_child_views(
            complete_graph(6), [0, 1, 2, 3, 4]
        )
        inherited, recheck = split_inheritance(parent, child, {ids[0]})
        assert inherited == set()
        assert recheck == {ids[0]}

    def test_neighbor_degree_change_triggers_recheck(self):
        # Path 0-1-2-3 plus edge 1-4: removing 4 keeps deg(0..3) intact
        # except deg(1).  Vertex 0's neighbor (1) changed -> recheck.
        parent, child, ids = parent_child_views(
            Graph([(0, 1), (1, 2), (2, 3), (1, 4)]), [0, 1, 2, 3]
        )
        inherited, recheck = split_inheritance(
            parent, child, {ids[0], ids[3]}
        )
        assert ids[0] in recheck
        assert ids[3] in inherited  # 3's neighbor 2 is untouched

    def test_inherited_vertices_really_strong(self):
        """Soundness: every inherited vertex passes Theorem 8 in the child."""
        from repro.core.partition import overlap_partition
        from repro.core.global_cut import global_cut
        from repro.core.options import KVCCOptions

        for seed in range(10):
            graph = random_connected_graph(12, 0.4, seed=seed + 10)
            view = graph.to_csr().full_view()
            k = 3
            strong = strong_side_vertices(view, k)
            cut = global_cut(view, k, KVCCOptions())
            if cut is None:
                continue
            for child in overlap_partition(view, cut):
                inherited, _ = split_inheritance(view, child, strong)
                for v in inherited:
                    assert is_strong_side_vertex(child, v, k)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3_000), st.integers(2, 4))
def test_strong_side_vertex_definition(seed, k):
    """Theorem 8 equivalence with its own restatement: every neighbor pair
    is adjacent or has >= k common neighbors."""
    g = gnp_random_graph(10, 0.5, seed=seed)
    for u in g.vertices():
        nbrs = sorted(g.neighbors(u))
        expected = all(
            g.has_edge(v, w) or len(g.neighbors(v) & g.neighbors(w)) >= k
            for i, v in enumerate(nbrs)
            for w in nbrs[i + 1 :]
        )
        assert is_strong_side_vertex(g, u, k) == expected
