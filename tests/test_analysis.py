"""Property tests: the one-pass graph analysis against networkx, and the
adjacency-list kernels against the dense reference products."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cage_spectra import _intmat
from cage_spectra.graphs import (
    Graph,
    GraphAnalysis,
    _antipodal_clique_partition,
    structural_check,
)

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def random_graphs(draw, max_n=10):
    """Random simple graphs, padded with 0-2 isolated vertices."""
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                       max_size=len(pairs)))) if keep]
    return Graph.from_edges(n + draw(st.integers(0, 2)), edges)


@st.composite
def forests(draw, max_n=12):
    """Each vertex hangs from an earlier one or starts a new tree; girth inf."""
    n = draw(st.integers(1, max_n))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(-1, v - 1))
        if parent >= 0:
            edges.append((parent, v))
    return Graph.from_edges(n, edges)


@st.composite
def cycle_unions(draw):
    """Disjoint cycles, odd and even, plus chords: often disconnected and
    often not bipartite."""
    lengths = draw(st.lists(st.integers(3, 9), min_size=1, max_size=3))
    edges, start = [], 0
    for length in lengths:
        edges += [(start + i, start + (i + 1) % length) for i in range(length)]
        start += length
    for u, v in draw(st.lists(st.tuples(st.integers(0, start - 1), st.integers(0, start - 1)),
                              max_size=2)):
        if u != v:
            edges.append((u, v))
    return Graph.from_edges(start, edges)


def to_networkx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from((u, v) for u in range(graph.n) for v in graph.adjacency[u] if u < v)
    return g


@SETTINGS
@given(st.one_of(random_graphs(), forests(), cycle_unions()))
def test_analysis_matches_networkx(graph):
    analysis = GraphAnalysis(graph)
    g = to_networkx(graph)
    assert analysis.girth == nx.girth(g)
    assert analysis.bipartite == nx.is_bipartite(g)
    lengths = dict(nx.all_pairs_shortest_path_length(g))
    assert analysis.distances == [
        [lengths[u].get(v, -1) for v in range(graph.n)] for u in range(graph.n)
    ]
    connected = graph.n == 0 or nx.is_connected(g)
    assert analysis.connected == connected
    assert analysis.diameter == (nx.diameter(g) if connected and graph.n else None)


def test_analysis_forest_and_null_graph():
    assert GraphAnalysis(Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])).girth == math.inf
    null = GraphAnalysis(Graph(0, []))
    assert (null.distances, null.girth, null.connected, null.diameter) == ([], math.inf, True, None)


@SETTINGS
@given(random_graphs(), st.data())
def test_adjacency_matmul_matches_dense(graph, data):
    width = data.draw(st.integers(1, 4))
    x = [data.draw(st.lists(st.integers(-9, 9), min_size=width, max_size=width))
         for _ in range(graph.n)]
    assert _intmat.adjacency_matmul(graph.adjacency, x) == (
        _intmat.matmul(graph.adjacency_matrix(), x) if graph.n else []
    )


@SETTINGS
@given(random_graphs(), st.lists(st.integers(-20, 20), max_size=5))
def test_adjacency_eval_poly_matches_dense(graph, coefficients):
    # the dense reference needs at least one row
    expected = _intmat.eval_poly(coefficients, graph.adjacency_matrix()) if graph.n else []
    assert _intmat.adjacency_eval_poly(coefficients, graph.adjacency) == expected


@SETTINGS
@given(st.one_of(random_graphs(), cycle_unions()), st.integers(1, 4))
def test_antipodal_clique_partition_matches_definition(graph, far):
    # the distance-``far`` relation is a disjoint clique union iff adding the
    # identity makes it transitive
    dists = GraphAnalysis(graph).distances
    n = graph.n
    related = [[u == v or dists[u][v] == far for v in range(n)] for u in range(n)]
    transitive = all(
        related[u][w]
        for u in range(n) for v in range(n) for w in range(n)
        if related[u][v] and related[v][w]
    )
    assert _antipodal_clique_partition(dists, far) == transitive


def test_analysis_of_another_graph_is_rejected(heawood, tutte_coxeter):
    with pytest.raises(ValueError, match="another graph"):
        structural_check(heawood, 3, 3, 0, analysis=GraphAnalysis(tutte_coxeter))
    analysis = GraphAnalysis(heawood)
    assert structural_check(heawood, 3, 3, 0, analysis=analysis).passed
