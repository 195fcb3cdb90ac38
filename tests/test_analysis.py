"""Property tests: the bit-parallel graph analysis against networkx and
against row-based references, and the packed-row kernels against the dense
reference products and the list route of `oracles`.  The analysis packs 64
roots to a word, so orders at and beside the word edges, irregular degrees
(padded neighbour slots) and graphs without edges are checked one by one; the
clique-partition test reads the same words, and is checked against the
row-based definition on partitions packed across the word edges."""

import math
import random

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from cage_spectra import _intmat, catalog, graphs, moore_bound, structural_check, verify_identities
from cage_spectra.graphs import Graph, _is_clique_partition
from oracles import (
    adjacency_eval_poly,
    adjacency_matmul,
    adjacency_rows,
    dense_eval_poly,
    distance_rows,
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


@st.composite
def sparse_graphs(draw):
    """65-160 vertices, so every bitset spans several machine words: a cycle
    through 0..length-1, random sparse edges that join it to further
    components and leave vertices isolated, and sometimes a spanning tree.
    Half of them keep every edge between an even and an odd vertex, so they
    are bipartite with even girth."""
    n = draw(st.integers(65, 160))
    bipartite = draw(st.booleans())
    length = draw(st.integers(3, n))
    if bipartite and length % 2:
        length -= 1
    edges = [(i, (i + 1) % length) for i in range(length)] if length >= 3 else []
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=n // 2))
    if draw(st.booleans()):
        # vertex v hangs from an earlier vertex, of the other parity if bipartite
        for v in range(1, n):
            if bipartite:
                other = 1 - v % 2
                edges.append((v, 2 * draw(st.integers(0, (v - 1 - other) // 2)) + other))
            else:
                edges.append((v, draw(st.integers(0, v - 1))))
    return Graph.from_edges(n, [(u, v) for u, v in edges
                                if u != v and not (bipartite and (u - v) % 2 == 0)])


def level_bitsets(analysis, i):
    """The word rows of level i as Python ints, bit v for vertex v (all 0
    beyond the eccentricities)."""
    words = analysis._words(i)
    return [0] * analysis.n if words is None else [int.from_bytes(row, "little") for row in words]


def check_against_networkx(graph):
    analysis = graph.analysis
    g = to_networkx(graph)
    assert analysis.girth == nx.girth(g)
    assert analysis.bipartite == nx.is_bipartite(g)
    lengths = dict(nx.all_pairs_shortest_path_length(g))
    rows = [[lengths[u].get(v, -1) for v in range(graph.n)] for u in range(graph.n)]
    # one level past the last, which must be empty
    for i in range(len(analysis.levels) + 1):
        assert level_bitsets(analysis, i) == [
            sum(1 << v for v, x in enumerate(row) if x == i) for row in rows
        ]
    connected = graph.n == 0 or nx.is_connected(g)
    assert analysis.connected == connected
    assert analysis.diameter == (nx.diameter(g) if connected and graph.n else None)
    return analysis, rows


@SETTINGS
@given(st.one_of(random_graphs(), forests(), cycle_unions()))
def test_analysis_matches_networkx(graph):
    check_against_networkx(graph)


def row_clique_partition(rows, far):
    """The row-based clique-partition test: the cell {u} + {v : dist(u, v) =
    far} is the same set seen from each of its members."""
    cells = [frozenset([u, *(v for v, x in enumerate(row) if x == far)])
             for u, row in enumerate(rows)]
    return all(cells[a] == cell for cell in cells for a in cell)


def word_clique_partition(analysis, far):
    """The clique-partition test on the word rows of level ``far``, as the
    structural check reads it: with no such level every cell is one vertex."""
    words = analysis._words(far)
    return words is None or _is_clique_partition(words)


@settings(max_examples=25, deadline=None)
@given(sparse_graphs())
def test_analysis_beyond_one_machine_word(graph):
    analysis, rows = check_against_networkx(graph)
    for far in range(1, 5):
        assert analysis.level_sizes(far) == [row.count(far) for row in rows]
        assert word_clique_partition(analysis, far) == row_clique_partition(rows, far)
        assert [_intmat.unpack(row, graph.n, 8) for row in analysis.distance_matrix((far,), 8)] == [
            [int(x == far) for x in row] for row in rows
        ]


def chorded_cycle(n, step):
    """A cycle through 0..n-1 with a chord from every fifth vertex, so the
    degrees are 2 and 3 and some vertex lists pad a neighbour slot; the last
    vertex, on or past a word edge, is on the cycle."""
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]
                            + [(i, (i + step) % n) for i in range(0, n, 5) if step % n])


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("step", [2, 7, 32])
def test_analysis_at_the_word_edges(n, step):
    analysis, rows = check_against_networkx(chorded_cycle(n, step))
    assert [len(level) for level in analysis.levels] == [n + 1] * len(analysis.levels)
    assert not any(level[n].any() for level in analysis.levels)  # the padding row
    assert analysis.level_sizes(1) == [row.count(1) for row in rows]


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
def test_analysis_with_isolated_vertices_and_a_star(n):
    # a hub joined to every fourth vertex: degrees from 0 to n/4
    graph = Graph.from_edges(n, [(0, v) for v in range(4, n, 4)])
    analysis, rows = check_against_networkx(graph)
    assert not analysis.connected and analysis.girth == math.inf
    assert analysis.level_sizes(2) == [row.count(2) for row in rows]


@pytest.mark.parametrize("n", [0, 1, 2, 64, 65])
def test_analysis_without_edges(n):
    analysis, _ = check_against_networkx(Graph(n, [()] * n))
    assert len(analysis.levels) == min(n, 1)
    assert level_bitsets(analysis, 0) == [1 << v for v in range(n)]
    assert level_bitsets(analysis, 1) == analysis.level_sizes(1) == [0] * n


def test_analysis_forest_and_null_graph():
    assert Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)]).analysis.girth == math.inf
    null = Graph(0, []).analysis
    assert (null.levels, null.girth, null.connected, null.diameter) == ([], math.inf, True, None)


def screening_candidate(k, d, e, seed):
    """A bipartite k-regular graph of order M(k, 2d) + e: the union of k
    perfect matchings between the halves, each drawn again until it repeats
    no edge."""
    rng = random.Random(seed)
    half = (moore_bound(k, 2 * d) + e) // 2
    edges = set()
    for _ in range(k):
        while True:
            matching = {(i, half + j) for i, j in enumerate(rng.sample(range(half), half))}
            if not matching & edges:
                edges |= matching
                break
    return Graph.from_edges(2 * half, sorted(edges))


def count_clique_tests(monkeypatch):
    """The number of rows of every level handed to the clique-partition test,
    the one step that reads a level's word rows past the BFS."""
    tested = []
    test = graphs._is_clique_partition

    def counted(words):
        tested.append(len(words))
        return test(words)

    monkeypatch.setattr(graphs, "_is_clique_partition", counted)
    return tested


@pytest.mark.parametrize("k, d, e", [(3, 5, 2), (4, 4, 2), (5, 3, 2)])
def test_a_failed_count_converts_no_level(monkeypatch, k, d, e):
    tested = count_clique_tests(monkeypatch)
    graph = screening_candidate(k, d, e, seed=27)
    assert set(graph.degrees) == {k} and graph.analysis.bipartite
    verdict = structural_check(graph, k, d, e)
    assert {"girth", "antipode-count", "antipodal-cliques"} <= set(verdict.failures)
    assert tested == []


def test_a_passing_graph_converts_only_the_levels_its_checks_read(monkeypatch):
    catalog.cache_clear()  # a graph built anew has no memoised verdict yet
    tested = count_clique_tests(monkeypatch)
    graph = catalog("moebius_kantor")
    assert structural_check(graph, 3, 3, 2).structure_ok  # e = k - 1: a regime note only
    assert tested == [16]  # level 4, once
    assert all(check.holds for check in verify_identities(graph, 3, 3, 2))
    assert tested == [16]  # the identities reuse the verdict
    heawood = catalog("heawood")
    assert structural_check(heawood, 3, 3, 0).passed
    assert all(check.holds for check in verify_identities(heawood, 3, 3, 0))
    assert tested == [16]  # excess 0: no pair at distance 4, no test


#: entries up to 2^80 in size, so fields run past one machine word
ENTRIES = st.one_of(st.integers(-20, 20), st.integers(-(2**80), 2**80))


def pack(rows, width):
    return [sum(x << width * j for j, x in enumerate(row)) for row in rows]


def unpack(rows, n, width):
    return [_intmat.unpack(row, n, width) for row in rows]


@SETTINGS
@given(random_graphs(), st.data())
def test_adjacency_matmul_matches_dense(graph, data):
    n = graph.n
    x = [data.draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(n)]
    expected = adjacency_matmul(graph.adjacency, x)
    assert expected == (_intmat.matmul(adjacency_rows(graph.adjacency), x) if n else [])
    bound = max(graph.degrees, default=0) * max((abs(v) for row in x for v in row), default=0)
    width = _intmat.field_width(bound)
    product = _intmat.packed_product(graph._degrees, graph._flat, pack(x, width))
    assert unpack(product, n, width) == expected
    assert _intmat.packed_max_abs(product, n, width) == max(
        (abs(v) for row in expected for v in row), default=0
    )
    assert _intmat.packed_trace(product, width) == sum(expected[i][i] for i in range(n))


@SETTINGS
@given(random_graphs(), st.lists(ENTRIES, max_size=5))
def test_adjacency_eval_poly_matches_dense(graph, coefficients):
    # the list route of the identity oracles; the dense reference needs a row
    expected = adjacency_eval_poly(coefficients, graph.adjacency)
    assert expected == dense_eval_poly(coefficients, adjacency_rows(graph.adjacency))


@SETTINGS
@given(st.one_of(random_graphs(), cycle_unions()), st.sets(st.integers(0, 4)),
       st.sampled_from([8, 72]))
def test_distance_matrix_matches_the_distance_rows(graph, distances, width):
    # the sum of the A_i over a set of distances, each one a 0/1 matrix
    packed = graph.analysis.distance_matrix(distances, width)
    assert unpack(packed, graph.n, width) == [
        [int(x in distances) for x in row] for row in distance_rows(graph.adjacency)
    ]
    assert _intmat.ones_row(graph.n, width) == sum(pack([[1] * graph.n], width))


def test_packed_kernels_on_the_null_graph():
    null = Graph(0, [])
    assert null.analysis.distance_matrix((0,), 8) == []
    assert _intmat.packed_product(null._degrees, null._flat, []) == []
    assert (_intmat.packed_max_abs([], 0, 8), _intmat.packed_trace([], 8)) == (0, 0)
    assert (_intmat.ones_row(0, 8), _intmat.unpack(0, 0, 8)) == (0, [])


def test_field_width_holds_the_bound():
    assert [_intmat.field_width(b) for b in (0, 127, 128, 2**63 - 1, 2**63)] == [8, 8, 16, 64, 72]
    assert _intmat.unpack(pack([[-127, 127, 0, -1]], 8)[0], 4, 8) == [-127, 127, 0, -1]


@SETTINGS
@given(st.one_of(random_graphs(), cycle_unions()), st.integers(1, 4))
def test_antipodal_clique_partition_matches_definition(graph, far):
    # the distance-``far`` relation is a disjoint clique union iff adding the
    # identity makes it transitive
    dists = distance_rows(graph.adjacency)
    n = graph.n
    related = [[u == v or dists[u][v] == far for v in range(n)] for u in range(n)]
    transitive = all(
        related[u][w]
        for u in range(n) for v in range(n) for w in range(n)
        if related[u][v] and related[v][w]
    )
    assert word_clique_partition(graph.analysis, far) == transitive


def pack_related(related):
    """The rows of a 0/1 relation as word rows, ceil(n/64) little-endian
    words each, the bits past n left as zero padding."""
    size = 8 * -(-len(related) // 64)
    bits = (sum(1 << v for v, r in enumerate(row) if r) for row in related)
    data = b"".join(row.to_bytes(size, "little") for row in bits)
    return np.frombuffer(data, "<u8").reshape(len(related), -1)


@pytest.mark.parametrize("order", [63, 64, 65, 128, 129, None])
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_word_clique_test_across_the_word_edges(order, data):
    # a random partition passes; toggling one symmetric pair may break it
    n = order or data.draw(st.integers(1, 200))
    cells = data.draw(st.integers(1, n))
    labels = data.draw(st.lists(st.integers(0, cells - 1), min_size=n, max_size=n))
    related = [[int(u != v and labels[u] == labels[v]) for v in range(n)] for u in range(n)]
    assert _is_clique_partition(pack_related(related))
    if n > 1:
        u, v = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        related[u][v] = related[v][u] = 1 - related[u][v]
        assert _is_clique_partition(pack_related(related)) == row_clique_partition(related, 1)
