import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import g6ref
from geometries import complete_bipartite
from oracles import antipodal_spectrum, decode_graph6_payload, identity_residual
from cage_spectra import (
    DegreeRangeError,
    Graph,
    Graph6ParseError,
    ParameterDomainError,
    StructuralRefusal,
    catalog,
    catalog_names,
    girth,
    moore_bound,
    parse_graph6,
    spectral_crosscheck,
    structural_check,
)
from cage_spectra import _intmat, graphs
from cage_spectra.cli import _verify_one


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def distance_matrix(graph, i):
    """A_i as lists, decoded from the word rows of the graph's BFS level i
    (all 0 beyond the eccentricities)."""
    levels, n = graph.analysis.levels, graph.n
    if i >= len(levels):
        return [[0] * n for _ in range(n)]
    return np.unpackbits(levels[i][:n].view(np.uint8), axis=1, count=n, bitorder="little").tolist()


def proved_residual(graph, k, d, e):
    """The oracle's identity residual on a graph whose structural check for
    (k, d, e) passes, regime notes aside: a graph the theorem of
    `cage_spectra.graphs` covers, where `verify` prints 0 uncomputed."""
    assert structural_check(graph, k, d, e).structure_ok
    return identity_residual(graph, k, d)


# ---------------------------------------------------------------------------
# Moore bound

def test_moore_bound_even_girth():
    assert moore_bound(3, 6) == 14
    assert moore_bound(4, 6) == 26
    assert moore_bound(3, 8) == 30
    for k in range(3, 11):
        assert moore_bound(k, 4) == 2 * k


def test_moore_bound_odd_girth():
    assert moore_bound(3, 5) == 10
    assert moore_bound(7, 5) == 50
    assert moore_bound(3, 3) == 4
    # closed geometric form as an independent cross-check
    for k in range(3, 8):
        for g in range(3, 13):
            if g % 2:
                expected = 1 + k * ((k - 1) ** ((g - 1) // 2) - 1) // (k - 2)
            else:
                expected = 2 * ((k - 1) ** (g // 2) - 1) // (k - 2)
            assert moore_bound(k, g) == expected


def test_moore_bound_matches_the_series():
    for k in range(2, 61):
        for g in range(3, 41):
            if g % 2:
                series = 1 + sum(k * (k - 1) ** j for j in range((g - 1) // 2))
            else:
                series = 2 * sum((k - 1) ** j for j in range(g // 2))
            assert moore_bound(k, g) == series, (k, g)


def test_moore_bound_domain():
    with pytest.raises(ParameterDomainError):
        moore_bound(1, 6)
    with pytest.raises(ParameterDomainError):
        moore_bound(3, 2)


# ---------------------------------------------------------------------------
# graph6

def test_parse_graph6_known_strings():
    empty5 = parse_graph6("D??")
    assert empty5.n == 5 and empty5.edge_count == 0
    k4 = parse_graph6("C~")
    assert k4.n == 4 and k4.edge_count == 6 and set(k4.degrees) == {3}
    star = parse_graph6(b"D?{")
    assert star.n == 5 and sorted(star.adjacency[4]) == [0, 1, 2, 3]
    with_header = parse_graph6(">>graph6<<C~")
    assert with_header == k4


def test_parse_graph6_roundtrip_random():
    rng = random.Random(20240811)
    for _ in range(200):
        n = rng.randint(1, 20)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35
        ]
        text = g6ref.encode_graph6(n, edges)
        graph = parse_graph6(text)
        assert graph.n == n
        assert graph.edge_count == len(edges)
        assert g6ref.encode_graph6(graph.n, [
            (u, v) for u in range(n) for v in graph.adjacency[u] if u < v
        ]) == text


def test_parse_graph6_long_order_header():
    # n >= 63 switches to the 18-bit order header
    rng = random.Random(7)
    n = 80
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.1]
    graph = parse_graph6(g6ref.encode_graph6(n, edges))
    assert graph.n == n and graph.edge_count == len(edges)


def test_parse_graph6_catalog_roundtrip(heawood):
    edges = [(u, v) for u in range(heawood.n) for v in heawood.adjacency[u] if u < v]
    assert parse_graph6(g6ref.encode_graph6(heawood.n, edges)) == heawood


def test_parse_graph6_errors():
    with pytest.raises(Graph6ParseError, match="empty"):
        parse_graph6("")
    with pytest.raises(Graph6ParseError, match="^character out of range at byte 1: 31$"):
        parse_graph6("C\x1f??")
    for text in ("B\xffw", b"B\xffw"):
        with pytest.raises(Graph6ParseError, match="^character out of range at byte 1: 255$"):
            parse_graph6(text)
    # a str is indexed like the bytes it stands for: after whitespace and the
    # header are stripped, and at the first out-of-range character
    for text in ("B\u20acw", " B\u20acw", ">>graph6<<B\u20acw"):
        with pytest.raises(Graph6ParseError, match="^character out of range at byte 1: 8364$"):
            parse_graph6(text)
    for text in (" B\xffw", " B\xff\u20acw", b" B\xffw"):
        with pytest.raises(Graph6ParseError, match="^character out of range at byte 1: 255$"):
            parse_graph6(text)
    with pytest.raises(Graph6ParseError, match="wrong length"):
        parse_graph6("C~~")
    with pytest.raises(Graph6ParseError, match="wrong length"):
        parse_graph6("D?")
    with pytest.raises(Graph6ParseError, match="padding"):
        parse_graph6("A@")  # n=2 needs 1 bit; a set pad bit is invalid


@pytest.mark.parametrize("text,bits", [("~", 18), ("~??", 18), ("~~", 36), ("~~?????", 36)])
def test_parse_graph6_truncated_order_header(text, bits):
    """An order header cut short names the field it cut: 18 bits after one
    "~", 36 after two."""
    for data in (text, text.encode()):
        with pytest.raises(
            Graph6ParseError, match=f"^malformed header: truncated {bits}-bit order$"
        ):
            parse_graph6(data)


@pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 8, 10])
def test_parse_graph6_rejects_every_set_padding_bit(n):
    nbits = n * (n - 1) // 2
    complete_payload = [63] * ((nbits + 5) // 6)  # every pair an edge, padding clear
    complete_payload[-1] &= ~((1 << (-nbits % 6)) - 1)
    text = chr(63 + n) + "".join(chr(63 + v) for v in complete_payload)
    assert parse_graph6(text).edge_count == nbits
    for bit in range(-nbits % 6):
        payload = complete_payload[:]
        payload[-1] |= 1 << bit
        with pytest.raises(Graph6ParseError, match="^trailing padding bits are nonzero$"):
            parse_graph6(chr(63 + n) + "".join(chr(63 + v) for v in payload))


def test_parse_graph6_memory_is_bounded_by_the_payload():
    """A sparse 10,000-vertex cycle has a payload of about 8.3 MB; the parse
    allocates less than 1.5 times that at its peak (numpy reports its buffers
    to tracemalloc), where a bit string of n(n-1)/2 characters would take 6."""
    n = 10_000
    nbits = n * (n - 1) // 2
    body = bytearray(b"?" * ((nbits + 5) // 6))
    for i, j in [(0, n - 1)] + [(i, i + 1) for i in range(n - 1)]:
        t = j * (j - 1) // 2 + i
        body[t // 6] += 32 >> t % 6
    text = bytes([126] + [63 + (n >> s & 63) for s in (12, 6, 0)]) + body
    tracemalloc.start()
    try:
        graph = parse_graph6(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.n == n and set(graph.degrees) == {2} and graph.edge_count == n
    assert graph.adjacency[0] == (1, n - 1) and graph.adjacency[n - 1] == (0, n - 2)
    assert peak < 1.5 * len(body)


@st.composite
def edge_lists(draw):
    """(n, distinct pairs i < j, the same edges in random order and
    orientation with some repeated), n across the 62/63 order-header edge."""
    n = draw(st.integers(0, 200))
    density = draw(st.sampled_from([0.0, 0.01, 0.05, 0.3, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pairs = [(i, j) for j in range(n) for i in range(j) if rng.random() < density]
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
    edges += rng.sample(edges, len(edges) // 4)
    rng.shuffle(edges)
    return n, pairs, edges


def _complete_case(n):
    pairs = [(i, j) for j in range(n) for i in range(j)]
    return n, pairs, pairs


def _payload(n, text):
    """The payload bytes of a graph6 string of order ``n``."""
    return text.encode()[len(text) - (n * (n - 1) // 2 + 5) // 6:]


@settings(max_examples=80, deadline=None)
@given(edge_lists())
@example((0, [], []))
@example((1, [], []))
@example((63, [], []))
@example(_complete_case(4))  # payloads of 1, 2, 3 and 4 bytes with every
@example(_complete_case(5))  # bit set
@example(_complete_case(6))
@example(_complete_case(7))
@example(_complete_case(62))
@example(_complete_case(63))
def test_parse_graph6_matches_the_bitwise_oracle(case):
    n, pairs, edges = case
    text = g6ref.encode_graph6(n, pairs)
    graph = parse_graph6(text)
    rows = [[] for _ in range(n)]
    for i, j in pairs:
        rows[i].append(j)
        rows[j].append(i)
    assert graph.n == n
    assert graph.adjacency == decode_graph6_payload(n, _payload(n, text))
    assert graph.adjacency == tuple(tuple(sorted(row)) for row in rows)
    assert graph == Graph.from_edges(n, edges)
    assert Graph(graph.n, graph.adjacency) == graph
    assert all(type(v) is int for row in graph.adjacency for v in row)


def _outcome(decode, *args):
    try:
        return decode(*args)
    except Graph6ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("n", [2, 3, 5, 6, 8, 10, 62, 63, 64])
def test_parse_graph6_payload_corruptions_match_the_bitwise_oracle(n):
    """Each payload byte changed to other in-range values and each padding bit
    set: the parser and the oracle give the same rows or the same error.  The
    header, byte-range and length checks are covered by the tests above."""
    rng = random.Random(n)
    pairs = [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.4]
    text = g6ref.encode_graph6(n, pairs)
    head, body = text.encode()[: len(text) - len(_payload(n, text))], _payload(n, text)
    broken = [body[:-1] + bytes([63 + ((body[-1] - 63) | 1 << bit)])
              for bit in range(-(n * (n - 1) // 2) % 6)]
    for pos in range(len(body)):
        for byte in {63, 126, rng.randrange(63, 127)} - {body[pos]}:
            broken.append(body[:pos] + bytes([byte]) + body[pos + 1:])
    padding_errors = 0
    for payload in broken:
        got = _outcome(lambda: parse_graph6(head + payload).adjacency)
        assert got == _outcome(decode_graph6_payload, n, payload), payload
        padding_errors += got == "trailing padding bits are nonzero"
    assert padding_errors >= -(n * (n - 1) // 2) % 6


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [(0, 1), (0,)])
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, [(1,), ()])
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(3,), ()])
    # the first failure in row order is the one reported
    cases = [
        ([(1,), (0, 2), ()], "^asymmetric adjacency: 1 -> 2$"),
        ([(1,), (0, 1), (5,)], "^self-loop at vertex 1$"),
        ([(1, 2**70), (0,), ()], "^vertex 1180591620717411303424 out of range in row 0$"),
        ([(2, -1), (), (0,)], "^vertex -1 out of range in row 0$"),
        ([(2,), (2,), (0,)], "^asymmetric adjacency: 1 -> 2$"),
    ]
    for rows, message in cases:
        with pytest.raises(ValueError, match=message):
            Graph(3, rows)
    with pytest.raises(ValueError, match="^adjacency has 2 rows for n=3$"):
        Graph(3, [(), ()])
    assert Graph(3, [[2, 1, 1], {0}, iter([0])]).adjacency == ((1, 2), (0,), (0,))


@pytest.mark.parametrize(
    "edge", [(0, 5), (5, 0), (-4, 1), (1, -4), (-1, 2), (2, -1), (2**70, 1)]
)
def test_from_edges_rejects_an_out_of_range_end(edge):
    bad = next(v for v in edge if not 0 <= v < 3)
    message = rf"^vertex {bad} out of range in edge \({edge[0]}, {edge[1]}\)$"
    with pytest.raises(ValueError, match=message):
        Graph.from_edges(3, [(0, 1), edge, (7, 8)])


#: 10^5000, a number past Python's default int-string limit of 4,300 digits.
HUGE = 10**5000
HUGE_TEXT = "1" + "0" * 5000


@pytest.mark.parametrize("build, message", [
    (lambda: Graph(3, [[HUGE], [], []]), f"vertex {HUGE_TEXT} out of range in row 0"),
    (lambda: Graph.from_edges(3, [(0, HUGE)]),
     f"vertex {HUGE_TEXT} out of range in edge (0, {HUGE_TEXT})"),
    (lambda: Graph(HUGE, []), f"adjacency has 0 rows for n={HUGE_TEXT}"),
], ids=["row-vertex", "edge-end", "order"])
def test_a_graph_error_names_a_number_past_the_int_string_limit_in_full(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_from_edges_rejects_a_self_loop_and_merges_repeats():
    with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
        Graph.from_edges(3, [(2, 2), (0, 1), (1, 1)])
    assert Graph.from_edges(3, iter([(1, 0), (0, 1), (2, 1)])).adjacency == ((1,), (0, 2), (1,))
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1, 2), (1, 2, 0)])


def test_a_non_integer_vertex_is_rejected():
    for edges in ([(0.5, 1)], [(0, 1.0)], [("0", 1)]):
        with pytest.raises(TypeError):
            Graph.from_edges(3, edges)
    for rows in ([(1.0,), (0,)], [(1,), (0.0,)], [("1",), (0,)]):
        with pytest.raises(TypeError):
            Graph(2, rows)


@pytest.mark.parametrize("build", [
    lambda: Graph(2.0, [[1], [0]]),
    lambda: Graph(2, [[1.0], [0]]),
    lambda: Graph(2, [[1], ["0"]]),
    lambda: Graph.from_edges(2.0, [(0, 1)]),
    lambda: Graph.from_edges(2, [(0, 1.0)]),
    lambda: Graph.from_edges(2, [("0", 1)]),
], ids=["order", "row-float", "row-str", "edges-order", "edge-float", "edge-str"])
def test_the_order_and_every_label_are_read_as_integers(build):
    """`Graph(2.0, rows)` once built a graph with n = 2.0 that
    `structural_check` failed inside with a TypeError; the order and every
    label are now read through `operator.index` at construction."""
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        build()


def test_a_graph_prints_its_order_and_edge_count():
    assert repr(cycle(6)) == "Graph(n=6, m=6)"
    assert repr(Graph(0, [])) == "Graph(n=0, m=0)"


def test_graph_analysis_is_built_once():
    """The graph keeps its one analysis; a structural verdict is a plain
    function of the graph and the claim, computed from that analysis on each
    call and kept nowhere, so two calls give equal verdicts, not one object."""
    graph = cycle(6)
    analysis = graph.analysis
    assert graph.analysis is analysis
    first, second = structural_check(graph, 2, 3, 0), structural_check(graph, 2, 3, 0)
    assert girth(graph) == 6 and first.passed and first == second and first is not second
    assert graph.analysis is analysis


# ---------------------------------------------------------------------------
# girth and distance matrices

def test_girth_small_graphs(heawood):
    assert girth(cycle(5)) == 5
    assert girth(complete(4)) == 3
    assert girth(heawood) == 6
    forest = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    assert girth(forest) == math.inf


def test_distance_matrices_path2():
    graph = Graph.from_edges(2, [(0, 1)])
    assert graph.analysis.diameter == 1
    assert distance_matrix(graph, 0) == [[1, 0], [0, 1]]
    assert distance_matrix(graph, 1) == [[0, 1], [1, 0]]


def test_distance_matrices_c4_antipodes():
    assert distance_matrix(cycle(4), 2) == [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]


def test_distance_matrices_heawood_oracle(heawood):
    import networkx as nx

    assert heawood.analysis.diameter == 3
    assert {sum(row) for row in distance_matrix(heawood, 3)} == {4}
    # every row partitions the other 13 vertices
    for u in range(heawood.n):
        assert sum(sum(distance_matrix(heawood, i)[u]) for i in range(1, 4)) == heawood.n - 1
    # full cross-check against networkx BFS
    G = nx.Graph([(u, v) for u in range(heawood.n) for v in heawood.adjacency[u]])
    lengths = dict(nx.all_pairs_shortest_path_length(G))
    for i in range(4):
        mat = distance_matrix(heawood, i)
        for u in range(14):
            for v in range(14):
                assert mat[u][v] == (1 if lengths[u][v] == i else 0)


@pytest.mark.parametrize("name", ["heawood", "tutte_coxeter", "moebius_kantor", "pg23_incidence"])
def test_distance_matrices_partition_and_symmetry(name):
    graph = catalog(name)
    total = [[0] * graph.n for _ in range(graph.n)]
    for i in range(graph.analysis.diameter + 1):
        mat = distance_matrix(graph, i)
        assert mat == [list(col) for col in zip(*mat)]  # symmetric
        for u in range(graph.n):
            for v in range(graph.n):
                total[u][v] += mat[u][v]
    assert all(x == 1 for row in total for x in row)  # sums to J


# ---------------------------------------------------------------------------
# structural checks

def test_structural_heawood(heawood):
    verdict = structural_check(heawood, 3, 3, 0)
    assert verdict.passed
    assert verdict.girth == 6 and verdict.diameter == 3
    assert verdict.antipode_count_per_vertex == 0
    assert verdict.clique_count is None  # not applicable at excess 0
    assert verdict.excess == 0


def test_structural_k33_below_regime():
    k33 = Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    verdict = structural_check(k33, 3, 2, 0)
    assert "half-girth-range" in verdict.failures


@pytest.mark.parametrize("k, d", [(1, 3), (0, 3), (2, 1), (3, 1), (-2, 0)])
def test_an_undefined_moore_bound_fails_the_order(k, d):
    """Where M(k, 2d) is undefined (k < 2 or 2d < 3), the verdict records
    the order as failed, with no excess, and raises nothing."""
    verdict = structural_check(cycle(6), k, d, 0)
    assert "order" in verdict.failures and verdict.excess is None


def test_structural_tutte_coxeter(tutte_coxeter):
    assert structural_check(tutte_coxeter, 3, 4, 0).passed


def test_structural_pg23(pg23):
    verdict = structural_check(pg23, 4, 3, 0)
    assert verdict.passed and verdict.excess == 0


def test_structural_moebius_kantor_consistency(moebius_kantor):
    # the verdict is computed, not presumed; everything downstream is
    # conditional on what it reports.  At k = 3 the excess 2 exceeds k - 2,
    # which is a regime note, not a structural inconsistency.
    verdict = structural_check(moebius_kantor, 3, 3, 2)
    assert verdict.regime_notes == ("excess-range",)
    if verdict.structure_ok:
        assert verdict.clique_count == 2 * 16 // 4 == 8
        assert verdict.antipode_count_per_vertex == 1
        assert verdict.diameter == 4
    assert verdict.excess == 2


def test_structural_wrong_parameters(heawood):
    verdict = structural_check(heawood, 3, 3, 2)
    assert not verdict.passed
    assert "order" in verdict.failures


@pytest.mark.parametrize("d", [5, 10**8, 10**30])
def test_a_claim_past_the_graph_fails_the_order_without_the_bound(d, monkeypatch):
    """M(k, 2d) >= 2^d for k >= 3, so n - e < 2^d fails the order with no
    bound computed: at d = 10^8 the bound alone took minutes, and at 10^30 it
    could not finish.  The failures are those a computed bound gives at
    d = 5 (26 - M(4, 10) = -216, not 0), and the bound still runs where the
    order can hold.  At k = 2, M(2, 2d) = 2d < 2^d, so the shortcut does not
    apply: C_6 has the order of (2, 3, 0)."""
    calls = []
    bound = graphs.moore_bound
    monkeypatch.setattr(graphs, "moore_bound", lambda *args: calls.append(args) or bound(*args))
    graph = graphs._difference_graph(13, (0, 1, 3, 9))  # PG(2, 3), no verdict kept yet
    verdict = structural_check(graph, 4, d, 0)
    assert calls == [] and verdict.excess is None
    assert verdict.failures == ("girth", "order", "diameter")
    assert structural_check(graph, 4, 3, 0).passed and calls == [(4, 6)]
    assert structural_check(cycle(6), 2, 3, 0).excess == 0 and calls[1:] == [(2, 6)]


# ---------------------------------------------------------------------------
# the exact identities: proved by the structural check, computed by the oracle
# (one residual serves both, the difference A·M + k·M - k·J)

def test_path_count_identity_heawood(heawood):
    assert proved_residual(heawood, 3, 3, 0) == 0


def test_path_count_identity_tutte_coxeter(tutte_coxeter):
    assert proved_residual(tutte_coxeter, 3, 4, 0) == 0


def test_allones_identity_heawood(heawood):
    assert proved_residual(heawood, 3, 3, 0) == 0


def test_allones_identity_tutte_coxeter(tutte_coxeter):
    assert proved_residual(tutte_coxeter, 3, 4, 0) == 0


def test_identities_moebius_kantor_conditional(moebius_kantor):
    if structural_check(moebius_kantor, 3, 3, 2).structure_ok:
        assert proved_residual(moebius_kantor, 3, 3, 2) == 0
        result = _verify_one("moebius_kantor", moebius_kantor, 3, 3, 2)
        assert result["path_count_residual"] == result["allones_residual"] == 0


@pytest.mark.parametrize(
    "graph,k,d,e",
    [
        (catalog("heawood"), 3, 3, 0),
        (catalog("tutte_coxeter"), 3, 4, 0),
        (catalog("moebius_kantor"), 3, 3, 2),
        (catalog("pg23_incidence"), 4, 3, 0),
        (catalog("z14_antipodal"), 4, 3, 2),
        (complete_bipartite(3), 3, 2, 0),
        (complete_bipartite(4, matching_removed=True), 3, 2, 2),
    ],
    ids=["heawood", "tutte_coxeter", "moebius_kantor", "pg23_incidence", "z14_antipodal", "K33",
         "K44-matching"],
)
def test_identities_take_at_most_d_packed_products(graph, k, d, e, monkeypatch):
    # the structural check proves both identities, so `verify` takes no
    # packed product at any d, whether or not A_{d+1} is zero; the oracle
    # confirms the 0 it prints with its one product, A·M
    products = []
    product = _intmat.packed_product

    def recording(degrees, flat, rows):
        products.append(len(rows))
        return product(degrees, flat, rows)

    monkeypatch.setattr(_intmat, "packed_product", recording)
    result = _verify_one("graph", graph, k, d, e)
    assert result["path_count_residual"] == result["allones_residual"] == 0 and result["ok"]
    assert products == []
    assert proved_residual(graph, k, d, e) == 0
    assert products == [graph.n]


def test_identity_refusal():
    # no structure, no theorem: `verify` prints no residual, and the
    # cross-check refuses
    result = _verify_one("C5", cycle(5), 3, 3, 0)
    assert (result["path_count_residual"], result["allones_residual"]) == (None, None)
    assert not result["ok"]
    with pytest.raises(StructuralRefusal, match="^cross-check preconditions failed: "):
        spectral_crosscheck(cycle(5), 3, 3, 0)


def two_heawood_graphs():
    heawood = catalog("heawood")
    edges = [(s + u, s + v) for s in (0, 14) for u in range(14) for v in heawood.adjacency[u]]
    return Graph.from_edges(28, edges)


@pytest.mark.parametrize("build, claim, failed", [
    (lambda: Graph(0, []), (3, 3, 0), "connected"),
    (lambda: Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), (3, 3, 0), "regularity"),
    (lambda: complete(4), (3, 3, 0), "bipartite"),
    (lambda: cycle(5), (3, 3, 0), "regularity, bipartite"),
    (two_heawood_graphs, (3, 3, 0), "connected"),
], ids=["order-0", "irregular", "K4", "C5", "two-heawood"])
def test_crosscheck_refusal_names_the_failed_facts(build, claim, failed):
    """The cross-check guards the three facts its SVD reads, k-regular,
    bipartite and connected, names each that fails, and asks for no
    structural verdict."""
    with pytest.raises(StructuralRefusal) as info:
        spectral_crosscheck(build(), *claim)
    assert str(info.value) == f"cross-check preconditions failed: {failed}"


@pytest.mark.parametrize("graph, k", [
    (Graph(1, [[]]), 0), (Graph(2, [[1], [0]]), 1), (cycle(6), 2),
], ids=["K1", "K2", "C6"])
def test_crosscheck_refuses_a_degree_below_three(graph, k):
    """K_1, K_2 and C_6 are k-regular, bipartite and connected, but H_{d-1}
    is defined for k >= 3 only; K_1 has no second colour class to build N
    from, and is refused before one is built."""
    with pytest.raises(DegreeRangeError, match=f"^degree k must be >= 3, got {k}$"):
        spectral_crosscheck(graph, k, 3, 0)


def test_crosscheck_reads_no_other_condition_of_the_claim(monkeypatch):
    """K_{3,3} is 3-regular, bipartite and connected but of girth 4, so it
    fails the structural check for (3, 3, 0); the cross-check still runs,
    computes no verdict, and its report is not ok: the non-valence
    eigenvalues are 0, where H_2(x) = x^2 - 2 is 2 away from the target 0."""

    def never(*args):
        raise AssertionError("the cross-check asked for a structural verdict")

    k33 = complete_bipartite(3)
    assert not structural_check(k33, 3, 3, 0).structure_ok
    monkeypatch.setattr(graphs, "structural_check", never)
    report = spectral_crosscheck(k33, 3, 3, 0)
    assert not report.ok and report.max_deviation == 2
    assert report.thetas == pytest.approx([0.0] * 4, abs=1e-12)


# ---------------------------------------------------------------------------
# antipodal spectrum and eigenvalue cross-check

def test_antipodal_spectrum_values():
    assert antipodal_spectrum(16, 2) == [(1, 8), (-1, 8)]
    assert antipodal_spectrum(28, 2) == [(1, 14), (-1, 14)]
    assert antipodal_spectrum(6, 4) == [(2, 2), (-1, 4)]


def test_antipodal_spectrum_against_eigensolver():
    # three disjoint K2 blocks: eigenvalues must be {+1 x3, -1 x3}
    blocks = np.kron(np.eye(3), np.array([[0, 1], [1, 0]]))
    eigenvalues = sorted(np.linalg.eigvalsh(blocks))
    assert eigenvalues == pytest.approx([-1, -1, -1, 1, 1, 1], abs=1e-12)
    assert antipodal_spectrum(6, 2) == [(1, 3), (-1, 3)]


def test_antipodal_spectrum_trace_and_total():
    for n in range(4, 60):
        for e in (2, 4, 6, 8):
            if (2 * n) % (e + 2):
                continue
            spectrum = antipodal_spectrum(n, e)
            assert sum(mult for _, mult in spectrum) == n
            assert sum(val * mult for val, mult in spectrum) == 0


def test_antipodal_spectrum_divisibility_error():
    with pytest.raises(ParameterDomainError):
        antipodal_spectrum(5, 2)
    with pytest.raises(ParameterDomainError):
        antipodal_spectrum(16, 3)


def test_spectral_crosscheck_heawood(heawood):
    report = spectral_crosscheck(heawood, 3, 3, 0)
    assert report.ok
    assert report.targets == (0.0,)
    # the non-valence eigenvalues of this graph are +-sqrt(2)
    assert sorted(set(round(t, 6) for t in report.thetas)) == [
        round(-math.sqrt(2), 6),
        round(math.sqrt(2), 6),
    ]


def test_spectral_crosscheck_moebius_kantor(moebius_kantor):
    if not structural_check(moebius_kantor, 3, 3, 2).structure_ok:
        pytest.skip("structural verdict failed; nothing to assert")
    report = spectral_crosscheck(moebius_kantor, 3, 3, 2)
    assert report.ok
    assert report.targets == (1.0, -1.0)
    expected = {round(v, 6) for v in (1.0, -1.0, math.sqrt(3), -math.sqrt(3))}
    assert {round(t, 6) for t in report.thetas} == expected


def test_spectral_crosscheck_refusal():
    with pytest.raises(StructuralRefusal):
        spectral_crosscheck(complete(4), 3, 3, 0)


# ---------------------------------------------------------------------------
# catalog

def test_catalog_names_and_metadata():
    assert catalog_names() == (
        "heawood", "moebius_kantor", "pg23_incidence", "tutte_coxeter", "z14_antipodal",
    )
    expectations = {
        "heawood": (14, 3, 6),
        "tutte_coxeter": (30, 3, 8),
        "moebius_kantor": (16, 3, 6),
        "pg23_incidence": (26, 4, 6),
        "z14_antipodal": (28, 4, 6),
    }
    for name, (n, k, g) in expectations.items():
        graph = catalog(name)
        assert graph.n == n
        assert set(graph.degrees) == {k}
        assert girth(graph) == g


def test_catalog_unknown_name():
    with pytest.raises(ParameterDomainError, match="unknown catalog graph"):
        catalog("petersen")


@pytest.mark.parametrize("field, value", [("n", 15), ("k", 4), ("girth", 8)])
def test_a_catalog_graph_is_checked_against_its_metadata_at_each_load(monkeypatch, field, value):
    """`catalog` builds its graph anew on each call, so an entry whose
    metadata disagrees with what it builds fails at the next load."""
    entry = graphs._CATALOG["heawood"]
    monkeypatch.setitem(graphs._CATALOG, "heawood", dataclasses.replace(entry, **{field: value}))
    with pytest.raises(AssertionError, match="entry 'heawood' failed its metadata validation"):
        catalog("heawood")
