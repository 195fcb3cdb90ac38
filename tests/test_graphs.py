import math
import random

import numpy as np
import pytest

import g6ref
from cage_spectra import (
    Graph,
    Graph6ParseError,
    ParameterDomainError,
    StructuralRefusal,
    antipodal_spectrum,
    catalog,
    catalog_names,
    girth,
    moore_bound,
    parse_graph6,
    spectral_crosscheck,
    structural_check,
    verify_allones_identity,
    verify_path_count_identity,
)
from cage_spectra import _intmat
from cage_spectra.graphs import GraphAnalysis


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


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
    with pytest.raises(Graph6ParseError, match="^character out of range at byte 1: 8364$"):
        parse_graph6("B\u20acw")
    with pytest.raises(Graph6ParseError, match="wrong length"):
        parse_graph6("C~~")
    with pytest.raises(Graph6ParseError, match="wrong length"):
        parse_graph6("D?")
    with pytest.raises(Graph6ParseError, match="padding"):
        parse_graph6("A@")  # n=2 needs 1 bit; a set pad bit is invalid


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


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [(0, 1), (0,)])
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, [(1,), ()])
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(3,), ()])


# ---------------------------------------------------------------------------
# girth and distance matrices

def test_girth_small_graphs(heawood):
    assert girth(cycle(5)) == 5
    assert girth(complete(4)) == 3
    assert girth(heawood) == 6
    forest = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    assert girth(forest) == math.inf


def test_distance_matrices_path2():
    analysis = GraphAnalysis(Graph.from_edges(2, [(0, 1)]))
    assert analysis.diameter == 1
    assert analysis.distance_matrix(0) == [[1, 0], [0, 1]]
    assert analysis.distance_matrix(1) == [[0, 1], [1, 0]]


def test_distance_matrices_c4_antipodes():
    analysis = GraphAnalysis(cycle(4))
    assert analysis.distance_matrix(2) == [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]


def test_distance_matrices_heawood_oracle(heawood):
    import networkx as nx

    analysis = GraphAnalysis(heawood)
    assert analysis.diameter == 3
    assert {sum(row) for row in analysis.distance_matrix(3)} == {4}
    # every row partitions the other 13 vertices
    for u in range(heawood.n):
        assert sum(sum(analysis.distance_matrix(i)[u]) for i in range(1, 4)) == heawood.n - 1
    # full cross-check against networkx BFS
    G = nx.Graph([(u, v) for u in range(heawood.n) for v in heawood.adjacency[u]])
    lengths = dict(nx.all_pairs_shortest_path_length(G))
    for i in range(4):
        mat = analysis.distance_matrix(i)
        for u in range(14):
            for v in range(14):
                assert mat[u][v] == (1 if lengths[u][v] == i else 0)


@pytest.mark.parametrize("name", ["heawood", "tutte_coxeter", "moebius_kantor", "pg23_incidence"])
def test_distance_matrices_partition_and_symmetry(name):
    graph = catalog(name)
    analysis = GraphAnalysis(graph)
    total = [[0] * graph.n for _ in range(graph.n)]
    for i in range(analysis.diameter + 1):
        mat = analysis.distance_matrix(i)
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


# ---------------------------------------------------------------------------
# exact identity verifiers

def test_path_count_identity_heawood(heawood):
    assert verify_path_count_identity(heawood, 3, 3, 0).residual == 0


def test_path_count_identity_tutte_coxeter(tutte_coxeter):
    assert verify_path_count_identity(tutte_coxeter, 3, 4, 0).residual == 0


def test_allones_identity_heawood(heawood):
    assert verify_allones_identity(heawood, 3, 3, 0).residual == 0


def test_allones_identity_tutte_coxeter(tutte_coxeter):
    assert verify_allones_identity(tutte_coxeter, 3, 4, 0).residual == 0


def test_identities_moebius_kantor_conditional(moebius_kantor):
    if structural_check(moebius_kantor, 3, 3, 2).structure_ok:
        assert verify_path_count_identity(moebius_kantor, 3, 3, 2).residual == 0
        assert verify_allones_identity(moebius_kantor, 3, 3, 2).residual == 0


def test_identities_skip_the_zero_distance_matrix(heawood, monkeypatch):
    # e = 0: A_{d+1} = 0, so neither A·A_{d+1} nor H_{d-1}(A) + A_{d+1} is formed
    nonzero = []
    product = _intmat.adjacency_matmul

    def recording(adjacency, x):
        nonzero.append(any(map(any, x)))
        return product(adjacency, x)

    def never(*args):
        raise AssertionError("the zero matrix A_{d+1} was added")

    monkeypatch.setattr(_intmat, "adjacency_matmul", recording)
    monkeypatch.setattr(_intmat, "mat_add", never)
    assert verify_path_count_identity(heawood, 3, 3, 0).residual == 0
    assert verify_allones_identity(heawood, 3, 3, 0).residual == 0
    assert nonzero and all(nonzero)


def test_identity_refusal():
    with pytest.raises(StructuralRefusal) as info:
        verify_path_count_identity(cycle(5), 3, 3, 0)
    assert info.value.verdict is not None and not info.value.verdict.passed
    with pytest.raises(StructuralRefusal):
        verify_allones_identity(cycle(5), 3, 3, 0)


def test_identity_refusal_carries_the_shared_verdict():
    graph = cycle(5)
    analysis = GraphAnalysis(graph)
    verdict = structural_check(graph, 3, 3, 0, analysis=analysis)
    for verifier in (verify_path_count_identity, verify_allones_identity, spectral_crosscheck):
        with pytest.raises(StructuralRefusal) as info:
            verifier(graph, 3, 3, 0, analysis=analysis)
        assert info.value.verdict is verdict
        assert str(info.value) == f"structural check failed: {', '.join(verdict.failures)}"


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
    assert catalog_names() == ("heawood", "moebius_kantor", "pg23_incidence", "tutte_coxeter")
    expectations = {
        "heawood": (14, 3, 6),
        "tutte_coxeter": (30, 3, 8),
        "moebius_kantor": (16, 3, 6),
        "pg23_incidence": (26, 4, 6),
    }
    for name, (n, k, g) in expectations.items():
        graph = catalog(name)
        assert graph.n == n
        assert set(graph.degrees) == {k}
        assert girth(graph) == g


def test_catalog_unknown_name():
    with pytest.raises(ParameterDomainError, match="unknown catalog graph"):
        catalog("petersen")
