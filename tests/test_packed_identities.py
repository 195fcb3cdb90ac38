"""The exact identities on packed rows against the list route of `oracles`,
and on finite-geometry incidence graphs well beyond the catalog's orders.

Moving a pair of vertices between A_d and A_{d+1} breaks both identities; the
one nonzero residual, decoded from the packed difference rows, must equal
each list route's exactly.  The list route evaluates F_d and H_{d-1} by
Horner's rule and multiplies by A_{d+1} on its own, so it shares no step with
the packed level union.  The union rests on H_i(A) = A_i + A_{i-2} + ...
below half the girth, which the three-term recurrence of `oracles.packed_h`
checks on every passing graph, and the one difference on the levels
partitioning J, checked here too.  The eigenvalue cross-check's singular
values are held against the full-matrix eigensolver of
`oracles.adjacency_eigenvalues`.  Fields wider than a machine word are covered
by `test_adjacency_matmul_matches_dense`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cage_spectra import (
    _intmat,
    build_bd,
    catalog,
    intersection,
    spectral_crosscheck,
    structural_check,
    trace_identity_check,
    verify_identities,
)
from cage_spectra.graphs import GraphAnalysis
from cage_spectra.polynomials import dickson_family
from geometries import complete_bipartite, pg2_incidence, wq_incidence
from oracles import (
    adjacency_eigenvalues,
    allones_residual,
    distance_matrix,
    distance_rows,
    packed_h,
    path_count_residual,
    power_traces,
)

#: girth-4 graphs (d = 2) with the (k, d, e) they are structurally consistent
#: with; with the matching removed, e = 2 and A_{d+1} is not zero
GIRTH_FOUR = [
    ("K33", complete_bipartite(3), 3, 2, 0),
    ("K55", complete_bipartite(5), 5, 2, 0),
    ("K44-matching", complete_bipartite(4, matching_removed=True), 3, 2, 2),
    ("K66-matching", complete_bipartite(6, matching_removed=True), 5, 2, 2),
]

#: the catalog graphs and the girth-4 graphs; moebius_kantor has e = 2 too
PASSING = [
    ("heawood", catalog("heawood"), 3, 3, 0),
    ("tutte_coxeter", catalog("tutte_coxeter"), 3, 4, 0),
    ("moebius_kantor", catalog("moebius_kantor"), 3, 3, 2),
    ("pg23_incidence", catalog("pg23_incidence"), 4, 3, 0),
] + GIRTH_FOUR


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PASSING), st.data())
def test_perturbed_residual_equals_the_list_route(case, data):
    """A pair (u, v) at distance d or d + 1 moves to the other of the two
    levels: in the list route its A_d and A_{d+1} entries swap, and in the
    package the union M takes or loses (u, v), so J - M, which stands for
    H_{d-2}(A) + A_d, loses or takes it.  A flip of A_d alone is no state
    of the package: it reads H_{d-2}(A) + A_d as J - M, and the BFS levels
    always partition J."""
    _, graph, k, d, e = case
    a = {i: distance_matrix(graph.adjacency, i) for i in (d, d + 1)}
    assert path_count_residual(graph, k, d, a[d], a[d + 1]) == 0
    assert allones_residual(graph, k, d, a[d + 1]) == 0
    # the verdict is kept on the analysis, so the move reaches only the identities
    assert structural_check(graph, k, d, e).structure_ok
    pairs = [(u, v) for u, row in enumerate(distance_rows(graph.adjacency))
             for v, x in enumerate(row) if x in (d, d + 1)]
    u, v = data.draw(st.sampled_from(pairs))
    a[d][u][v] ^= 1
    a[d + 1][u][v] ^= 1
    step = 1 if a[d + 1][u][v] else -1
    packed = GraphAnalysis.distance_matrix

    def moved(analysis, distances, width):
        rows = packed(analysis, distances, width)
        if d + 1 in distances:
            rows[u] += step << width * v
        return rows

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GraphAnalysis, "distance_matrix", moved)
        path_count, allones = verify_identities(graph, k, d, e)
    assert (path_count.name, allones.name) == ("path-count", "all-ones")
    assert path_count.residual == path_count_residual(graph, k, d, a[d], a[d + 1]) != 0
    assert allones.residual == allones_residual(graph, k, d, a[d + 1]) == path_count.residual


@pytest.mark.parametrize("case", GIRTH_FOUR, ids=lambda case: case[0])
def test_girth_four_graphs_satisfy_both_identities(case):
    """At d = 2, H_1(A) = A = A_1 and H_0(A) = I = A_0, so M packs as the
    levels 3 and 1 and H_0(A) + A_2 as the levels 2 and 0."""
    _, graph, k, d, e = case
    verdict = structural_check(graph, k, d, e)
    assert verdict.structure_ok and "half-girth-range" in verdict.regime_notes
    far = graph.analysis._words(d + 1)
    assert (far is not None and bool(far.any())) == (e > 0)
    assert all(check.holds for check in verify_identities(graph, k, d, e))


#: every passing test graph: the catalog's, PG(2, q), W(q) and the girth-4 ones
LEMMA_GRAPHS = PASSING + [
    ("z14_antipodal", catalog("z14_antipodal"), 4, 3, 2),
    *((f"PG(2,{q})", pg2_incidence(q), q + 1, 3, 0) for q in (2, 3, 5)),
    *((f"W({q})", wq_incidence(q), q + 1, 4, 0) for q in (2, 3)),
]


def h_width(k, i):
    """A field width that holds every entry of H_i(A) for k-regular A: each
    entry of A^j is at most k^j, so |H_i(A)| <= Σ|c_j| k^j entrywise."""
    coefficients = dickson_family("H", k, i).coefficients
    return _intmat.field_width(sum(abs(c) * k**j for j, c in enumerate(coefficients)))


@pytest.mark.parametrize("case", LEMMA_GRAPHS, ids=lambda case: case[0])
def test_h_below_half_the_girth_is_a_union_of_levels(case):
    """H_i(A) = A_i + A_{i-2} + ... for every i <= d - 1 on a k-regular graph
    of girth 2d: the recurrence of the oracle equals the packed level union
    that `verify_identities` reads."""
    _, graph, k, d, e = case
    assert structural_check(graph, k, d, e).structure_ok
    for i in range(d):
        width = h_width(k, i)
        assert packed_h(graph, k, i, width) == graph.analysis.distance_matrix(
            range(i, -1, -2), width
        )


@pytest.mark.parametrize("case", LEMMA_GRAPHS, ids=lambda case: case[0])
def test_the_two_level_unions_partition_j(case):
    """M = H_{d-1}(A) + A_{d+1}, the levels d+1, d-1, ..., and
    H_{d-2}(A) + A_d, the levels d, d-2, ..., sum to J, which is what makes
    the two identities' differences one."""
    _, graph, k, d, e = case
    assert structural_check(graph, k, d, e).structure_ok
    upper = graph.analysis.distance_matrix(range(d + 1, -1, -2), 8)
    lower = graph.analysis.distance_matrix(range(d, -1, -2), 8)
    assert [m + h for m, h in zip(upper, lower)] == [_intmat.ones_row(graph.n, 8)] * graph.n


def test_h_is_no_union_of_levels_when_the_girth_is_too_small():
    """The girth precondition matters: K_{3,3} has girth 4 < 2·2 + 1, and
    H_2(A) = A^2 - 2I = 3A_2 + A_0, not A_2 + A_0."""
    graph, width = complete_bipartite(3), h_width(3, 2)
    union = graph.analysis.distance_matrix((2, 0), width)
    h2 = packed_h(graph, 3, 2, width)
    assert h2 != union
    assert h2 == [3 * a2 + a0 for a2, a0 in zip(
        graph.analysis.distance_matrix((2,), width), graph.analysis.distance_matrix((0,), width)
    )]


def biadjacency_thetas(graph):
    """-s_2, ..., -s_{n/2}, s_{n/2}, ..., s_2 for the singular values s of the
    biadjacency built from the tuple rows: rows at even and columns at odd
    distance from vertex 0, each class in vertex order, as the package
    orders them."""
    parity = [x % 2 for x in distance_rows(graph.adjacency)[0]]
    odd = [v for v in range(graph.n) if parity[v]]
    b = np.array([[float(v in row) for v in odd]
                  for u, row in enumerate(graph.adjacency) if not parity[u]])
    s = np.linalg.svd(b, compute_uv=False).tolist()
    return [-x for x in s[1:]] + s[:0:-1]


@pytest.mark.parametrize("case", LEMMA_GRAPHS, ids=lambda case: case[0])
def test_crosscheck_is_bit_identical_to_scalar_horner(case):
    """The cross-check evaluates H_{d-1} over all eigenvalues at once in
    numpy; every theta, deviation and the maximum equal, by `float.hex`, the
    scalar route: the singular values of a biadjacency built from the tuple
    rows, then `IntPolynomial.__call__` at each theta and the minimum over
    the targets."""
    _, graph, k, d, e = case
    report = spectral_crosscheck(graph, k, d, e)
    thetas = biadjacency_thetas(graph)
    h = dickson_family("H", k, d - 1)
    deviations = [min(abs(h(t) - target) for target in report.targets) for t in thetas]
    assert list(map(float.hex, report.thetas)) == list(map(float.hex, thetas))
    assert list(map(float.hex, report.deviations)) == list(map(float.hex, deviations))
    assert report.max_deviation.hex() == max(deviations).hex()
    assert report.ok


@pytest.mark.parametrize(
    "case",
    LEMMA_GRAPHS + [("PG(2,13)", pg2_incidence(13), 14, 3, 0), ("W(5)", wq_incidence(5), 6, 4, 0)],
    ids=lambda case: case[0],
)
def test_singular_values_match_the_full_eigensolver(case):
    """+-s(N) are the eigenvalues of A: the cross-check's thetas equal those
    of `eigvalsh` on the full matrix to 1e-11, W(q)'s many thetas at 0
    included."""
    _, graph, k, d, e = case
    thetas = spectral_crosscheck(graph, k, d, e).thetas
    assert np.allclose(thetas, adjacency_eigenvalues(graph.adjacency), rtol=0, atol=1e-11)


def test_trace_check_reports_the_first_wrong_moment(monkeypatch):
    graph = pg2_incidence(3)
    moments = intersection.bd_moments
    assert power_traces(graph.adjacency, 6) == [graph.n * m for m in moments(build_bd(4, 3), 6)]
    for q in range(6):
        monkeypatch.setattr(
            intersection,
            "bd_moments",
            lambda b, count, q=q: [m + (j == q) for j, m in enumerate(moments(b, count))],
        )
        assert trace_identity_check(graph, 4, 3).first_failure == q


@pytest.mark.parametrize(
    "build,q,d",
    [(pg2_incidence, q, 3) for q in (2, 3, 5, 31)] + [(wq_incidence, q, 4) for q in (2, 3, 7)],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_incidence_graphs_satisfy_every_identity(build, q, d):
    """PG(2, q) has order 2(q^2+q+1) and girth 6, W(q) order 2(q+1)(q^2+1)
    and girth 8; both are (q+1)-regular with excess 0, so every check holds
    exactly (PG(2, 31): n = 1986; W(7): n = 800)."""
    graph, k = build(q), q + 1
    assert graph.n == (2 * (q * q + q + 1) if d == 3 else 2 * (q + 1) * (q * q + 1))
    assert structural_check(graph, k, d, 0).passed
    assert all(check.holds for check in verify_identities(graph, k, d, 0))
    assert spectral_crosscheck(graph, k, d, 0).ok
    assert trace_identity_check(graph, k, d).ok
