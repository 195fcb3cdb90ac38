"""The exact identities on packed rows against the list route of `oracles`,
and on finite-geometry incidence graphs well beyond the catalog's orders.

A flipped bit of A_d or A_{d+1} breaks an identity; its nonzero residual,
decoded from the packed difference rows, must equal the list route's exactly.
The list route evaluates F_d and H_{d-1} by Horner's rule and multiplies by
A_{d+1} on its own, so it shares no step with the packed level unions.  The
unions rest on H_i(A) = A_i + A_{i-2} + ... below half the girth, which the
three-term recurrence of `oracles.packed_h` checks on every passing graph.
Fields wider than a machine word are covered by
`test_adjacency_matmul_matches_dense`.
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
    allones_residual,
    distance_matrix,
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
    _, graph, k, d, e = case
    a = {i: distance_matrix(graph.adjacency, i) for i in (d, d + 1)}
    assert path_count_residual(graph, k, d, a[d], a[d + 1]) == 0
    assert allones_residual(graph, k, d, a[d + 1]) == 0
    # the verdict is kept on the analysis, so the flipped bit reaches only the identities
    assert structural_check(graph, k, d, e).structure_ok
    target = data.draw(st.sampled_from((d, d + 1)))
    u, v = data.draw(st.integers(0, graph.n - 1)), data.draw(st.integers(0, graph.n - 1))
    a[target][u][v] ^= 1
    step = 1 if a[target][u][v] else -1
    packed = GraphAnalysis.distance_matrix

    def flipped(analysis, distances, width):
        # the union that holds A_target takes the flip of its entry (u, v),
        # whatever the other levels of the union hold there
        rows = packed(analysis, distances, width)
        if target in distances:
            rows[u] += step << width * v
        return rows

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GraphAnalysis, "distance_matrix", flipped)
        path_count, allones = verify_identities(graph, k, d, e)
    assert (path_count.name, allones.name) == ("path-count", "all-ones")
    assert path_count.residual == path_count_residual(graph, k, d, a[d], a[d + 1]) != 0
    assert allones.residual == allones_residual(graph, k, d, a[d + 1])
    assert (allones.residual != 0) == (target == d + 1)  # A_d is not in the all-ones identity


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
    """A field width that holds every entry of H_i(A) for k-regular A."""
    return _intmat.field_width(_intmat.poly_bound(dickson_family("H", k, i).coefficients, k))


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


@pytest.mark.parametrize("case", LEMMA_GRAPHS, ids=lambda case: case[0])
def test_crosscheck_is_bit_identical_to_scalar_horner(case):
    """The cross-check evaluates H_{d-1} over all eigenvalues at once in
    numpy; every theta, deviation and the maximum equal, by `float.hex`, the
    scalar route: `IntPolynomial.__call__` at each theta, then the minimum
    over the targets."""
    _, graph, k, d, e = case
    report = spectral_crosscheck(graph, k, d, e)
    a = np.zeros((graph.n, graph.n))
    for u, row in enumerate(graph.adjacency):
        a[u, list(row)] = 1.0
    thetas = [float(t) for t in np.linalg.eigvalsh(a)[1:-1]]
    h = dickson_family("H", k, d - 1)
    deviations = [min(abs(h(t) - target) for target in report.targets) for t in thetas]
    assert list(map(float.hex, report.thetas)) == list(map(float.hex, thetas))
    assert list(map(float.hex, report.deviations)) == list(map(float.hex, deviations))
    assert report.max_deviation.hex() == max(deviations).hex()
    assert report.ok


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
