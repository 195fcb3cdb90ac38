import math

import pytest

from cage_spectra import (
    Graph,
    IntPolynomial,
    ParameterDomainError,
    StructuralRefusal,
    build_bd,
    catalog,
    dickson_family,
    intersection,
    minimal_polynomial_check,
    trace_identity_check,
)
from cage_spectra.intersection import bd_moments
from oracles import adjacency_rows, bd_rows, dense_matmul, dense_minimal_polynomial, ld_entry00


def tree_closed_walks(k: int, q: int) -> int:
    """Closed q-walks from a vertex of the infinite k-regular tree, by direct
    dynamic programming over the distance from the start vertex."""
    dist = {0: 1}
    for _ in range(q):
        nxt = {}
        for m, ways in dist.items():
            nxt[m + 1] = nxt.get(m + 1, 0) + ways * (k if m == 0 else k - 1)
            if m > 0:
                nxt[m - 1] = nxt.get(m - 1, 0) + ways
        dist = nxt
    return dist.get(0, 0)


def test_build_bd_frozen():
    assert build_bd(3, 3).entries == ((0, 1, 0, 0), (3, 0, 1, 0), (0, 2, 0, 3), (0, 0, 2, 0))
    assert build_bd(4, 2).entries == ((0, 1, 0), (4, 0, 4), (0, 3, 0))


def test_build_bd_domain():
    with pytest.raises(ParameterDomainError):
        build_bd(3, 1)
    with pytest.raises(ParameterDomainError):
        build_bd(2, 3)


@pytest.mark.parametrize("k,D", [(3, 3), (4, 5), (7, 9)])
def test_bd_moments_match_dense_powers(k, D):
    b, rows = build_bd(k, D), bd_rows(k, D)
    power, expected = [[int(i == j) for j in range(D + 1)] for i in range(D + 1)], []
    for _ in range(3 * D):
        expected.append(power[0][0])
        power = dense_matmul(power, rows)
    assert bd_moments(b, 3 * D) == expected
    assert bd_moments(b, 0) == []
    with pytest.raises(ParameterDomainError):
        bd_moments(b, -1)


def test_bd_entry00_basics():
    b = build_bd(3, 3)
    walks = bd_moments(b, 4)
    assert walks[0] == 1
    assert walks[2] == 3
    assert walks[3] == 0
    with pytest.raises(ParameterDomainError):
        bd_moments(b, -1)


@pytest.mark.parametrize("k", range(3, 8))
@pytest.mark.parametrize("D", range(2, 9))
def test_bd_entry00_counts_tree_walks(k, D):
    walks = bd_moments(build_bd(k, D), 2 * D)
    for q in range(2 * D):
        assert walks[q] == tree_closed_walks(k, q)
        if q % 2:
            assert walks[q] == 0


def test_trace_identity_catalog():
    for name, k, d in (("heawood", 3, 3), ("tutte_coxeter", 3, 4), ("pg23_incidence", 4, 3)):
        report = trace_identity_check(catalog(name), k, d)
        assert report.ok
        assert report.checked == tuple(range(2 * d))


def test_trace_identity_heawood_spot_values(heawood):
    # tr(A^2) = 42 = 14 * 3 and tr(A^5) = 0: recompute directly
    import numpy as np

    a = np.array(adjacency_rows(heawood.adjacency))
    walks = bd_moments(build_bd(3, 3), 6)
    assert int(np.trace(np.linalg.matrix_power(a, 2))) == 14 * walks[2] == 42
    assert int(np.trace(np.linalg.matrix_power(a, 5))) == 0 == 14 * walks[5]


def test_trace_identity_refusal():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    with pytest.raises(StructuralRefusal):
        trace_identity_check(k4, 3, 3)


@pytest.mark.parametrize("k", range(3, 8))
@pytest.mark.parametrize("D", range(2, 9))
def test_minimal_polynomial(k, D):
    report = minimal_polynomial_check(k, D)
    assert report.residual == 0
    assert report.square_factor_nonzero
    assert report.h_factor_nonzero
    assert report.ok


@pytest.mark.parametrize("k", range(3, 9))
@pytest.mark.parametrize("D", range(2, 11))
def test_minimal_polynomial_matches_dense_under_perturbation(monkeypatch, k, D):
    # H_{D-1} and each of its single-coefficient +-1 perturbations, read by
    # the check through the family it asks for
    h = dickson_family("H", k, D - 1).coefficients
    square, h_at_b, product = dense_minimal_polynomial(k, D, h)
    assert not any(map(any, product)) and any(map(any, square)) and any(map(any, h_at_b))
    cases = [h] + [h[:j] + (h[j] + s,) + h[j + 1:] for j in range(D) for s in (1, -1)]
    for coefficients in cases:
        def family(kind, k_, i, coefficients=coefficients):
            assert (kind, k_, i) == ("H", k, D - 1)
            return IntPolynomial(coefficients)

        monkeypatch.setattr(intersection, "dickson_family", family)
        report = minimal_polynomial_check(k, D)
        square, h_at_b, product = dense_minimal_polynomial(k, D, coefficients)
        assert (report.residual == 0) == (not any(map(any, product)))
        assert report.square_factor_nonzero == any(map(any, square))
        assert report.h_factor_nonzero == any(map(any, h_at_b))
        # the documented residual: the largest |entry| of row 0
        assert report.residual == max(map(abs, product[0]))


def test_ld_entry00_frozen():
    assert ld_entry00(4, 3, 2.0) == pytest.approx(-24.0, rel=1e-12)
    assert ld_entry00(4, 3, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert ld_entry00(3, 3, math.sqrt(2)) == pytest.approx(-6 * math.sqrt(2), rel=1e-12)


@pytest.mark.parametrize("k,d", [(3, 3), (4, 3), (5, 5), (3, 7), (4, 9), (3, 11), (4, 11)])
def test_ld_entry00_matches_closed_form(k, d):
    # (L_d(B_d))_{0,0} = -k(k-1) H_{d-2}(theta) on a theta sweep; d > 9
    # exercises the extended-precision path
    h_prev = dickson_family("H", k, d - 2)
    for j in range(-8, 9):
        theta = j * 0.37 + 0.11
        expected = -k * (k - 1) * h_prev(theta)
        got = ld_entry00(k, d, theta)
        assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))
