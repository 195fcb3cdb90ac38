"""The exact identities on packed rows against the list route of `oracles`,
and on finite-geometry incidence graphs well beyond the catalog's orders.

A perturbed Dickson coefficient breaks an identity; its nonzero residual,
decoded from the packed difference rows, must equal the list route's exactly,
also when the perturbation needs fields wider than a machine word.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cage_spectra import (
    IntPolynomial,
    build_bd,
    catalog,
    dickson_family,
    intersection,
    spectral_crosscheck,
    structural_check,
    trace_identity_check,
    verify_allones_identity,
    verify_path_count_identity,
)
from cage_spectra import graphs
from geometries import pg2_incidence, wq_incidence
from oracles import allones_residual, path_count_residual, power_traces

#: catalog graphs with the (k, d, e) they are structurally consistent with;
#: moebius_kantor has e = 2, so A_{d+1} is not zero there
PASSING = [
    ("heawood", 3, 3, 0),
    ("tutte_coxeter", 3, 4, 0),
    ("moebius_kantor", 3, 3, 2),
    ("pg23_incidence", 4, 3, 0),
]

#: (family, index, verifier, list route) for each identity at (k, d)
IDENTITIES = {
    "path-count": ("F", lambda d: d, verify_path_count_identity, path_count_residual),
    "all-ones": ("H", lambda d: d - 1, verify_allones_identity, allones_residual),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PASSING), st.sampled_from(sorted(IDENTITIES)), st.data())
def test_perturbed_residual_equals_the_list_route(case, identity, data):
    name, k, d, e = case
    family, index, verifier, list_route = IDENTITIES[identity]
    graph = catalog(name)
    exact = dickson_family(family, k, index(d))
    assert list_route(graph, k, d, exact.coefficients) == 0
    coefficients = list(exact.coefficients)
    coefficients[data.draw(st.integers(0, exact.degree))] += data.draw(
        st.one_of(st.integers(-5, 5), st.integers(2**70, 2**90)).filter(bool)
    )
    perturbed = IntPolynomial(coefficients)

    def family_with_perturbed(*key):
        return perturbed if key == (family, k, index(d)) else dickson_family(*key)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "dickson_family", family_with_perturbed)
        check = verifier(graph, k, d, e)
    assert check.name == identity
    assert check.residual == list_route(graph, k, d, perturbed.coefficients) != 0


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
    assert verify_path_count_identity(graph, k, d, 0).holds
    assert verify_allones_identity(graph, k, d, 0).holds
    assert spectral_crosscheck(graph, k, d, 0).ok
    assert trace_identity_check(graph, k, d).ok
