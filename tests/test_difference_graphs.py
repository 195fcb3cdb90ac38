"""The catalog's difference-set graphs: PG(2, 3) from Singer's set
{0, 1, 3, 9} mod 13, and `z14_antipodal` from the relative difference set
{0, 1, 4, 6} mod 14, the one catalog graph inside the paper's regime
(e = 2 <= k - 2).  Its spectrum is the one `spectral_feasibility` predicts
for (4, 3, 2), so here the verifier and the feasibility engine check each
other."""

import json
import math
from collections import Counter
from itertools import combinations, product

import networkx as nx
import numpy as np
import pytest

from cage_spectra import (
    catalog, spectral_crosscheck, spectral_feasibility, structural_check,
)
from cage_spectra.cli import main
from cage_spectra.graphs import _difference_graph
from geometries import pg2_incidence
from oracles import identity_residual


def verify_json(capsys, name, e):
    code = main(["verify", f"catalog:{name}", "--k", "4", "--d", "3", "--e", str(e),
                 "--format", "json"])
    (result,) = json.loads(capsys.readouterr().out)
    return code, result


def adjacency_matrix(graph):
    matrix = np.zeros((graph.n, graph.n))
    for u, row in enumerate(graph.adjacency):
        matrix[u, list(row)] = 1
    return matrix


def to_networkx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from((u, v) for u, row in enumerate(graph.adjacency) for v in row)
    return g


def test_verify_passes_z14_antipodal_as_an_antipodal_4_6_graph_of_excess_2(capsys):
    code, result = verify_json(capsys, "z14_antipodal", 2)
    assert code == 0 and result["ok"] is True and result["failures"] == []
    assert result["path_count_residual"] == result["allones_residual"] == 0
    assert result["clique_count"] == 14 and result["antipode_count_per_vertex"] == 1


@pytest.mark.parametrize("e", [0, 4])
def test_verify_fails_z14_antipodal_on_its_order_under_another_excess(capsys, e):
    code, result = verify_json(capsys, "z14_antipodal", e)
    assert code == 1 and result["ok"] is False and "order" in result["failures"]


def test_the_spectrum_of_z14_antipodal_is_the_one_feasibility_predicts():
    """Each eigenvalue of the adjacency matrix, rounded and counted, is a
    (theta, multiplicity) pair of the (4, 3, 2) report, root for root:
    +-4 once, +-2 seven times and +-sqrt(2) six times."""
    eigenvalues = np.linalg.eigvalsh(adjacency_matrix(catalog("z14_antipodal")))
    counted = sorted(Counter(round(float(x), 9) for x in eigenvalues).items())
    report = spectral_feasibility(4, 3, 2)
    assert report.final_verdict == "spectrally-admissible"
    assert counted == [(round(float(theta), 9), m) for theta, m in report.spectrum()]


def test_every_relative_difference_set_of_size_4_in_z14_builds_a_passing_graph():
    """The 4-subsets of Z_14 that hold 0 and have 12 distinct nonzero
    differences are 8; each misses exactly 7, the element of order 2, and
    each builds an antipodal (4, 6)-graph of excess 2."""
    found = []
    for rest in combinations(range(1, 14), 3):
        members = (0, *rest)
        differences = [(a - b) % 14 for a in members for b in members if a != b]
        if len(set(differences)) == 12:
            found.append(members)
            assert set(range(1, 14)) - set(differences) == {7}
    assert len(found) == 8 and (0, 1, 4, 6) in found
    for members in found:
        graph = _difference_graph(14, members)
        assert structural_check(graph, 4, 3, 2).passed
        assert identity_residual(graph, 4, 3) == 0
        assert spectral_crosscheck(graph, 4, 3, 2).ok


def test_singer_difference_set_builds_the_projective_plane_of_order_3():
    assert nx.is_isomorphic(to_networkx(catalog("pg23_incidence")), to_networkx(pg2_incidence(3)))


# ---------------------------------------------------------------------------
# the search past k = 4, pinned for k <= 6


def abelian_groups(order):
    """Every abelian group of ``order`` up to isomorphism, as its invariant
    factors (m_1, ..., m_r), m_{j+1} dividing m_j, of Z_{m_1} x ... x Z_{m_r}:
    one per choice of a partition of each prime's exponent, whose j-th
    largest parts multiply to m_j."""

    def partitions(n, largest):
        if n == 0:
            yield ()
        for part in range(min(n, largest), 0, -1):
            for rest in partitions(n - part, part):
                yield (part, *rest)

    factors, p, n = [], 2, order
    while n > 1:
        exponent = 0
        while n % p == 0:
            n, exponent = n // p, exponent + 1
        if exponent:
            factors.append([[p**a for a in part] for part in partitions(exponent, exponent)])
        p += 1
    return [
        tuple(math.prod(parts[j] for parts in choice if j < len(parts))
              for j in range(max(map(len, choice))))
        for choice in product(*factors)
    ]


def distinct_difference_sets(orders, k):
    """The k-subsets of Z_{m_1} x ... x Z_{m_r} that hold 0 and have k(k-1)
    distinct differences, by backtracking over the elements in their
    lexicographic order; each is a tuple of element indices."""
    elements = list(product(*(range(m) for m in orders)))
    index = {x: i for i, x in enumerate(elements)}
    minus = [[index[tuple((a - b) % m for a, b, m in zip(x, y, orders))] for y in elements]
             for x in elements]
    found = []

    def extend(members, used):
        if len(members) == k:
            found.append(tuple(members))
            return
        for x in range(members[-1] + 1, len(elements)):
            new = {minus[x][m] for m in members} | {minus[m][x] for m in members}
            if len(new) == 2 * len(members) and not new & used:
                extend(members + [x], used | new)

    extend([0], set())
    return found


def test_the_bi_cayley_search_over_abelian_groups_finds_only_z14_for_k_at_most_6():
    """A search over bi-Cayley graphs of abelian groups, not a non-existence
    claim.  A bi-Cayley graph of a group G of order n = k^2 - k + 1 + e/2
    (points and lines both G, point x on line x - t for t in D) is an
    antipodal (k, 6)-graph of excess e only if D, a k-set of G, has k(k-1)
    distinct differences: a repeated one closes a 4-cycle.  For k <= 6 and
    every valid e the groups are Z_14, Z_22, the seven abelian groups of
    order 32, and Z_33; only Z_14, for (4, 3, 2), holds such a set, and its
    sets are the 8 built above.  So (5, 3, 2), (6, 3, 2) and (6, 3, 4) have
    no such graph over an abelian group; a non-abelian group or a graph that
    is not bi-Cayley could still hold one."""
    groups = {
        (k, e): abelian_groups(k * k - k + 1 + e // 2)
        for k in range(4, 7) for e in range(2, k - 1, 2)
    }
    assert groups == {
        (4, 2): [(14,)],
        (5, 2): [(22,)],
        (6, 2): [(32,), (16, 2), (8, 4), (8, 2, 2), (4, 4, 2), (4, 2, 2, 2), (2, 2, 2, 2, 2)],
        (6, 4): [(33,)],
    }
    holding = {
        (k, e, orders): distinct_difference_sets(orders, k)
        for (k, e), options in groups.items() for orders in options
    }
    assert {key for key, sets in holding.items() if sets} == {(4, 2, (14,))}
    z14 = holding[4, 2, (14,)]  # the element of index x is x
    assert z14 == [
        (0, 1, 4, 6), (0, 1, 9, 11), (0, 2, 5, 6), (0, 2, 10, 11),
        (0, 3, 4, 12), (0, 3, 5, 13), (0, 8, 9, 12), (0, 8, 10, 13),
    ]
    assert all(_difference_graph(14, members).n == 28 for members in z14)
