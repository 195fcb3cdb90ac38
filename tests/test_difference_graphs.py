"""The catalog's difference-set graphs: PG(2, 3) from Singer's set
{0, 1, 3, 9} mod 13, and `z14_antipodal` from the relative difference set
{0, 1, 4, 6} mod 14, the one catalog graph inside the paper's regime
(e = 2 <= k - 2).  Its spectrum is the one `spectral_feasibility` predicts
for (4, 3, 2), so here the verifier and the feasibility engine check each
other."""

import json
from collections import Counter
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from cage_spectra import (
    catalog, spectral_crosscheck, spectral_feasibility, structural_check, verify_identities,
)
from cage_spectra.cli import main
from cage_spectra.graphs import _difference_graph
from geometries import pg2_incidence


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
        assert all(check.holds for check in verify_identities(graph, 4, 3, 2))
        assert spectral_crosscheck(graph, 4, 3, 2).ok


def test_singer_difference_set_builds_the_projective_plane_of_order_3():
    assert nx.is_isomorphic(to_networkx(catalog("pg23_incidence")), to_networkx(pg2_incidence(3)))
