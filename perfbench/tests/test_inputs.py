import json
import random
from collections import Counter

import networkx as nx
import pytest

import gate
import inputs
from worker import run_item


@pytest.mark.parametrize("q", [2, 3, 5])
def test_pg2_incidence_matches_networkx(q):
    g = inputs.pg2_incidence(q)
    inputs.check_graph(g, 2 * (q * q + q + 1), q + 1, 6)
    assert nx.is_bipartite(g) and nx.diameter(g) == 3


@pytest.mark.parametrize("q", [2, 3])
def test_wq_incidence_matches_networkx(q):
    g = inputs.wq_incidence(q)
    inputs.check_graph(g, 2 * (q + 1) * (q * q + 1), q + 1, 8)
    assert nx.is_bipartite(g) and nx.diameter(g) == 4


def test_check_graph_rejects_wrong_girth():
    with pytest.raises(ValueError, match="girth"):
        inputs.check_graph(inputs.pg2_incidence(3), 26, 4, 8)


def test_random_candidate_is_simple_bipartite_regular():
    g = inputs.random_bipartite_regular(116, 8, random.Random(3))
    inputs.check_graph(g, 116, 8, None)
    assert all(u < 58 <= v for u, v in (sorted(e) for e in g.edges()))


@pytest.mark.parametrize("n", [5, 62, 63, 200])
def test_graph6_matches_networkx_encoder(n):
    g = nx.gnp_random_graph(n, 0.3, seed=n)
    assert inputs.graph6(g) == nx.to_graph6_bytes(g, nodes=range(n), header=False).strip()


def test_screen_oracle_agrees_with_the_cli(tmp_path):
    from cage_spectra.cli import main

    rng = random.Random(7)
    for k, d, e in [(3, 4, 0), (4, 3, 2)]:
        g = inputs.random_bipartite_regular(inputs.moore_bound(k, 2 * d) + e, k, rng)
        path = tmp_path / f"c{k}.g6"
        path.write_bytes(inputs.graph6(g) + b"\n")
        out = run_item(main, ["verify", str(path), "--k", str(k), "--d", str(d), "--e", str(e),
                              "--format", "json"])
        assert json.loads(out["stdout"]) == [inputs.screen_expectation(g, f"c{k}.g6:1", k, d, e)]


def test_workloads_are_seeded(tmp_path):
    sizes = {"paper-grid": 153, "deep-girth": 21, "verify-algebraic": 6, "verify-screen": 49}
    for name, size in sizes.items():
        a = inputs.build(name, 5, tmp_path)
        b = inputs.build(name, 5, tmp_path)
        assert len(a.items) == size
        assert [i.argv for i in a.items] == [i.argv for i in b.items] and a.files == b.files
    assert [i.key for i in inputs.build("paper-grid", 5, tmp_path).items] != \
        [i.key for i in inputs.build("paper-grid", 6, tmp_path).items]
    screen = inputs.build("verify-screen", 5, tmp_path).items
    assert not any(item.expected["structural_ok"] for item in screen)


def test_paper_grid_golden_counts():
    verdicts = Counter(row.split(",")[4] for row in gate.load_goldens("paper-grid").splitlines()[1:])
    assert verdicts == {"excluded-by-gap": 135, "outside-regime": 18}
