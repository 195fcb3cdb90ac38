"""Incidence graphs of finite geometries over a prime field F_q, built without
networkx: the projective plane PG(2, q) (girth 6) and the symplectic
generalized quadrangle W(q) (girth 8).  Both are (q+1)-regular bipartite
graphs of excess 0, so every exact identity holds on them.  For girth 4 there
is the complete bipartite graph K_{m,m} (excess 0), and K_{m,m} minus a
perfect matching, (m-1)-regular with excess 2: each vertex and its removed
partner are at distance 3.

Points come first (vertices 0..p-1), then lines.  A projective point is a
nonzero vector whose first nonzero entry is 1; the points of the line spanned
by points a and b are b and a + t*b for t in F_q.
"""

from __future__ import annotations

from itertools import combinations, product

from cage_spectra import Graph


def _points(q: int, dim: int) -> list[tuple[int, ...]]:
    return [v for v in product(range(q), repeat=dim) if any(v) and v[_lead(v)] == 1]


def _lead(v) -> int:
    return next(i for i, x in enumerate(v) if x)


def _normalize(v, q: int) -> tuple[int, ...]:
    v = [x % q for x in v]
    inv = pow(v[_lead(v)], -1, q)
    return tuple(x * inv % q for x in v)


def _span(a, b, q: int, index) -> frozenset[int]:
    """The point indices of the projective line through points a and b."""
    return frozenset(
        [index[b]] + [index[_normalize([x + t * y for x, y in zip(a, b)], q)] for t in range(q)]
    )


def _incidence(points: int, lines) -> Graph:
    lines = sorted(sorted(line) for line in lines)
    return Graph.from_edges(
        points + len(lines), [(i, points + j) for j, line in enumerate(lines) for i in line]
    )


def pg2_incidence(q: int) -> Graph:
    """Point-line incidence graph of PG(2, q), q prime: order 2(q^2+q+1).

    The line with normalized coordinates l (l[i] = 1 at its lead i) contains
    the points e_j - l[j] e_i for the two j != i, and so their span."""
    points = _points(q, 3)
    index = {p: n for n, p in enumerate(points)}
    lines = []
    for line in points:
        i = _lead(line)
        a, b = (
            _normalize([(j == m) - line[j] * (i == m) for m in range(3)], q)
            for j in range(3) if j != i
        )
        lines.append(_span(a, b, q, index))
    return _incidence(len(points), lines)


def wq_incidence(q: int) -> Graph:
    """Incidence graph of W(q), q prime: the points of PG(3, q) against the
    lines totally isotropic for x0*y1 - x1*y0 + x2*y3 - x3*y2; order
    2(q+1)(q^2+1)."""
    points = _points(q, 4)
    index = {p: n for n, p in enumerate(points)}
    lines = {
        _span(a, b, q, index)
        for a, b in combinations(points, 2)
        if (a[0] * b[1] - a[1] * b[0] + a[2] * b[3] - a[3] * b[2]) % q == 0
    }
    return _incidence(len(points), lines)


def complete_bipartite(m: int, matching_removed: bool = False) -> Graph:
    """K_{m,m} on 0..m-1 and m..2m-1, less the edges (i, m + i) if
    ``matching_removed``."""
    return Graph.from_edges(
        2 * m,
        [(i, m + j) for i in range(m) for j in range(m) if not (matching_removed and i == j)],
    )
