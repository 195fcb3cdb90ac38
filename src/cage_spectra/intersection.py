"""The tridiagonal-with-corners intersection matrix B_D and its identities.

B_D is the (D+1) x (D+1) intersection matrix of a bipartite Moore graph of
degree k, diameter D, girth 2D:

        [ 0   1                     ]
        [ k   0   1                 ]
        [     k-1 0   1             ]
        [         ...  ...          ]
        [             k-1  0   k    ]
        [                 k-1  0    ]

Its (0,0) entries of powers count closed walks from a vertex, independent of
the vertex, for walk lengths below the girth; this provides the independent
moment oracle used by the feasibility engine:

    tr(A^q) = n * (B_d^q)_{0,0}   for q = 0..2d-1.

The polynomial (x^2 - k^2) * H_{D-1}(x) annihilates B_D and is minimal for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import _intmat
from .errors import DegreeRangeError, ParameterDomainError, StructuralRefusal
from .graphs import Graph, GraphAnalysis
from .polynomials import dickson_family


@dataclass(frozen=True)
class IntersectionMatrix:
    k: int
    D: int
    entries: tuple[tuple[int, ...], ...]

    def rows(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def build_bd(k: int, D: int) -> IntersectionMatrix:
    """Exact B_D: superdiagonal 1 except (D-1, D) = k; subdiagonal k-1 except
    (1, 0) = k."""
    if k < 3:
        raise DegreeRangeError(f"degree k must be >= 3, got {k}")
    if D < 2:
        raise ParameterDomainError(f"diameter parameter D must be >= 2, got {D}")
    m = [[0] * (D + 1) for _ in range(D + 1)]
    for i in range(D - 1):
        m[i][i + 1] = 1
    m[D - 1][D] = k
    m[1][0] = k
    for i in range(2, D + 1):
        m[i][i - 1] = k - 1
    return IntersectionMatrix(k=k, D=D, entries=tuple(tuple(row) for row in m))


def bd_moments(b: IntersectionMatrix, count: int) -> list[int]:
    """(B^q)_{0,0} for q = 0..count-1, by one pass of exact vector-matrix
    products e_0^T B^q.

    For q below the girth 2D this equals the number of closed q-walks from
    any vertex of the corresponding graph; it vanishes for odd q.
    """
    if count < 0:
        raise ParameterDomainError(f"moment count must be >= 0, got {count}")
    columns = list(zip(*b.entries))
    vec = [1] + [0] * b.D
    moments = []
    for _ in range(count):
        moments.append(vec[0])
        vec = [sum(map(mul, vec, col)) for col in columns]
    return moments


@dataclass(frozen=True)
class TraceIdentityReport:
    """Exact comparison tr(A^q) == n * (B_d^q)_{0,0} for q = 0..2d-1."""

    n: int
    d: int
    checked: tuple[int, ...]
    first_failure: int | None

    @property
    def ok(self) -> bool:
        return self.first_failure is None


def trace_identity_check(graph: Graph, k: int, d: int) -> TraceIdentityReport:
    """Verify the closed-walk counts of a k-regular bipartite graph of girth
    2d against the intersection-matrix oracle, exactly.

    A is symmetric, so tr(A^q) = <A^m, A^(q-m)> (entrywise inner product)
    with m = q // 2: powers up to A^d suffice, each one adjacency-list
    product (`_intmat.adjacency_matmul`).
    """
    analysis = GraphAnalysis(graph)
    problems = []
    if any(deg != k for deg in graph.degrees):
        problems.append("regularity")
    if analysis.girth != 2 * d:
        problems.append("girth")
    if not analysis.bipartite:
        problems.append("bipartite")
    if problems:
        raise StructuralRefusal(f"trace identity preconditions failed: {', '.join(problems)}")
    walks_from_vertex = bd_moments(build_bd(k, d), 2 * d)
    low = _intmat.eye(graph.n)  # A^m
    high = graph.adjacency_matrix()  # A^(m+1)
    first_failure = None
    qs = tuple(range(2 * d))
    for q in qs:
        if q >= 2 and q % 2 == 0:
            low, high = high, _intmat.adjacency_matmul(graph.adjacency, high)
        walks = _intmat.frobenius(low, high if q % 2 else low)
        if walks != graph.n * walks_from_vertex[q]:
            first_failure = q
            break
    return TraceIdentityReport(n=graph.n, d=d, checked=qs, first_failure=first_failure)


@dataclass(frozen=True)
class MinimalPolynomialReport:
    """(B^2 - k^2 I) * H_{D-1}(B) must vanish exactly, while neither cofactor
    (x^2 - k^2) nor H_{D-1} alone may annihilate B."""

    k: int
    D: int
    residual: int
    square_factor_nonzero: bool
    h_factor_nonzero: bool

    @property
    def ok(self) -> bool:
        return self.residual == 0 and self.square_factor_nonzero and self.h_factor_nonzero


def minimal_polynomial_check(k: int, D: int) -> MinimalPolynomialReport:
    b = build_bd(k, D).rows()
    h = dickson_family("H", k, D - 1)
    square = _intmat.add_diag(_intmat.matmul(b, b), -k * k)
    h_at_b = _intmat.eval_poly(h.coefficients, b)
    residual = _intmat.max_abs(_intmat.matmul(square, h_at_b))
    return MinimalPolynomialReport(
        k=k,
        D=D,
        residual=residual,
        square_factor_nonzero=_intmat.max_abs(square) != 0,
        h_factor_nonzero=_intmat.max_abs(h_at_b) != 0,
    )
