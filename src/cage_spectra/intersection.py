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
the vertex, for walk lengths below the girth.  This module checks the
paper's two lemmas about it exactly: the walk-count lemma on a graph
(`trace_identity_check`),

    tr(A^q) = n * (B_d^q)_{0,0}   for q = 0..2d-1,

and the minimal-polynomial lemma (`minimal_polynomial_check`): the
polynomial (x^2 - k^2) * H_{D-1}(x) annihilates B_D and is minimal for it.
The feasibility engine does not use it.

Every fact read here is a fact about row 0: B_D is read only through its
Krylov rows e_0^T B^j (`_krylov_rows`).  B_D is irreducible tridiagonal for
k >= 3 (every super- and sub-diagonal entry is positive), so the rows for
j = 0..D span, and a polynomial p has p(B) = 0 exactly when e_0^T p(B) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from operator import mul

from . import _intmat
from .errors import DegreeRangeError, ParameterDomainError, StructuralRefusal
from .graphs import Graph
from .polynomials import dickson_family


@dataclass(frozen=True)
class IntersectionMatrix:
    k: int
    D: int
    entries: tuple[tuple[int, ...], ...]


def build_bd(k: int, D: int) -> IntersectionMatrix:
    """Exact B_D: superdiagonal 1 except (D-1, D) = k; subdiagonal k-1 except
    (1, 0) = k."""
    if k < 3:
        raise DegreeRangeError(f"degree k must be >= 3, got {Decimal(k)}")
    if D < 2:
        raise ParameterDomainError(f"diameter parameter D must be >= 2, got {Decimal(D)}")
    m = [[0] * (D + 1) for _ in range(D + 1)]
    for i in range(D - 1):
        m[i][i + 1] = 1
    m[D - 1][D] = k
    m[1][0] = k
    for i in range(2, D + 1):
        m[i][i - 1] = k - 1
    return IntersectionMatrix(k=k, D=D, entries=tuple(tuple(row) for row in m))


def _krylov_rows(b: IntersectionMatrix, count: int) -> list[list[int]]:
    """The rows e_0^T B^j for j = 0..count-1, each one exact vector-matrix
    product from the one before."""
    rows = [[1] + [0] * b.D][:count]
    while len(rows) < count:
        rows.append(_intmat.matmul(rows[-1:], b.entries)[0])
    return rows


def _combine(coefficients, rows) -> list[int]:
    """sum_j c_j * rows[j], exact; rows past the coefficients are ignored."""
    return [sum(map(mul, coefficients, column)) for column in zip(*rows)]


def bd_moments(b: IntersectionMatrix, count: int) -> list[int]:
    """(B^q)_{0,0} for q = 0..count-1: the first entries of the Krylov rows
    e_0^T B^q.

    For q below the girth 2D this equals the number of closed q-walks from
    any vertex of the corresponding graph; it vanishes for odd q.
    """
    if count < 0:
        raise ParameterDomainError(f"moment count must be >= 0, got {Decimal(count)}")
    return [row[0] for row in _krylov_rows(b, count)]


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

    The powers A^q, q < 2d, are packed rows (`_intmat`): A^0 = I has row u
    ``1 << W·u``, and each later power is one packed product over the
    graph's neighbour arrays; tr(A^q) is the sum of their diagonal fields.
    Each entry of A^q is at most k^q, which sets the field width.
    """
    analysis = graph.analysis
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
    width = _intmat.field_width(k ** (2 * d - 1))
    power = [1 << width * u for u in range(graph.n)]  # A^0 = I
    first_failure = None
    qs = tuple(range(2 * d))
    for q in qs:
        if q:
            power = _intmat.packed_product(graph._degrees, graph._flat, power)
        if _intmat.packed_trace(power, width) != graph.n * walks_from_vertex[q]:
            first_failure = q
            break
    return TraceIdentityReport(n=graph.n, d=d, checked=qs, first_failure=first_failure)


@dataclass(frozen=True)
class MinimalPolynomialReport:
    """(B^2 - k^2 I) * H_{D-1}(B) must vanish exactly, while neither cofactor
    (x^2 - k^2) nor H_{D-1} alone may annihilate B.

    Each matrix is read through its row 0 (`_krylov_rows`), which is zero
    exactly when the matrix is.  So ``residual`` is the largest |entry| of
    row 0 of the product: 0 exactly when the product vanishes, but when
    nonzero it is not in general the largest |entry| of the whole matrix.
    """

    k: int
    D: int
    residual: int
    square_factor_nonzero: bool
    h_factor_nonzero: bool

    @property
    def ok(self) -> bool:
        return self.residual == 0 and self.square_factor_nonzero and self.h_factor_nonzero


def minimal_polynomial_check(k: int, D: int) -> MinimalPolynomialReport:
    """Row 0 of each factor from the Krylov rows r_j = e_0^T B^j: H_{D-1}(B)
    gives sum_j c_j r_j, B^2 - k^2 I gives r_2 - k^2 r_0, and, as polynomials
    in B commute, their product gives sum_j c_j r_{j+2} - k^2 sum_j c_j r_j."""
    h = dickson_family("H", k, D - 1).coefficients
    rows = _krylov_rows(build_bd(k, D), D + 2)  # H_{D-1} has D coefficients
    k2 = k * k
    h_row = _combine(h, rows)
    square_row = [x - k2 * y for x, y in zip(rows[2], rows[0])]
    residual_row = [x - k2 * y for x, y in zip(_combine(h, rows[2:]), h_row)]
    return MinimalPolynomialReport(
        k=k,
        D=D,
        residual=max(map(abs, residual_row)),
        square_factor_nonzero=any(square_row),
        h_factor_nonzero=any(h_row),
    )
