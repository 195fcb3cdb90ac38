"""Exact-arithmetic matrix helpers, all in Python integers.

Graph-sized matrices never exist as n x n lists.  Row u of an integer matrix
X is held as one Python int, its packed row

    X[u][0] + X[u][1]·2^W + ... + X[u][n-1]·2^(W(n-1)),

with W-bit signed fields (Kronecker substitution).  Packing is linear, so
row u of A·X is the sum of the packed rows of X at u's neighbours: k big-int
additions in C for a vertex of degree k (`packed_product`, which reads A as
the graph's degree and flat neighbour arrays); row u of I is
``1 << W·u``.  Every packed value is an exact integer whatever its fields
hold; only reading a field back needs a bound: with every entry below
2^(W-1) in magnitude (`field_width`), field u of row u decodes exactly
(`packed_trace`).  `intersection.trace_identity_check` is the package's one
caller: it packs the powers A^q, q < 2d, and sums their diagonals.  The
identity residual the structural check proves zero is computed on these
kernels only in the tests' oracle, which decodes whole rows.

`matmul` is the one dense kernel: the intersection matrix B_D is small and
is read only through its Krylov rows e_0^T B^j, one 1 x (D+1) by
(D+1) x (D+1) product each (`intersection`).
"""

from __future__ import annotations

from itertools import islice


def field_width(bound: int) -> int:
    """The field width W, a whole number of bytes, with bound < 2^(W-1)."""
    return 8 * (bound.bit_length() // 8 + 1)


def ones_row(n: int, width: int) -> int:
    """The packed row of n ones."""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x01") * n, "big")


def packed_product(degrees, flat, rows: list[int]) -> list[int]:
    """Packed rows of A·X, for the 0/1 matrix A given by its degree array and
    its flat array of every row's neighbours end to end, and the packed rows
    of X: row u is the sum of the next deg(u) rows gathered through flat."""
    gathered = map(rows.__getitem__, flat.tolist())
    return [sum(islice(gathered, degree)) for degree in degrees.tolist()]


def packed_trace(rows: list[int], width: int) -> int:
    """The trace of a square matrix from its packed rows: field u of row u,
    summed."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    bias = half * ones_row(len(rows), width)
    return sum((((row + bias) >> width * u) & mask) - half for u, row in enumerate(rows))


def matmul(a, b):
    """Exact product of list-of-rows matrices, skipping zero entries of a."""
    n, inner, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row_a = a[i]
        row = [0] * m
        for t in range(inner):
            x = row_a[t]
            if x == 0:
                continue
            row_b = b[t]
            for j in range(m):
                row[j] += x * row_b[j]
        out.append(row)
    return out
