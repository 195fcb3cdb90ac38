"""Exact-arithmetic matrix helpers, all in Python integers.

Graph-sized products never form the adjacency matrix A: a graph is given by
its neighbour lists, and row u of A·X is the sum of the rows of X at u's
neighbours, so A·X costs O(n²k) integer additions for a k-regular graph on
n vertices instead of the O(n³) of a dense product.  Polynomials in A are
evaluated by Horner's rule on the same kernel.  Every entry stays an
arbitrary-precision integer, so every residual is exact.

The dense helpers (`matmul`, `eval_poly`, ...) serve the small intersection
matrix B_D only.
"""

from __future__ import annotations

from operator import mul

Matrix = list


def adjacency_matmul(adjacency, x):
    """A·X for the 0/1 adjacency matrix A given by ``adjacency`` (one
    neighbour list per vertex): row u is the sum of the rows of X at u's
    neighbours, a zero row for an isolated vertex."""
    width = len(x[0]) if x else 0
    return [
        list(map(sum, zip(*[x[w] for w in nbrs]))) if nbrs else [0] * width
        for nbrs in adjacency
    ]


def adjacency_eval_poly(coefficients, adjacency):
    """p(A) for integer coefficients (constant term first) at the adjacency
    matrix given by neighbour lists, by Horner's rule P <- A·P + c·I.

    Multiplying on the left is exact because P is a polynomial in A and so
    commutes with it.  The first step, top·I -> top·A + c·I, needs no product.
    """
    n = len(adjacency)
    # pad to degree >= 1; a zero top coefficient leaves p unchanged
    *lower, top = [*coefficients, 0, 0][: max(len(coefficients), 2)]
    result = [[0] * n for _ in range(n)]
    for row, nbrs in zip(result, adjacency):
        for v in nbrs:
            row[v] = top
    for step, c in enumerate(reversed(lower)):
        if step:
            result = adjacency_matmul(adjacency, result)
        if c:
            for i, row in enumerate(result):
                row[i] += c
    return result


def frobenius(a, b):
    """Sum of the entrywise products of two equal-shape matrices; tr(X·Y)
    when Y is symmetric."""
    return sum(sum(map(mul, ra, rb)) for ra, rb in zip(a, b))


def eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
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


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def add_diag(a, c):
    out = [row[:] for row in a]
    for i in range(len(out)):
        out[i][i] += c
    return out


def eval_poly(coefficients, a):
    """Horner evaluation of a polynomial (constant term first) at a square
    matrix; exact for integer coefficients."""
    n = len(a)
    if not coefficients:
        return [[0] * n for _ in range(n)]
    result = [[coefficients[-1] if i == j else 0 for j in range(n)] for i in range(n)]
    for c in reversed(coefficients[:-1]):
        result = add_diag(matmul(result, a), c)
    return result


def max_abs(a):
    return max(abs(x) for row in a for x in row)
