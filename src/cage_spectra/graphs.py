"""Graphs, structural checks, and the theorem that makes `verify`'s two
matrix identities hold.

Graphs come in as adjacency rows, edge lists or graph6 text.  A graph keeps
its neighbours as two numpy arrays, the degrees and the rows' sorted
neighbours end to end, and nothing else: the BFS and the eigenvalue
cross-check's biadjacency read them directly, and `Graph.adjacency` builds
the tuple rows from them for a caller that asks.
`parse_graph6` decodes in numpy and builds no Python rows: bit b of nonzero
payload byte p is the pair index t = 6p + b = j(j-1)/2 + i, j comes from a
binary search over the triangular numbers, and a stable sort of the pairs by
owner puts every row in order.

The graphs treated here are k-regular of even girth 2d with a small excess e
over the Moore bound.  Such a graph (when e <= k - 2) is bipartite of
diameter d + 1, every vertex has exactly e/2 vertices at distance d + 1, and
the "at distance d + 1" relation partitions the vertex set into cliques of
size e/2 + 1 (Biggs & Ito, 1980).  `GraphAnalysis` runs one bit-parallel
breadth-first search from every root at once and derives the girth,
bipartiteness, connectivity, diameter and the sets of the vertices at each
distance from that single pass.  The sets are packed 64 roots to a
little-endian `uint64` word, one row of words per vertex plus an all-zero
row that pads short neighbour lists, so a level is one numpy gather-and-OR
per neighbour slot.  The words are the one store of the levels.
`structural_check` is a plain function of the graph and a claimed (k, d, e)
that reads the analysis and reports each violated condition by name instead
of raising; its antipode counts and its clique-partition test read the
words.

Two matrix identities tie the distance matrices A_i to the polynomial
families:

    F_d(A)  = k*A_d - A*A_{d+1}             (path-count identity)
    k*J     = (A + k*I)(H_{d-1}(A) + A_{d+1})   (all-ones factorization)

Theorem: both hold on every graph whose structural check passes, regime
notes aside, so `verify` computes neither.  The check certifies that A is
k-regular, bipartite and connected, of girth 2d and of diameter at most
d + 1.  Proof.  In a k-regular graph, H_i(A) sums the matrices of
non-backtracking walks of length i, i - 2, ... (Biggs, Algebraic Graph
Theory), and when the girth is at least 2i + 1 such a walk of length j <= i
is the one shortest path between its ends, so H_i(A) = A_i + A_{i-2} + ....
Girth 2d >= 2(d - 1) + 1 gives that for i = d - 1, so M = H_{d-1}(A) +
A_{d+1} is the union of the BFS levels d+1, d-1, d-3, ....  The graph is
connected of diameter at most d + 1, so every pair (v, w) lies in one of
the levels 0..d+1, and M(v, w) = 1 exactly when d(v, w) has the parity of
d + 1.  The graph is bipartite, so each of the k neighbours of u lies at
distance d(u, w) - 1 or d(u, w) + 1 from w, of the parity opposite to
d(u, w): (A·M)(u, w) is k when d(u, w) has the parity of d, and 0 when it
has that of d + 1, where M(u, w) = 1.  So (A·M + k·M)(u, w) = k at every
pair, which is (A + k*I)M = k*J.  For the path-count identity, the levels
0..d+1 partition J, so H_{d-2}(A) + A_d, the union of the levels d, d-2,
..., is J - M; since F_d = H_d - H_{d-2} and A·H_{d-1} = H_d + (k-1)H_{d-2},
F_d(A) - k*A_d + A*A_{d+1} = A·M - k(J - M), the all-ones difference,
entry for entry.  For e = 0, A_{d+1} is zero and the level d + 1 empty;
the argument stands.  That proves the theorem.

The tests compute the residuals exactly (`tests/oracles.py`, one packed
product A·M) and hold them to the theorem.  Each hypothesis does work: on
random connected regular bipartite graphs of girth >= 2d - 1, the
path-count residual is 0 exactly when the diameter is at most d + 1 and
the all-ones one exactly when it is at most d + 2 (the level d + 2 has the
parity of d, so M still follows the parity rule there), and the odd
cycles C_7 at d = 2 and C_9 at d = 3, which are not bipartite, give 1.

The eigenvalue cross-check reads the spectrum off half the matrix, and it
reads three facts of the graph to do so, which it checks itself.  The graph
is bipartite, so with the vertices at even and at odd distance from vertex 0
as the two colour classes, A = [[0, N], [N^T, 0]] for the biadjacency N,
square because the graph is k-regular; if N = U·S·V^T, the vectors
(u_i, +-v_i) are eigenvectors of A for +-s_i, so the eigenvalues of A are the
+-s_i, the singular values of N with both signs.  The graph is connected, so
s_1 = k is simple, and one SVD of order n/2 gives every eigenvalue other than
one copy each of +k and -k.  A passing structural verdict implies all three,
so `verify`, which runs the cross-check only after one, never sees it refuse.

Every check reads the graph's own `GraphAnalysis` (`Graph.analysis`, built
on first use), which holds facts of the graph alone.  Nothing else is kept:
`structural_check` computes its verdict afresh on each call, and a check
that refuses tests only the facts its own computation reads.  So `verify`
runs the BFS pass and the structural check once per graph, and the trace
oracle reuses the pass.

The classical excess-0 graphs in the catalog serve as regression anchors.
`z14_antipodal`, the bi-Cayley graph of the relative difference set
{0, 1, 4, 6} in Z_14 (Elliott & Butson, 1966), is the catalog's graph inside
the regime: it passes (k, d, e) = (4, 3, 2), and its spectrum is the one
`spectral_feasibility(4, 3, 2)` predicts.  It and PG(2, 3), from Singer's
set {0, 1, 3, 9} mod 13, come from one builder.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from decimal import Decimal
from functools import reduce
from itertools import chain, islice
from typing import Iterable, Sequence

import numpy as np

from .errors import Graph6ParseError, ParameterDomainError, StructuralRefusal
from .polynomials import dickson_family, horner


def moore_bound(k: int, g: int) -> int:
    """Minimum order of a k-regular graph of girth g, exactly.

    Odd g:  1 + k + k(k-1) + ... + k(k-1)^((g-3)/2) = 1 + k((k-1)^((g-1)/2) - 1)/(k-2)
    Even g: 2 * (1 + (k-1) + ... + (k-1)^((g-2)/2)) = 2((k-1)^(g/2) - 1)/(k-2)

    Both series are g terms of 1 (an odd-length cycle) when k = 2.
    """
    if k < 2 or g < 3:
        raise ParameterDomainError(f"moore_bound needs k >= 2 and g >= 3, got k={Decimal(k)}, g={Decimal(g)}")
    if k == 2:
        return g
    if g % 2:
        return 1 + k * ((k - 1) ** ((g - 1) // 2) - 1) // (k - 2)
    return 2 * ((k - 1) ** (g // 2) - 1) // (k - 2)


def _numeral(x) -> str:
    """A caller's number as `str` prints it, but an `int` in full at any
    size: `str` refuses one past `sys.get_int_max_str_digits()` digits,
    and `Decimal` reads it whole."""
    return str(Decimal(x)) if isinstance(x, int) else str(x)


class Graph:
    """Undirected simple graph on vertices 0..n-1 with sorted adjacency lists.

    The neighbours are stored as a degree array and a flat array of every
    row's sorted neighbours, end to end (both ``intp``, never written after
    construction), and only there.  ``adjacency``, the rows as a tuple of
    tuples, is built from them on each read.  `Graph(n, rows)` checks range,
    self-loops and symmetry, and `from_edges` checks range and builds through
    it (a repeated edge counts once).  Both read n and every vertex label
    through `operator.index`, as `IntPolynomial` reads its coefficients, so
    a float or a str raises TypeError instead of passing as an int.
    `parse_graph6` checks the encoding and builds the arrays unchecked,
    since they come out sorted and symmetric by construction.

    ``analysis`` is the graph's `GraphAnalysis`, built on first access and
    kept; the arrays are never written, so it never goes stale.
    """

    __slots__ = ("n", "_degrees", "_flat", "_analysis")

    def __init__(self, n: int, adjacency: Sequence[Iterable[int]]):
        n = operator.index(n)
        if len(adjacency) != n:
            raise ValueError(f"adjacency has {len(adjacency)} rows for n={_numeral(n)}")
        adj = tuple(tuple(sorted(set(map(operator.index, nbrs)))) for nbrs in adjacency)
        for u, nbrs in enumerate(adj):
            for v in nbrs:
                if not 0 <= v < n:
                    raise ValueError(f"vertex {_numeral(v)} out of range in row {u}")
                if v == u:
                    raise ValueError(f"self-loop at vertex {u}")
                if u not in adj[v]:
                    raise ValueError(f"asymmetric adjacency: {u} -> {v}")
        self.n = n
        self._degrees, self._flat = _neighbour_arrays(adj)
        self._analysis: GraphAnalysis | None = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        n = operator.index(n)
        adj = [[] for _ in range(n)]
        for u, v in edges:
            u, v = operator.index(u), operator.index(v)
            if not (0 <= u < n and 0 <= v < n):  # a negative index would wrap
                bad = v if 0 <= u < n else u
                raise ValueError(
                    f"vertex {_numeral(bad)} out of range in edge ({_numeral(u)}, {_numeral(v)})"
                )
            adj[u].append(v)
            adj[v].append(u)
        return cls(n, adj)

    @property
    def analysis(self) -> GraphAnalysis:
        if self._analysis is None:
            self._analysis = GraphAnalysis(self)
        return self._analysis

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The sorted neighbour rows, built from the arrays on each read."""
        flat = iter(self._flat.tolist())
        return tuple(tuple(islice(flat, degree)) for degree in self._degrees.tolist())

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self._degrees.tolist())

    @property
    def edge_count(self) -> int:
        return len(self._flat) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.adjacency == other.adjacency

    def __hash__(self):
        return hash(self.adjacency)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _neighbour_arrays(rows) -> tuple[np.ndarray, np.ndarray]:
    """The degree array and the flat neighbour array of neighbour rows."""
    degrees = np.fromiter(map(len, rows), np.intp, len(rows))
    return degrees, np.fromiter(chain.from_iterable(rows), np.intp, int(degrees.sum()))


# ---------------------------------------------------------------------------
# graph6 ingestion

_G6_HEADER = b">>graph6<<"
_ASCII_SPACE = " \t\n\r\x0b\x0c"  # what bytes.strip() removes
_G6_OUT_OF_RANGE = re.compile(rb"[^\x3f-\x7e]")


def parse_graph6(text: bytes | str) -> Graph:
    """Parse one graph in graph6 format (printable McKay encoding)."""
    if isinstance(text, str):
        text = text.strip(_ASCII_SPACE).removeprefix(_G6_HEADER.decode())
        # code points 0..255 are the bytes; a wider one becomes "&#...;", whose
        # "&" is out of range at that character's index
        data = text.encode("latin-1", "xmlcharrefreplace")
    else:
        text = data = bytes(text).strip().removeprefix(_G6_HEADER)
    if not data:
        raise Graph6ParseError("malformed header: empty graph6 string")
    bad = _G6_OUT_OF_RANGE.search(data)
    if bad:
        pos = bad.start()
        raise Graph6ParseError(
            f"character out of range at byte {pos}: {ord(text[pos:pos + 1])}"
        )
    n, body = _parse_g6_order(memoryview(data))  # a view: the payload is not copied
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6ParseError(
            f"wrong length: order {n} needs {need} payload bytes, got {len(body)}"
        )
    if need and (body[-1] - 63) & ((1 << (6 * need - nbits)) - 1):
        raise Graph6ParseError("trailing padding bits are nonzero")
    # bit b (from the high end of the 6) of payload byte p is the pair (i, j),
    # i < j, with t = 6p + b = j(j-1)/2 + i; tri[0] = tri[1] = 0, so j is the
    # last index with tri[j] <= t
    payload = np.frombuffer(body, np.uint8) - 63
    pos = np.flatnonzero(payload)
    byte, bit = np.nonzero(np.unpackbits(payload[pos, None], axis=1)[:, 2:])
    t = 6 * pos[byte] + bit
    tri = np.arange(n) * np.arange(-1, n - 1) // 2
    j = np.searchsorted(tri, t, side="right") - 1
    i = t - tri[j]
    # t ascends, so row u's lower neighbours (u = j) and then its upper ones
    # (u = i) each ascend, and a stable sort by owner keeps that order
    owners = np.concatenate((j, i))
    graph = Graph.__new__(Graph)  # sorted and symmetric by construction
    graph.n, graph._analysis = n, None
    graph._degrees = np.bincount(owners, minlength=n)
    graph._flat = np.concatenate((i, j))[np.argsort(owners, kind="stable")]
    return graph


def _parse_g6_order(data: bytes) -> tuple[int, bytes]:
    if data[0] != 126:
        return data[0] - 63, data[1:]
    start, end = (2, 8) if len(data) >= 2 and data[1] == 126 else (1, 4)
    if len(data) < end:
        raise Graph6ParseError(f"malformed header: truncated {6 * (end - start)}-bit order")
    n = 0
    for byte in data[start:end]:
        n = (n << 6) | (byte - 63)
    return n, data[end:]


# ---------------------------------------------------------------------------
# graph analysis: one bit-parallel BFS from every root at once

#: The numpy dtype of a word of a packed root set: bit r of word w is root
#: 64w + r.
_WORD = "<u8"


def _all_roots_bfs(degrees, flat) -> tuple[list[np.ndarray], int | float, bool, bool]:
    """Breadth-first search from every root at once, level by level.

    Row v of the frontier holds the set of roots whose frontier is at v, as
    ceil(n/64) little-endian words with bit r for root r; by symmetry of
    distance, that is the set of vertices at the current level L from v.  The
    graph's degree and flat neighbour arrays become a (kmax, n) slot array, a
    short list padded with the index n of an extra all-zero frontier row,
    stored one slot to a row so that each slot is one contiguous index
    vector.  The next frontier is the OR of the neighbours' rows minus the
    roots that have already reached v, so a level costs one vectorised
    gather-and-OR per neighbour slot.  Returns the
    level word arrays (row v of ``levels[i]`` is the set of vertices at
    distance i from v, and row n is the zero row), the girth, bipartiteness
    and connectivity (every vertex has seen every root).

    A root in both frontier[v] and the OR of v's neighbours' frontiers sees an
    edge inside level L, which closes an odd walk of 2L + 1; a root that newly
    reaches v from two neighbours at once closes a walk of 2L + 2.  Every such
    walk contains a cycle at most that long, and a shortest cycle is closed in
    one of these two ways seen from any of its vertices, so the first level
    that shows either gives the girth.  The graph is bipartite iff no level of
    any root has an edge inside it.  Once the girth is known, a level tracks
    only the one OR per slot, and the odd-edge test until one is found.
    """
    n = len(degrees)
    words = -(-n // 64)
    slots = np.full((degrees.max(initial=0), n), n, np.intp)
    slots.T[np.arange(len(slots)) < degrees[:, None]] = flat
    frontier = np.zeros((n + 1, words), _WORD)
    roots = np.arange(n)
    frontier.view(np.uint8)[roots, roots >> 3] = 1 << (roots & 7)
    seen = frontier[:n].copy()
    levels = []
    shortest: int | float = math.inf
    bipartite = True
    f = np.empty_like(seen)
    while frontier.any():
        level = len(levels)
        levels.append(frontier)
        reached = np.zeros_like(frontier)
        once = reached[:n]
        twice = np.zeros_like(once) if shortest == math.inf else None
        for slot in slots:
            # every index is in range; "clip" skips the buffered bounds check,
            # and the bound method skips the Python-level np.take wrapper
            frontier.take(slot, 0, f, "clip")
            if twice is not None:
                twice |= once & f
            once |= f
        odd = bipartite and bool((frontier[:n] & once).any())
        once &= ~seen
        even = twice is not None and bool((once & twice).any())
        seen |= once
        if odd:
            bipartite = False
        if shortest == math.inf and (odd or even):
            shortest = 2 * level + (1 if odd else 2)
        frontier = reached
    full = np.frombuffer(((1 << n) - 1).to_bytes(8 * words, "little"), _WORD)
    return levels, shortest, bipartite, bool((seen == full).all())


class GraphAnalysis:
    """Everything the checks need from breadth-first search, from one
    bit-parallel pass over all roots (`_all_roots_bfs`): the level word
    arrays, the girth, bipartiteness, connectivity and the diameter.  It
    holds facts of the graph alone, none of a claimed (k, d, e).

    Row v of ``levels[i]`` holds the vertices at distance i from v as
    little-endian 64-bit words, and its row n is the BFS's zero padding row.
    The words are the only copy of the levels: the antipode counts, the
    clique-partition test and the packed rows of the matrices A_i read them
    directly.  The analysis keeps the order n, not its graph, so the two form
    no reference cycle.  The order-0 graph counts as connected, with no
    diameter.
    """

    __slots__ = ("n", "levels", "girth", "bipartite", "connected", "diameter")

    def __init__(self, graph: Graph):
        self.n = graph.n
        self.levels, self.girth, self.bipartite, self.connected = _all_roots_bfs(
            graph._degrees, graph._flat
        )
        self.diameter: int | None = len(self.levels) - 1 if self.connected and graph.n else None

    def _words(self, i: int):
        """The word rows of level i, or None beyond the eccentricities."""
        return self.levels[i][:self.n] if 0 <= i < len(self.levels) else None

    def level_sizes(self, i: int) -> list[int]:
        """The number of vertices at distance i from each vertex."""
        words = self._words(i)
        if words is None:
            return [0] * self.n
        return np.unpackbits(words.view(np.uint8), axis=1).sum(axis=1).tolist()


def girth(graph: Graph) -> int | float:
    """Length of a shortest cycle, read from the graph's all-roots BFS pass
    (`Graph.analysis`); inf for forests."""
    return graph.analysis.girth


# ---------------------------------------------------------------------------
# structural verdict

#: Failure labels that flag the (k, d, e) parameters as outside the analytic
#: regime rather than an inconsistency between the graph and its claimed
#: parameters.  The cross-check runs regardless of these.
REGIME_CONDITIONS = frozenset({"half-girth-range", "excess-range"})


@dataclass(frozen=True)
class StructuralVerdict:
    """Outcome of every structural condition for a claimed (k, d, e) triple.

    ``excess`` is n - M(k, 2d), or None where the order condition fails
    without the bound: where M(k, 2d) is undefined (k < 2 or 2d < 3), and
    where k >= 3 and |n - e| < 2^d.  M(k, 2d) >= 2^d for k >= 3, so no such
    claim can have order M(k, 2d) + e, and the bound, of about
    d·log2(k - 1) bits, is computed only when n - e has more than d bits.
    ``antipode_count_per_vertex`` is None when the count is non-uniform.
    ``clique_count`` is 2n/(e+2) when the antipodal-clique condition holds
    with e > 0, else None.  ``failures`` names every violated condition,
    regime notes included; ``structure_ok`` ignores the regime notes.
    """

    n: int
    k: int
    d: int
    e: int
    girth: int | float
    diameter: int | None
    bipartite: bool
    excess: int | None
    antipode_count_per_vertex: int | None
    antipodal_cliques_ok: bool
    clique_count: int | None
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def structure_ok(self) -> bool:
        """True when the graph itself is consistent with (k, d, e), even if
        the parameters fall outside the analytic regime."""
        return all(f in REGIME_CONDITIONS for f in self.failures)

    @property
    def regime_notes(self) -> tuple[str, ...]:
        return tuple(f for f in self.failures if f in REGIME_CONDITIONS)


def structural_check(graph: Graph, k: int, d: int, e: int) -> StructuralVerdict:
    """Check, in order: regularity, bipartiteness, girth 2d, order M(k,2d)+e,
    diameter (d+1 for e > 0, d for e = 0), uniform count of e/2 vertices at
    distance d+1, and the clique partition of the distance-(d+1) relation.

    Violations are recorded, not raised; where M(k, 2d) is undefined (k < 2
    or d < 2) the order fails.  Each call reads the graph's one analysis
    and keeps nothing: the verdict is a plain function of the graph and the
    claim.
    """
    analysis = graph.analysis
    failures: list[str] = []
    if d < 3:
        failures.append("half-girth-range")
    if e % 2 or e < 0 or e > k - 2:
        failures.append("excess-range")

    if (graph._degrees != k).any():
        failures.append("regularity")
    if not analysis.bipartite:
        failures.append("bipartite")
    if analysis.girth != 2 * d:
        failures.append("girth")

    excess = None
    if k < 3 or (graph.n - e).bit_length() > d:  # else n - e < 2^d <= M(k, 2d)
        try:
            excess = graph.n - moore_bound(k, 2 * d)
        except ParameterDomainError:
            pass
    if excess != e:
        failures.append("order")

    connected = analysis.connected
    if not connected:
        failures.append("connected")
    expected_diameter = d + 1 if e > 0 else d
    if analysis.diameter != expected_diameter:
        failures.append("diameter")

    far = d + 1
    counts = analysis.level_sizes(far) if connected else []
    uniform = bool(counts) and len(set(counts)) == 1
    antipode_count = counts[0] if uniform else None
    if not uniform or antipode_count != e // 2:
        failures.append("antipode-count")

    cliques_ok = False
    clique_count = None
    if connected and uniform and antipode_count == e // 2:
        words = analysis._words(far)
        # no vertex pairs at distance d+1 (e < 2): every cell is one vertex
        cliques_ok = words is None or _is_clique_partition(words)
        if cliques_ok and e > 0:
            clique_count = 2 * graph.n // (e + 2)
    if not cliques_ok:
        failures.append("antipodal-cliques")

    return StructuralVerdict(
        n=graph.n,
        k=k,
        d=d,
        e=e,
        girth=analysis.girth,
        diameter=analysis.diameter,
        bipartite=analysis.bipartite,
        excess=excess,
        antipode_count_per_vertex=antipode_count,
        antipodal_cliques_ok=cliques_ok,
        clique_count=clique_count,
        failures=tuple(failures),
    )


def _is_clique_partition(words) -> bool:
    """True iff a symmetric relation, given as word rows (bit u of row v set
    when u is related to v), is a disjoint union of cliques once each vertex
    is related to itself.  For the rows of distance d + 1, that is the
    antipodal clique partition.

    Row v with bit v set is v's cell C(v); the relation is a clique union iff
    each cell is the same set seen from each of its members, and, the
    relation being symmetric, iff each cell equals the cell of its lowest
    member.  Say the latter holds, v is in C = C(u) and m = min C, so
    C(m) = C.  By symmetry m is in C(v), and m' = min C(v) is in C, since m is
    in C(v) = C(m'); so m' = m and C(v) = C(m) = C.
    """
    roots = np.arange(len(words))
    cells = np.zeros_like(words)
    cells.view(np.uint8)[roots, roots >> 3] = 1 << (roots & 7)
    cells |= words
    lowest = np.unpackbits(cells.view(np.uint8), axis=1, bitorder="little").argmax(axis=1)
    return bool((cells[lowest] == cells).all())


# ---------------------------------------------------------------------------
# antipodal spectrum and the eigenvalue cross-check

#: The largest |H_{d-1}(theta) - target| the eigenvalue cross-check accepts.
_CROSSCHECK_TOLERANCE = 1e-8


@dataclass(frozen=True)
class CrosscheckReport:
    """Numeric check that every adjacency eigenvalue theta != +-k satisfies
    H_{d-1}(theta) in the target set derived from the distance-(d+1) spectrum,
    to within `_CROSSCHECK_TOLERANCE`."""

    targets: tuple[float, ...]
    thetas: tuple[float, ...]
    deviations: tuple[float, ...]
    max_deviation: float

    @property
    def ok(self) -> bool:
        return self.max_deviation <= _CROSSCHECK_TOLERANCE


def spectral_crosscheck(graph: Graph, k: int, d: int, e: int) -> CrosscheckReport:
    """Check H_{d-1}(theta) against {1, -e/2} (or {0} in the degenerate e = 0
    case) for every adjacency eigenvalue theta other than one copy each of +k
    and -k, the eigenvalues taken as +-s_i, the singular values of the
    biadjacency N (LAPACK SVD of order n/2).

    The route reads three facts of the graph, and the check refuses unless
    all three hold, naming each that fails.  Bipartite: the vertices at odd
    distance from vertex 0 are one colour class, A = [[0, N], [N^T, 0]] with
    the rows of N the other class, and the eigenvalues of A are the +-s_i.
    k-regular: both classes hold n/2 vertices, so N is square.  Connected,
    read as a diameter, so the order-0 graph, which has no vertex 0 to
    colour from, is refused too: s_1 = k is simple, so dropping it drops one
    copy each of +k and -k.  No other condition of the claim is read: a
    graph with these three facts but the wrong girth gets a report, and that
    report is not ok.  `svd` returns the s_i descending, so -s_2, ...,
    -s_{n/2} and then s_{n/2}, ..., s_2 ascend."""
    analysis = graph.analysis
    problems = []
    if (graph._degrees != k).any():
        problems.append("regularity")
    if not analysis.bipartite:
        problems.append("bipartite")
    if analysis.diameter is None:
        problems.append("connected")
    if problems:
        raise StructuralRefusal(f"cross-check preconditions failed: {', '.join(problems)}")
    # refuses k < 3 (`DegreeRangeError`): K_1, 0-regular, has one colour class
    coefficients = tuple(map(float, dickson_family("H", k, d - 1).coefficients))
    n, half = graph.n, graph.n // 2
    odd_levels = reduce(np.bitwise_or, (level[0] for level in analysis.levels[1::2]))
    odd = np.unpackbits(odd_levels.view(np.uint8), count=n, bitorder="little").astype(bool)
    column = np.cumsum(odd) - 1  # an odd vertex's index in its class
    b = np.zeros((half, half))
    b[np.arange(half)[:, None], column[graph._flat.reshape(n, k)[~odd]]] = 1.0
    s = np.linalg.svd(b, compute_uv=False)
    thetas = np.concatenate((-s[1:], s[:0:-1]))
    # every theta at once, bit for bit as `IntPolynomial.__call__` at each
    h = horner(coefficients, thetas)
    targets = (0.0,) if e == 0 else (1.0, -e / 2)
    deviations = tuple(reduce(np.minimum, (np.abs(h - target) for target in targets)).tolist())
    return CrosscheckReport(
        targets=targets,
        thetas=tuple(thetas.tolist()),
        deviations=deviations,
        max_deviation=max(deviations) if deviations else 0.0,
    )


# ---------------------------------------------------------------------------
# embedded catalog

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    n: int
    k: int
    girth: int
    description: str
    build: callable = field(repr=False, compare=False)


def _lcf(n: int, pattern: Sequence[int], repeats: int) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    chords = list(pattern) * repeats
    for i, step in enumerate(chords):
        edges.append((i, (i + step) % n))
    return Graph.from_edges(n, edges)


def _difference_graph(m: int, differences: Sequence[int]) -> Graph:
    """Bi-Cayley incidence graph of a difference set D in Z_m: points
    0..m-1, lines m..2m-1, and point x on line m + y exactly when x - y is
    in D, so every vertex has degree |D|.  A set whose nonzero differences
    are distinct gives girth at least 6."""
    return Graph.from_edges(2 * m, [(x, m + (x - t) % m) for x in range(m) for t in differences])


_CATALOG: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in (
        CatalogEntry(
            name="heawood",
            n=14, k=3, girth=6,
            description="smallest cubic graph of girth 6 (excess 0)",
            build=lambda: _lcf(14, (5, -5), 7),
        ),
        CatalogEntry(
            name="tutte_coxeter",
            n=30, k=3, girth=8,
            description="smallest cubic graph of girth 8 (excess 0)",
            build=lambda: _lcf(30, (-13, -9, 7, -7, 9, 13), 5),
        ),
        CatalogEntry(
            name="moebius_kantor",
            n=16, k=3, girth=6,
            description="generalized Petersen graph GP(8,3); cubic, girth 6, excess 2",
            build=lambda: _lcf(16, (5, -5), 8),
        ),
        CatalogEntry(
            name="pg23_incidence",
            n=26, k=4, girth=6,
            description="incidence graph of the projective plane of order 3 (excess 0)",
            build=lambda: _difference_graph(13, (0, 1, 3, 9)),  # Singer's difference set
        ),
        CatalogEntry(
            name="z14_antipodal",
            n=28, k=4, girth=6,
            description="relative difference set {0,1,4,6} mod 14; antipodal, girth 6, excess 2",
            build=lambda: _difference_graph(14, (0, 1, 4, 6)),
        ),
    )
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def catalog_entry(name: str) -> CatalogEntry:
    try:
        return _CATALOG[name]
    except KeyError:
        raise ParameterDomainError(
            f"unknown catalog graph {name!r}; available: {', '.join(catalog_names())}"
        ) from None


def catalog(name: str) -> Graph:
    """Build an embedded catalog graph anew; order, regularity, and girth
    are asserted against the entry's metadata at load.  The girth comes from
    the graph's analysis, which later checks of the same graph reuse; a
    second call builds and analyses a second graph."""
    entry = catalog_entry(name)
    graph = entry.build()
    if graph.n != entry.n or set(graph.degrees) != {entry.k} or girth(graph) != entry.girth:
        raise AssertionError(f"catalog entry {name!r} failed its metadata validation")
    return graph
