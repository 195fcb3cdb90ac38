"""Graphs, structural checks, and exact matrix-identity verifiers.

The graphs treated here are k-regular of even girth 2d with a small excess e
over the Moore bound.  Such a graph (when e <= k - 2) is bipartite of
diameter d + 1, every vertex has exactly e/2 vertices at distance d + 1, and
the "at distance d + 1" relation partitions the vertex set into cliques of
size e/2 + 1.  `GraphAnalysis` runs one bit-parallel breadth-first search from
every root at once, over Python-int bitsets, and derives the girth,
bipartiteness, connectivity, diameter and the bitsets of the vertices at each
distance from that single pass; `structural_check` is a view over it for a
claimed (k, d, e) that reports each violated condition by name instead of
raising.

Two exact matrix identities tie the distance matrices A_i to the polynomial
families (integer arithmetic, so a zero residual is a proof for the given
graph):

    F_d(A)  = k*A_d - A*A_{d+1}             (path-count identity)
    k*J     = (A + k*I)(H_{d-1}(A) + A_{d+1})   (all-ones factorization)

Both are evaluated on neighbour lists (`_intmat.adjacency_matmul`), never on
a dense A, so each costs O(n^2 k d) integer additions on a k-regular graph of
order n.  The verifiers and `structural_check` accept the `GraphAnalysis` of
their graph, so `verify` runs the BFS pass once per graph.

For excess 0 the matrix A_{d+1} is taken to be zero and both identities
degrade gracefully, which lets the classical excess-0 graphs in the catalog
serve as exact regression anchors.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from . import _intmat
from .errors import Graph6ParseError, ParameterDomainError, StructuralRefusal
from .polynomials import dickson_family


def moore_bound(k: int, g: int) -> int:
    """Minimum order of a k-regular graph of girth g, exactly.

    Odd g:  1 + k + k(k-1) + ... + k(k-1)^((g-3)/2) = 1 + k((k-1)^((g-1)/2) - 1)/(k-2)
    Even g: 2 * (1 + (k-1) + ... + (k-1)^((g-2)/2)) = 2((k-1)^(g/2) - 1)/(k-2)

    Both series are g terms of 1 (an odd-length cycle) when k = 2.
    """
    if k < 2 or g < 3:
        raise ParameterDomainError(f"moore_bound needs k >= 2 and g >= 3, got k={k}, g={g}")
    if k == 2:
        return g
    if g % 2:
        return 1 + k * ((k - 1) ** ((g - 1) // 2) - 1) // (k - 2)
    return 2 * ((k - 1) ** (g // 2) - 1) // (k - 2)


class Graph:
    """Undirected simple graph on vertices 0..n-1 with sorted adjacency lists."""

    __slots__ = ("n", "adjacency")

    def __init__(self, n: int, adjacency: Sequence[Iterable[int]]):
        if len(adjacency) != n:
            raise ValueError(f"adjacency has {len(adjacency)} rows for n={n}")
        adj = tuple(tuple(sorted(set(nbrs))) for nbrs in adjacency)
        for u, nbrs in enumerate(adj):
            for v in nbrs:
                if not 0 <= v < n:
                    raise ValueError(f"vertex {v} out of range in row {u}")
                if v == u:
                    raise ValueError(f"self-loop at vertex {u}")
                if u not in adj[v]:
                    raise ValueError(f"asymmetric adjacency: {u} -> {v}")
        self.n = n
        self.adjacency = adj

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        return cls(n, adj)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    def adjacency_matrix(self) -> list[list[int]]:
        m = [[0] * self.n for _ in range(self.n)]
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                m[u][v] = 1
        return m

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.adjacency == other.adjacency

    def __hash__(self):
        return hash(self.adjacency)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


# ---------------------------------------------------------------------------
# graph6 ingestion

_G6_HEADER = b">>graph6<<"
_G6_OUT_OF_RANGE = re.compile(rb"[^\x3f-\x7e]")
_G6_NONZERO = re.compile(rb"[^?]")


def parse_graph6(text: bytes | str) -> Graph:
    """Parse one graph in graph6 format (printable McKay encoding)."""
    if isinstance(text, str):
        try:
            data = text.encode("latin-1")  # code points 0..255 are the bytes
        except UnicodeEncodeError as exc:
            raise Graph6ParseError(
                f"character out of range at byte {exc.start}: {ord(text[exc.start])}"
            ) from None
    else:
        data = bytes(text)
    data = data.strip()
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    if not data:
        raise Graph6ParseError("malformed header: empty graph6 string")
    bad = _G6_OUT_OF_RANGE.search(data)
    if bad:
        raise Graph6ParseError(
            f"character out of range at byte {bad.start()}: {data[bad.start()]}"
        )
    n, body = _parse_g6_order(data)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6ParseError(
            f"wrong length: order {n} needs {need} payload bytes, got {len(body)}"
        )
    # bit t of the payload (most significant first) is the pair (i, j), i < j,
    # with t = j(j-1)/2 + i; only the nonzero bytes ("?" is 0) carry edges
    edges = []
    for match in _G6_NONZERO.finditer(body):
        pos = match.start()
        value = body[pos] - 63
        while value:
            top = value.bit_length() - 1
            value ^= 1 << top
            t = 6 * pos + 5 - top
            if t >= nbits:
                raise Graph6ParseError("trailing padding bits are nonzero")
            j = (1 + math.isqrt(8 * t + 1)) // 2
            edges.append((t - j * (j - 1) // 2, j))
    return Graph.from_edges(n, edges)


def _parse_g6_order(data: bytes) -> tuple[int, bytes]:
    if data[0] != 126:
        return data[0] - 63, data[1:]
    if len(data) >= 2 and data[1] == 126:
        if len(data) < 8:
            raise Graph6ParseError("malformed header: truncated 36-bit order")
        n = 0
        for byte in data[2:8]:
            n = (n << 6) | (byte - 63)
        return n, data[8:]
    if len(data) < 4:
        raise Graph6ParseError("malformed header: truncated 18-bit order")
    n = 0
    for byte in data[1:4]:
        n = (n << 6) | (byte - 63)
    return n, data[4:]


# ---------------------------------------------------------------------------
# graph analysis: one bit-parallel BFS from every root at once

#: maps the ASCII digits of ``format(bits, "b")`` to the byte values 0 and 1
_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _members(bits: int):
    """The positions of the set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _all_roots_bfs(adjacency) -> tuple[list[list[int]], int | float, bool, bool]:
    """Breadth-first search from every root at once, level by level.

    Vertex v holds a bitset (a Python int) of the roots whose frontier is at v;
    by symmetry of distance, that is the set of vertices at the current level
    L from v.  The next frontier of v is the OR of its neighbours' bitsets minus
    the roots that have already reached v, so a level costs one big-int OR per
    edge end.  Returns the level bitsets (``levels[i][v]`` is the set of
    vertices at distance i from v), the girth, bipartiteness and connectivity
    (every vertex has seen every root).

    A root in both frontier[v] and the OR of v's neighbours' frontiers sees an
    edge inside level L, which closes an odd walk of 2L + 1; a root that newly
    reaches v from two neighbours at once closes a walk of 2L + 2.  Every such
    walk contains a cycle at most that long, and a shortest cycle is closed in
    one of these two ways seen from any of its vertices, so the first level
    that shows either gives the girth.  The graph is bipartite iff no level of
    any root has an edge inside it.  Once the girth is known, a level tracks
    only the one OR per edge end, and the odd-edge test until one is found.
    """
    frontier = [1 << v for v in range(len(adjacency))]
    seen = frontier[:]
    levels = []
    shortest: int | float = math.inf
    bipartite = True
    while any(frontier):
        level = len(levels)
        levels.append(frontier)
        odd = even = 0
        reached = []
        if shortest == math.inf:
            for v, nbrs in enumerate(adjacency):
                once = twice = 0
                for u in nbrs:
                    f = frontier[u]
                    twice |= once & f
                    once |= f
                odd |= frontier[v] & once
                new = once & ~seen[v]
                even |= new & twice
                seen[v] |= new
                reached.append(new)
        else:
            for v, nbrs in enumerate(adjacency):
                once = 0
                for u in nbrs:
                    once |= frontier[u]
                if bipartite:
                    odd |= frontier[v] & once
                new = once & ~seen[v]
                seen[v] |= new
                reached.append(new)
        if odd:
            bipartite = False
        if shortest == math.inf and (odd or even):
            shortest = 2 * level + (1 if odd else 2)
        frontier = reached
    full = (1 << len(adjacency)) - 1
    return levels, shortest, bipartite, all(bits == full for bits in seen)


class GraphAnalysis:
    """Everything `verify` needs from breadth-first search, from one
    bit-parallel pass over all roots (`_all_roots_bfs`): the level bitsets,
    the girth, bipartiteness, connectivity and the diameter.

    ``levels[i][v]`` is the bitset of the vertices at distance i from v, so
    the antipode counts and the clique-partition test read bitsets, and the
    distance rows (``distances``) and the matrices A_i are built only when
    asked for.  The order-0 graph counts as connected, with no diameter.
    """

    __slots__ = ("graph", "levels", "girth", "bipartite", "connected", "diameter",
                 "_distances", "_verdicts")

    def __init__(self, graph: Graph):
        self.graph = graph
        self._verdicts: dict[tuple[int, int, int], StructuralVerdict] = {}
        self._distances: list[list[int]] | None = None
        self.levels, self.girth, self.bipartite, self.connected = _all_roots_bfs(
            graph.adjacency
        )
        self.diameter: int | None = len(self.levels) - 1 if self.connected and graph.n else None

    @property
    def distances(self) -> list[list[int]]:
        """Distance rows from every vertex, -1 where unreachable; built from
        the level bitsets on first use."""
        if self._distances is None:
            n = self.graph.n
            rows = [[-1] * n for _ in range(n)]
            for i, level in enumerate(self.levels):
                for row, bits in zip(rows, level):
                    for u in _members(bits):
                        row[u] = i
            self._distances = rows
        return self._distances

    def verdict(self, k: int, d: int, e: int) -> StructuralVerdict:
        """The structural verdict for (k, d, e), computed once per triple."""
        verdict = self._verdicts.get((k, d, e))
        if verdict is None:
            verdict = self._verdicts[k, d, e] = _verdict(self, k, d, e)
        return verdict

    def level(self, i: int) -> list[int]:
        """The bitsets of the vertices at distance i from each vertex (all
        empty beyond the eccentricities)."""
        if 0 <= i < len(self.levels):
            return self.levels[i]
        return [0] * self.graph.n

    def distance_matrix(self, i: int) -> list[list[int]]:
        """A_i, the 0/1 matrix of vertex pairs at distance i (zero beyond the
        diameter)."""
        width = f"0{self.graph.n}b"
        return [
            list(format(bits, width)[::-1].encode().translate(_BINARY_DIGITS))
            for bits in self.level(i)
        ]


def _analysis_for(graph: Graph, analysis: GraphAnalysis | None) -> GraphAnalysis:
    if analysis is None:
        return GraphAnalysis(graph)
    if analysis.graph != graph:
        raise ValueError("the analysis passed is of another graph")
    return analysis


def girth(graph: Graph) -> int | float:
    """Length of a shortest cycle via BFS from every vertex; inf for forests."""
    return GraphAnalysis(graph).girth


# ---------------------------------------------------------------------------
# structural verdict

#: Failure labels that flag the (k, d, e) parameters as outside the analytic
#: regime rather than an inconsistency between the graph and its claimed
#: parameters.  The identity verifiers run regardless of these.
REGIME_CONDITIONS = frozenset({"half-girth-range", "excess-range"})


@dataclass(frozen=True)
class StructuralVerdict:
    """Outcome of every structural condition for a claimed (k, d, e) triple.

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


def structural_check(
    graph: Graph, k: int, d: int, e: int, *, analysis: GraphAnalysis | None = None
) -> StructuralVerdict:
    """Check, in order: regularity, bipartiteness, girth 2d, order M(k,2d)+e,
    diameter (d+1 for e > 0, d for e = 0), uniform count of e/2 vertices at
    distance d+1, and the clique partition of the distance-(d+1) relation.

    Violations are recorded, not raised.  A precomputed ``analysis`` of the
    same graph is used instead of a new one.
    """
    return _analysis_for(graph, analysis).verdict(k, d, e)


def _verdict(analysis: GraphAnalysis, k: int, d: int, e: int) -> StructuralVerdict:
    graph = analysis.graph
    failures: list[str] = []
    if d < 3:
        failures.append("half-girth-range")
    if e % 2 or e < 0 or e > k - 2:
        failures.append("excess-range")

    if any(deg != k for deg in graph.degrees):
        failures.append("regularity")
    if not analysis.bipartite:
        failures.append("bipartite")
    if analysis.girth != 2 * d:
        failures.append("girth")

    excess = None
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
    antipodes = analysis.level(far)
    counts = [bits.bit_count() for bits in antipodes] if connected else []
    uniform = bool(counts) and len(set(counts)) == 1
    antipode_count = counts[0] if uniform else None
    if not uniform or antipode_count != e // 2:
        failures.append("antipode-count")

    cliques_ok = False
    clique_count = None
    if connected and uniform and antipode_count == e // 2:
        if e == 0:
            cliques_ok = True  # no vertex pairs at distance d+1; trivially a clique partition
        else:
            cliques_ok = _is_clique_partition(
                [bits | 1 << v for v, bits in enumerate(antipodes)]
            )
            if cliques_ok:
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


def _is_clique_partition(cells: list[int]) -> bool:
    """True iff the relation "v is in cells[u]" is a disjoint clique union,
    for bitset cells with u in cells[u]: each cell is the same set seen from
    each of its members (then any two members are related).  For the cells
    {u} + {v : dist(u, v) = far}, that is the antipodal clique partition."""
    return all(cells[a] == cell for cell in cells for a in _members(cell))


# ---------------------------------------------------------------------------
# exact identity verifiers

@dataclass(frozen=True)
class IdentityCheck:
    """Exact residual of a matrix identity: max |lhs - rhs| entry."""

    name: str
    n: int
    residual: int

    @property
    def holds(self) -> bool:
        return self.residual == 0


def _require_structure(
    graph: Graph, k: int, d: int, e: int, analysis: GraphAnalysis | None
) -> GraphAnalysis:
    analysis = _analysis_for(graph, analysis)
    verdict = analysis.verdict(k, d, e)
    if not verdict.structure_ok:
        raise StructuralRefusal(
            f"structural check failed: {', '.join(verdict.failures)}", verdict=verdict
        )
    return analysis


def verify_path_count_identity(
    graph: Graph, k: int, d: int, e: int, *, analysis: GraphAnalysis | None = None
) -> IdentityCheck:
    """Exact residual of F_d(A) = k*A_d - A*A_{d+1}.

    Refuses when the graph is structurally inconsistent with (k, d, e); the
    identity itself is tested on whatever structurally consistent graph is
    supplied, regime notes notwithstanding.  For e = 0, A_{d+1} is the zero
    matrix and its product with A is skipped.  Costs O(n^2 k d) integer
    additions (see `_intmat`).
    """
    analysis = _require_structure(graph, k, d, e, analysis)
    adjacency = graph.adjacency
    lhs = _intmat.adjacency_eval_poly(dickson_family("F", k, d).coefficients, adjacency)
    far = analysis.distance_matrix(d + 1)
    # A·A_{d+1} vanishes with A_{d+1} (e = 0: the diameter is at most d)
    walks = _intmat.adjacency_matmul(adjacency, far) if any(map(any, far)) else far
    residual = max(
        (
            abs(f - k * a + w)
            for f_row, a_row, w_row in zip(lhs, analysis.distance_matrix(d), walks)
            for f, a, w in zip(f_row, a_row, w_row)
        ),
        default=0,
    )
    return IdentityCheck(name="path-count", n=graph.n, residual=residual)


def verify_allones_identity(
    graph: Graph, k: int, d: int, e: int, *, analysis: GraphAnalysis | None = None
) -> IdentityCheck:
    """Exact residual of k*J = (A + k*I)(H_{d-1}(A) + A_{d+1}), with the
    product taken as A·M + k·M."""
    analysis = _require_structure(graph, k, d, e, analysis)
    adjacency = graph.adjacency
    inner = _intmat.adjacency_eval_poly(dickson_family("H", k, d - 1).coefficients, adjacency)
    far = analysis.distance_matrix(d + 1)
    if any(map(any, far)):  # A_{d+1} = 0 when the diameter is at most d (e = 0)
        inner = _intmat.mat_add(inner, far)
    walks = _intmat.adjacency_matmul(adjacency, inner)
    residual = max(
        (
            abs(w + k * m - k)
            for w_row, m_row in zip(walks, inner)
            for w, m in zip(w_row, m_row)
        ),
        default=0,
    )
    return IdentityCheck(name="all-ones", n=graph.n, residual=residual)


# ---------------------------------------------------------------------------
# antipodal spectrum and the eigenvalue cross-check

def antipodal_spectrum(n: int, e: int) -> list[tuple[int, int]]:
    """Spectrum of a disjoint union of c = 2n/(e+2) cliques on e/2+1 vertices:
    eigenvalue e/2 with multiplicity c and -1 with multiplicity n - c."""
    if e < 2 or e % 2:
        raise ParameterDomainError(f"excess must be even and >= 2, got {e}")
    if (2 * n) % (e + 2):
        raise ParameterDomainError(f"(e+2) = {e + 2} does not divide 2n = {2 * n}")
    c = 2 * n // (e + 2)
    return [(e // 2, c), (-1, n - c)]


@dataclass(frozen=True)
class CrosscheckReport:
    """Numeric check that every adjacency eigenvalue theta != +-k satisfies
    H_{d-1}(theta) in the target set derived from the distance-(d+1) spectrum."""

    targets: tuple[float, ...]
    thetas: tuple[float, ...]
    deviations: tuple[float, ...]
    max_deviation: float
    tolerance: float = 1e-8

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.tolerance


def spectral_crosscheck(
    graph: Graph, k: int, d: int, e: int, *, analysis: GraphAnalysis | None = None
) -> CrosscheckReport:
    """Eigen-decompose A (LAPACK symmetric solver) and check H_{d-1}(theta)
    against {1, -e/2} (or {0} in the degenerate e = 0 case) for every
    eigenvalue other than one copy each of +k and -k."""
    _require_structure(graph, k, d, e, analysis)
    eigenvalues = np.linalg.eigvalsh(np.array(graph.adjacency_matrix(), dtype=float))
    order = np.argsort(np.abs(eigenvalues - k))
    drop = {int(order[0])}
    order = np.argsort(np.abs(eigenvalues + k))
    drop.add(int(order[0]))
    h = dickson_family("H", k, d - 1)
    targets = (0.0,) if e == 0 else (1.0, -e / 2)
    thetas = tuple(float(t) for i, t in enumerate(eigenvalues) if i not in drop)
    deviations = tuple(min(abs(h(t) - target) for target in targets) for t in thetas)
    return CrosscheckReport(
        targets=targets,
        thetas=thetas,
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


def _pg23_incidence() -> Graph:
    """Point-line incidence graph of the projective plane of order 3:
    13 points and 13 lines as 1-dim / 2-dim subspaces of F_3^3, adjacency by
    a zero dot product."""
    points = []
    seen = set()
    for vec in product(range(3), repeat=3):
        if vec == (0, 0, 0) or vec in seen:
            continue
        points.append(vec)
        seen.add(vec)
        seen.add(tuple((2 * x) % 3 for x in vec))
    edges = []
    for i, p in enumerate(points):
        for j, line in enumerate(points):
            if sum(a * b for a, b in zip(p, line)) % 3 == 0:
                edges.append((i, 13 + j))
    return Graph.from_edges(26, edges)


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
            build=_pg23_incidence,
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


@lru_cache(maxsize=None)
def catalog(name: str) -> Graph:
    """Build an embedded catalog graph; order, regularity, and girth are
    asserted against the entry's metadata at load."""
    entry = catalog_entry(name)
    graph = entry.build()
    if graph.n != entry.n or set(graph.degrees) != {entry.k} or girth(graph) != entry.girth:
        raise AssertionError(f"catalog entry {name!r} failed its metadata validation")
    return graph
