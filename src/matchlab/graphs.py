"""Bipartite graph core.

Graphs are immutable once constructed and stored in compressed sparse row
form: online vertex u sees offline vertices indices[indptr[u]:indptr[u+1]],
strictly increasing.  The transposed (CSC) arrays index the offline side
the same way and are built on first use.  Online vertices are indexed
0..n_online-1 and offline vertices 0..n_offline-1.

Two maximum-matching routes are kept deliberately separate: a fast
Hopcroft-Karp oracle (scipy, imported on first use) used everywhere, and
an independent exhaustive-search oracle to cross-check it on small ones.
"""

from __future__ import annotations

import operator
from functools import cached_property

import numpy as np

BRUTE_FORCE_MAX_ONLINE = 12


def _rows_increasing(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """True iff every row of the CSR arrays is strictly increasing."""
    ok = indices[1:] > indices[:-1]
    starts = indptr[1:-1]
    ok[starts[(starts > 0) & (starts < indices.size)] - 1] = True
    return bool(ok.all())


class BipartiteGraph:
    """Immutable bipartite graph given in CSR form.

    The arrays are validated and kept without copying, then made
    read-only: the graph owns them.  `from_rows` builds a graph from
    neighbour lists.
    """

    def __init__(self, n_online: int, n_offline: int, indptr, indices) -> None:
        try:
            n_online, n_offline = operator.index(n_online), operator.index(n_offline)
        except TypeError:
            raise ValueError("vertex counts must be integers") from None
        if n_online < 0 or n_offline < 0:
            raise ValueError("vertex counts must be non-negative")
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        if any(a.size and a.dtype.kind not in "iu" for a in (indptr, indices)):
            raise ValueError("vertex ids must be integers")
        indptr, indices = (a.astype(np.int64, copy=False) for a in (indptr, indices))
        if indptr.shape != (n_online + 1,) or indices.ndim != 1:
            raise ValueError("adjacency must have one row per online vertex")
        if indptr[0] != 0 or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must rise from 0 to the edge count")
        if indices.size and (indices.min() < 0 or indices.max() >= n_offline):
            raise ValueError("neighbors out of range")
        if not _rows_increasing(indptr, indices):
            raise ValueError("rows must be sorted without duplicate neighbors")
        self.n_online = n_online
        self.n_offline = n_offline
        self.indptr = indptr
        self.indices = indices
        self.n_edges = int(indices.size)
        self.online_degrees = np.diff(indptr)
        self.offline_degrees = np.bincount(indices, minlength=n_offline)
        for a in (self.online_degrees, self.indptr, self.indices, self.offline_degrees):
            a.flags.writeable = False

    @cached_property
    def indptr_offline(self) -> np.ndarray:
        a = np.concatenate(([0], np.cumsum(self.offline_degrees)))
        a.flags.writeable = False
        return a

    @cached_property
    def indices_offline(self) -> np.ndarray:
        # CSC: offline -> sorted online neighbors, by scipy's linear-time transpose
        a = self.to_csr().tocsc().indices.astype(np.int64)
        a.flags.writeable = False
        return a

    @classmethod
    def from_rows(cls, n_online: int, n_offline: int, rows) -> "BipartiteGraph":
        """Graph from one neighbour list per online vertex, in any order."""
        rows = list(rows)
        indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows], dtype=np.int64)))
        # empty rows are left out: np.asarray([]) is float64
        parts = [r for r in rows if len(r)]
        indices = np.concatenate(parts) if parts else np.empty(0, np.int64)
        if indices.ndim == 1 and not _rows_increasing(indptr, indices):
            row_of = np.repeat(np.arange(len(rows)), np.diff(indptr))
            indices = indices[np.lexsort((indices, row_of))]
        return cls(n_online, n_offline, indptr, indices)

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted offline neighbors of online vertex u (read-only view)."""
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def offline_neighbors(self, v: int) -> np.ndarray:
        """Sorted online neighbors of offline vertex v (read-only view)."""
        return self.indices_offline[self.indptr_offline[v]:self.indptr_offline[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        a = self.neighbors(u)
        i = np.searchsorted(a, v)
        return i < a.size and a[i] == v

    def adjacency(self) -> list[list[int]]:
        """Plain-list copy of the adjacency, for serialization."""
        ptr = self.indptr.tolist()
        return [self.indices[a:b].tolist() for a, b in zip(ptr[:-1], ptr[1:])]

    def to_csr(self):
        """The adjacency as a scipy.sparse.csr_matrix of int8 ones."""
        from scipy.sparse import csr_matrix
        data = np.ones(self.n_edges, dtype=np.int8)
        return csr_matrix((data, self.indices, self.indptr),
                          shape=(self.n_online, self.n_offline))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (self.n_online == other.n_online
                and self.n_offline == other.n_offline
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __repr__(self) -> str:
        return (f"BipartiteGraph(n_online={self.n_online}, "
                f"n_offline={self.n_offline}, n_edges={self.n_edges})")


class Matching:
    """Partial matching with mutual partner maps; -1 means unmatched."""

    def __init__(self, n_online: int, n_offline: int) -> None:
        self.n_online = n_online
        self.n_offline = n_offline
        self.partner_of_online = np.full(n_online, -1, dtype=np.int64)
        self.partner_of_offline = np.full(n_offline, -1, dtype=np.int64)
        self.size = 0

    @classmethod
    def from_partners(cls, partner_of_online: np.ndarray, n_offline: int) -> "Matching":
        """Matching from each online vertex's distinct partner (-1: none)."""
        m = cls(partner_of_online.size, n_offline)
        us = np.flatnonzero(partner_of_online >= 0)
        m.partner_of_online[us] = partner_of_online[us]
        m.partner_of_offline[partner_of_online[us]] = us
        m.size = us.size
        return m

    def match(self, u: int, v: int) -> None:
        assert self.partner_of_online[u] == -1 and self.partner_of_offline[v] == -1
        self.partner_of_online[u] = v
        self.partner_of_offline[v] = u
        self.size += 1

    def pairs(self) -> list[tuple[int, int]]:
        us = np.flatnonzero(self.partner_of_online >= 0)
        return [(int(u), int(self.partner_of_online[u])) for u in us]

    def matched_offline_mask(self) -> np.ndarray:
        return self.partner_of_offline >= 0

    def matched_online_mask(self) -> np.ndarray:
        return self.partner_of_online >= 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return (np.array_equal(self.partner_of_online, other.partner_of_online)
                and np.array_equal(self.partner_of_offline, other.partner_of_offline))

    def __repr__(self) -> str:
        return f"Matching(size={self.size}, pairs={self.pairs()})"


class Permutation:
    """Permutation of n items with both directions precomputed.

    order[p] is the item at position p; rank[x] is the position of item x.
    Used both for arrival orders (online side) and priority lists
    (offline side).
    """

    def __init__(self, order) -> None:
        self.order = np.asarray(order, dtype=np.int64)
        n = self.order.size
        if n and (self.order.min() < 0 or self.order.max() >= n
                  or np.bincount(self.order, minlength=n).max() != 1):
            raise ValueError("not a permutation of 0..n-1")
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[self.order] = np.arange(n)
        self.order.flags.writeable = False
        self.rank.flags.writeable = False

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "Permutation":
        return cls(rng.permutation(n))

    def __len__(self) -> int:
        return self.order.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self.order, other.order)

    def __repr__(self) -> str:
        return f"Permutation({self.order.tolist()})"


def verify_matching(g: BipartiteGraph, m: Matching) -> bool:
    """True iff m is a valid (not necessarily maximal) matching of g."""
    if m.n_online != g.n_online or m.n_offline != g.n_offline:
        return False
    us = np.flatnonzero(m.partner_of_online != -1)
    vs = m.partner_of_online[us]
    if (us.size != m.size or np.count_nonzero(m.partner_of_offline >= 0) != m.size
            or np.any((vs < 0) | (vs >= g.n_offline))):
        return False
    # partners point back, so both maps hold the same m.size pairs
    return bool(np.all(m.partner_of_offline[vs] == us)) and all(
        g.has_edge(u, v) for u, v in zip(us.tolist(), vs.tolist()))


def maximum_matching(g: BipartiteGraph) -> Matching:
    """Maximum-cardinality matching (Hopcroft-Karp, scipy backend).

    Deterministic for a fixed graph: adjacency rows are stored sorted, so
    the CSR handed to the solver is canonical.
    """
    if g.n_online == 0 or g.n_offline == 0 or g.n_edges == 0:
        return Matching(g.n_online, g.n_offline)
    from scipy.sparse.csgraph import maximum_bipartite_matching
    row_match = maximum_bipartite_matching(g.to_csr(), perm_type="column")
    return Matching.from_partners(row_match, g.n_offline)


def brute_force_maximum_matching(g: BipartiteGraph) -> Matching:
    """Exhaustive-search maximum matching, independent of the fast oracle.

    Recurses over online vertices trying every free neighbor plus the
    skip branch, memoized on (vertex, frozen set of used offline vertices).
    Exponential in the worst case; guarded to small instances.
    """
    if g.n_online > BRUTE_FORCE_MAX_ONLINE:
        raise ValueError(
            f"brute force limited to n_online <= {BRUTE_FORCE_MAX_ONLINE}")
    adj = g.adjacency()
    n = g.n_online
    memo: dict[tuple[int, int], int] = {}

    def best(u: int, used: int) -> int:
        if u == n:
            return 0
        key = (u, used)
        val = memo.get(key)
        if val is not None:
            return val
        r = best(u + 1, used)
        for v in adj[u]:
            if not used >> v & 1:
                r = max(r, 1 + best(u + 1, used | 1 << v))
        memo[key] = r
        return r

    m = Matching(g.n_online, g.n_offline)
    used = 0
    for u in range(n):
        target = best(u, used)
        if best(u + 1, used) == target:
            continue
        for v in adj[u]:
            if not used >> v & 1 and 1 + best(u + 1, used | 1 << v) == target:
                m.match(u, v)
                used |= 1 << v
                break
    return m


def random_bipartite(n_online: int, n_offline: int, p: float,
                     rng: np.random.Generator) -> BipartiteGraph:
    """Independent-edge random bipartite graph; test fuzzing utility."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    mask = rng.random((n_online, n_offline)) < p
    indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
    return BipartiteGraph(n_online, n_offline, indptr, np.nonzero(mask)[1])


def graph_to_dict(g: BipartiteGraph) -> dict:
    return {"n_online": g.n_online, "n_offline": g.n_offline,
            "adj": g.adjacency()}


def graph_from_dict(d: dict) -> BipartiteGraph:
    """Graph from its JSON form; counts and vertex ids must be integers."""
    if not isinstance(d, dict):
        raise ValueError("graph document must be a JSON object")
    try:
        n_online, n_offline, adj = d["n_online"], d["n_offline"], d["adj"]
    except KeyError as e:
        raise ValueError(f"graph dict missing key {e}") from e
    # bool is an int subclass, so bools are refused by name and ids by exact type
    if isinstance(n_online, bool) or isinstance(n_offline, bool):
        raise ValueError("vertex counts must be integers")
    if not isinstance(adj, list) or not all(isinstance(r, list) for r in adj):
        raise ValueError("adj must be a list of lists")
    if any(type(v) is not int for r in adj for v in r):
        raise ValueError("vertex ids must be integers")
    return BipartiteGraph.from_rows(n_online, n_offline, adj)
