"""Bipartite graph core.

Graphs are immutable once constructed and stored in compressed sparse row
form: online vertex u sees offline vertices indices[indptr[u]:indptr[u+1]],
strictly increasing, for u in 0..n_online-1 and ids in 0..n_offline-1.
The transposed (CSC) arrays index the offline side the same way and are
built on first use by scipy, from a csr_array over the graph's own int64
buffers.  Generated families are written straight into one `indices`
array from runs of consecutive ids (`from_ranges`).

A matching is an int64 partner array over the online side: partner[u] is
u's offline partner, -1 when u is unmatched.

Two maximum-matching routes are kept deliberately separate: a fast
Hopcroft-Karp oracle (scipy, imported on first use) for graphs with no
known optimum, such as sampled IID instances and graph documents, and an
independent exhaustive-search oracle, which reads its rows straight from
`indptr` and `indices`, to cross-check it on small ones.  A generated
family needs neither: `families.build_family` checks the perfect matching
its generator builds with `verify_matching`.
"""

from __future__ import annotations

import operator
from functools import cached_property

import numpy as np

BRUTE_FORCE_MAX_ONLINE = 12

# Most vertices per side, and most edges, of a graph read from a document
# or generated by name: 99 times the 20,200 per side and twelve times the
# 5.02M edges of bp b=100, the largest benchmark graph.  Larger graphs are
# refused before anything is allocated, so a typo never exhausts memory.
MAX_VERTICES = 2_000_000
MAX_EDGES = 60_000_000


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
    neighbour lists and `from_ranges` from runs of consecutive ids.
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
            raise ValueError("the graph must have one row per online vertex")
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
        for a in (self.online_degrees, self.indptr, self.indices):
            a.flags.writeable = False

    @cached_property
    def offline_degrees(self) -> np.ndarray:
        # not np.bincount: it copies a read-only input such as `indices`
        a = np.zeros(self.n_offline, np.int64)
        np.add.at(a, self.indices, 1)
        a.flags.writeable = False
        return a

    @cached_property
    def indptr_offline(self) -> np.ndarray:
        a = np.concatenate(([0], np.cumsum(self.offline_degrees)))
        a.flags.writeable = False
        return a

    @cached_property
    def indices_offline(self) -> np.ndarray:
        # CSC: offline -> sorted online neighbors, by scipy's linear-time
        # transpose; the cast copies only if a scipy downcasts to int32
        a = self.to_csr().tocsc().indices.astype(np.int64, copy=False)
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

    @classmethod
    def from_ranges(cls, n_online: int, n_offline: int, *blocks) -> "BipartiteGraph":
        """Graph from blocks of (rows, start, stop) runs of offline ids.

        The parts of a block broadcast together: row rows[r] holds ids
        start[r]..stop[r]-1.  Runs may come in any order; empty runs are
        dropped, one lexsort puts the rest in row order, and the
        constructor refuses overlapping runs.
        `indices` is one allocation: steps of 1, each run's jump at its
        first edge, then a running sum in place.
        """
        runs = np.concatenate([np.reshape(np.broadcast_arrays(*b), (3, -1)) for b in blocks]
                              or [np.empty((3, 0))], axis=1).astype(np.int64, copy=False)
        if np.any(runs[2] < runs[1]):
            raise ValueError("runs must have start <= stop")
        runs = runs[:, runs[2] > runs[1]]
        runs = runs[:, np.lexsort(runs[1::-1])]  # by row, then start; frees the input
        row, start, stop = runs
        ends = np.concatenate(([0], np.cumsum(stop - start)))
        indptr = ends[np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n_online))))]
        indices = np.ones(ends[-1], np.int64)
        indices[ends[:-1]] = start - np.concatenate(([1], stop[:-1])) + 1
        return cls(n_online, n_offline, indptr, np.cumsum(indices, out=indices))

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted offline neighbors of online vertex u (read-only view)."""
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def to_csr(self):
        """The graph as a scipy csr_array of int8 ones; it shares the
        graph's int64 indptr and indices (csr_matrix would downcast them)."""
        from scipy.sparse import csr_array
        data = np.ones(self.n_edges, dtype=np.int8)
        return csr_array((data, self.indices, self.indptr),
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


def matching_size(partner: np.ndarray) -> int:
    """Number of matched online vertices in a partner array (-1: unmatched)."""
    return int(np.count_nonzero(partner >= 0))


def check_permutation(order, n: int, what: str) -> np.ndarray:
    """`order` as an int64 array; refused unless a permutation of range(n)."""
    order = np.asarray(order)
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError(f"{what} must be a permutation of range({n})")
    return order.astype(np.int64)


def verify_matching(g: BipartiteGraph, partner: np.ndarray) -> bool:
    """True iff partner is a matching of g: distinct neighbours, -1 for none.

    Each matched edge is looked up by a binary search over its row, all
    rows at once, in memory linear in the online side.
    """
    if partner.shape != (g.n_online,) or partner.dtype.kind not in "iu":
        return False
    us = np.flatnonzero(partner != -1)
    vs = partner[us]
    ids = np.sort(vs)  # not np.unique: its first call imports numpy.ma, 10 ms
    if np.any((vs < 0) | (vs >= g.n_offline)) or np.any(ids[1:] == ids[:-1]):
        return False
    # row u's last id <= v lies in indices[start:start + size]; halve it
    start, size = g.indptr[us], g.online_degrees[us]
    if np.any(size == 0):
        return False
    while (half := size // 2).any():
        mid = start + half
        start = np.where(g.indices[mid] <= vs, mid, start)
        size -= half
    return bool(np.array_equal(g.indices[start], vs))


def maximum_matching(g: BipartiteGraph) -> np.ndarray:
    """Partner array of a maximum-cardinality matching (Hopcroft-Karp, scipy).

    Deterministic for a fixed graph: rows are stored sorted, so the CSR
    handed to the solver is canonical.
    """
    if g.n_edges == 0:
        return np.full(g.n_online, -1, dtype=np.int64)
    from scipy.sparse.csgraph import maximum_bipartite_matching
    return maximum_bipartite_matching(g.to_csr(), perm_type="column").astype(np.int64)


def brute_force_maximum_matching(g: BipartiteGraph) -> np.ndarray:
    """Exhaustive-search maximum matching, independent of the fast oracle.

    Sweeps the online vertices in order, keeping for each set of used
    offline vertices (a bitmask) the first partner tuple that reaches it,
    by skipping the vertex or by taking any free neighbour; the set with
    the most members is a maximum matching.  Exponential in the worst
    case; guarded to small instances.
    """
    if g.n_online > BRUTE_FORCE_MAX_ONLINE:
        raise ValueError(
            f"brute force limited to n_online <= {BRUTE_FORCE_MAX_ONLINE}")
    level: dict[int, tuple[int, ...]] = {0: ()}
    ptr, ids = g.indptr.tolist(), g.indices.tolist()
    for a, b in zip(ptr[:-1], ptr[1:]):
        nxt: dict[int, tuple[int, ...]] = {}
        for used, partners in level.items():
            nxt.setdefault(used, partners + (-1,))
            for v in ids[a:b]:
                if not used >> v & 1:
                    nxt.setdefault(used | 1 << v, partners + (v,))
        level = nxt
    return np.array(level[max(level, key=int.bit_count)], dtype=np.int64)


def check_size(n_online: int, n_offline: int, n_edges: int) -> None:
    """Refuse a graph above MAX_VERTICES on a side or above MAX_EDGES."""
    if max(n_online, n_offline) > MAX_VERTICES:
        raise ValueError(f"{n_online} online and {n_offline} offline vertices, "
                         f"above the cap of {MAX_VERTICES} per side")
    if n_edges > MAX_EDGES:
        raise ValueError(f"{n_edges} edges, above the cap of {MAX_EDGES}")


def graph_from_dict(d: dict) -> BipartiteGraph:
    """Graph from its JSON form; counts and vertex ids must be integers."""
    if not isinstance(d, dict):
        raise ValueError("graph document must be a JSON object")
    try:
        n_online, n_offline, adj = d["n_online"], d["n_offline"], d["adj"]
    except KeyError as e:
        raise ValueError(f"graph dict missing key {e}") from e
    # bool is an int subclass, so counts and ids are checked by exact type
    if type(n_online) is not int or type(n_offline) is not int:
        raise ValueError("vertex counts must be integers")
    if not isinstance(adj, list) or not all(isinstance(r, list) for r in adj):
        raise ValueError("adj must be a list of lists")
    check_size(n_online, n_offline, sum(map(len, adj)))
    if any(type(v) is not int for r in adj for v in r):
        raise ValueError("vertex ids must be integers")
    return BipartiteGraph.from_rows(n_online, n_offline, adj)
