"""Generators for the structured graph families used in the experiments.

Each generator is pure (no randomness) and returns a graph together with a
FamilyDescriptor recording the block layout and the known maximum matching
size.  The canonical arrival order is the identity: vertices are laid out
top-to-bottom.  Indices inside a block are contiguous, and blocks appear
in ascending index order, so index-based tie rules act block-adversarially.
`FAMILIES` names each generator for the command line, together with its
parameter names and its size in closed form.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from matchlab.graphs import BipartiteGraph, check_size

MAX_FIB_INDEX = 92  # largest index whose value fits in a signed 64-bit int


def fibonacci(i: int) -> int:
    """F_i with F_1 = F_2 = 1, guarded against 64-bit overflow."""
    if not 1 <= i <= MAX_FIB_INDEX:
        raise ValueError(f"fibonacci index must lie in 1..{MAX_FIB_INDEX}")
    a, b = 1, 1
    for _ in range(i - 2):
        a, b = b, a + b
    return b


@dataclass
class FamilyDescriptor:
    """Layout metadata attached to every generated family instance."""

    family: str
    params: dict
    online_blocks: dict[str, tuple[int, int]]
    offline_blocks: dict[str, tuple[int, int]]
    expected_opt: int
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "online_blocks": {k: list(v) for k, v in self.online_blocks.items()},
            "offline_blocks": {k: list(v) for k, v in self.offline_blocks.items()},
            "expected_opt": self.expected_opt,
            "arrival": "identity",
            "extra": {k: v for k, v in self.extra.items()},
        }


def gen_fibonacci_family(k: int) -> tuple[BipartiteGraph, FamilyDescriptor]:
    """Level-k hard instance for multipass matching with category advice.

    Level 1 is the 2x2 graph with edges u0-v0, u0-v1, u1-v0.  Level k+1
    stacks three online blocks U1, U2, U3 and offline blocks V1, V2, V3
    with |U1| = |U3| = F_{2k+1} and |U2| = F_{2k}: a level-k copy sits
    between U1 and V3, U2-V2 and U3-V1 are matched by parallel edges, and
    U1-V1, U2-V1 are complete.  Each side has F_{2k+1} vertices at level k,
    the graph has a perfect matching, a k-pass run finds exactly F_{2k}
    edges, and any longer run finds exactly F_{2k} + 1.
    """
    if not 1 <= k <= 11:
        raise ValueError("k must lie in 1..11 (desk-scale guard)")
    adj: list[np.ndarray] = [np.array([0, 1]), np.array([0])]
    top = bot = 0  # sizes of the outermost U1/U2 blocks, set for k >= 2
    for level in range(1, k):
        a = fibonacci(2 * level + 1)   # side size of the current level
        b = fibonacci(2 * level)
        v1 = np.arange(a)
        new_adj: list[np.ndarray] = []
        for u in range(a):             # U1: complete to V1, copy into V3
            new_adj.append(np.concatenate([v1, adj[u] + a + b]))
        for i in range(b):             # U2: complete to V1, parallel to V2
            new_adj.append(np.concatenate([v1, [a + i]]))
        for i in range(a):             # U3: parallel to V1
            new_adj.append(np.array([i]))
        adj = new_adj
        top, bot = a, b
    side = fibonacci(2 * k + 1)
    g = BipartiteGraph.from_rows(side, side, adj)
    if k == 1:
        on_blocks = {"U": (0, side)}
        off_blocks = {"V": (0, side)}
    else:
        on_blocks = {"U1": (0, top), "U2": (top, top + bot), "U3": (top + bot, side)}
        off_blocks = {"V1": (0, top), "V2": (top, top + bot), "V3": (top + bot, side)}
    desc = FamilyDescriptor(
        family="fibonacci", params={"k": k},
        online_blocks=on_blocks, offline_blocks=off_blocks,
        expected_opt=side)
    return g, desc


def gen_kvv_triangular(n: int) -> tuple[BipartiteGraph, FamilyDescriptor]:
    """Upper-triangular graph: online vertex i sees offline i..n-1.

    The classic worst case for single-pass matching with a random offline
    priority list; degree-driven algorithms find its perfect matching.
    """
    if n < 1:
        raise ValueError("n must be positive")
    adj = [np.arange(i, n) for i in range(n)]
    g = BipartiteGraph.from_rows(n, n, adj)
    desc = FamilyDescriptor(
        family="kvv", params={"n": n},
        online_blocks={"U": (0, n)}, offline_blocks={"V": (0, n)},
        expected_opt=n)
    return g, desc


def gen_besser_poloczek(b: int) -> tuple[BipartiteGraph, FamilyDescriptor]:
    """Hard instance for degree-driven algorithms, 2b^2 + 2b per side.

    Per side: S1 holds b^2 vertices, S2 holds b^2 vertices split into b
    sub-blocks of b, S3 holds 2b.  Complete bipartite pieces S3(online)-S1
    (offline) and S2^i(online)-S2^i(offline); parallel edges S1(online, i)
    to S2(offline, b^2 + i), S2(online, b^2 + i) to S1(offline, i), and
    S3(online, j) to S3(offline, j).  Minimum degree b+1 sits on S2, which
    drives degree-based algorithms into the sub-block gadgets first.
    """
    if b < 2:
        raise ValueError("b must be at least 2")
    b2 = b * b
    side = 2 * b2 + 2 * b
    s3 = np.arange(2 * b2, side)
    adj: list[np.ndarray] = []
    for i in range(b2):          # S1 online: parallel partner + S3 offline
        adj.append(np.concatenate([[b2 + i], s3]))
    for i in range(b2):          # S2 online: parallel partner + own sub-block
        blk = i // b
        adj.append(np.concatenate([[i], np.arange(b2 + blk * b, b2 + (blk + 1) * b)]))
    for j in range(2 * b):       # S3 online: S1 offline + parallel partner
        adj.append(np.concatenate([np.arange(b2), [2 * b2 + j]]))
    g = BipartiteGraph.from_rows(side, side, adj)
    blocks = {"S1": (0, b2), "S2": (b2, 2 * b2), "S3": (2 * b2, side)}
    desc = FamilyDescriptor(
        family="besser_poloczek", params={"b": b},
        online_blocks=dict(blocks), offline_blocks=dict(blocks),
        expected_opt=side, extra={"sub_block_size": b})
    return g, desc


def gen_h_graph(n: int, k: int) -> tuple[BipartiteGraph, FamilyDescriptor]:
    """Biclique-plus-pendants graph: n online, k hub + n pendant offline.

    Online vertex i sees every hub vertex (offline 0..k-1) and its private
    pendant (offline k+i).  The pendant edges form a perfect matching on
    the online side.
    """
    if n < 1 or not 0 <= k <= n:
        raise ValueError("need n >= 1 and 0 <= k <= n")
    hub = np.arange(k)
    adj = [np.concatenate([hub, [k + i]]) for i in range(n)]
    g = BipartiteGraph.from_rows(n, k + n, adj)
    desc = FamilyDescriptor(
        family="hgraph", params={"n": n, "k": k},
        online_blocks={"U": (0, n)},
        offline_blocks={"V1": (0, k), "V2": (k, k + n)},
        expected_opt=n)
    return g, desc


def gen_goel_mehta(L: int, N: int) -> tuple[BipartiteGraph, FamilyDescriptor]:
    """Block upper-triangular graph: N blocks of L per side.

    Online block j is complete to offline blocks j..N, so online degrees
    step down ((N-j+1)L for 1-based block j) while offline degrees step up
    (iL for block i).  Index-maximal tie breaking pushes greedy toward the
    late offline blocks, the adversarial regime for IID arrivals.
    """
    if L < 1 or N < 1:
        raise ValueError("L and N must be positive")
    n = L * N
    adj = [np.arange((u // L) * L, n) for u in range(n)]
    g = BipartiteGraph.from_rows(n, n, adj)
    on_blocks = {f"U{j}": ((j - 1) * L, j * L) for j in range(1, N + 1)}
    off_blocks = {f"V{i}": ((i - 1) * L, i * L) for i in range(1, N + 1)}
    desc = FamilyDescriptor(
        family="goel_mehta", params={"L": L, "N": N},
        online_blocks=on_blocks, offline_blocks=off_blocks,
        expected_opt=n)
    return g, desc


def gadget_slack(L: int) -> int:
    """Extra offline capacity per gadget absorbing arrival fluctuations.

    ceil(3 * sqrt(L * ln max(L, 2))): about three standard deviations of
    the per-gadget arrival count, so overflow is a large-deviation event.
    Shared by the generator and the IID experiment layer.
    """
    if L < 1:
        raise ValueError("L must be positive")
    return math.ceil(3.0 * math.sqrt(L * math.log(max(L, 2))))


def gen_min_degree_hard(L: int, N: int, K: int) -> tuple[BipartiteGraph, FamilyDescriptor]:
    """Type graph on which degree-driven IID matching stays near greedy.

    K disjoint copies of the block upper-triangular graph, plus N gadgets:
    gadget j is a biclique of L online vertices against L + gadget_slack(L)
    offline vertices, and is also complete to offline blocks 1..j of every
    copy.  Those extra edges equalize offline degrees inside the copies at
    (N+1)L while gadget offline vertices keep degree L, so minimum-degree
    matching keeps gadget arrivals inside their gadgets and faces the bare
    triangular structure on copy arrivals.
    """
    if L < 1 or N < 1 or K < 1:
        raise ValueError("L, N, K must be positive")
    ln = L * N
    slack = gadget_slack(L)
    cap = L + slack
    n_online = ln * K + N * L
    n_offline = ln * K + N * cap
    adj: list[np.ndarray] = []
    for i in range(K):
        base = i * ln
        for u in range(ln):
            j = u // L  # 0-based copy block
            adj.append(np.arange(base + j * L, base + ln))
    gadget_online = []
    gadget_offline = []
    for j in range(1, N + 1):
        start = ln * K + (j - 1) * L
        gadget_online.append((start, start + L))
        ostart = ln * K + (j - 1) * cap
        gadget_offline.append((ostart, ostart + cap))
        own = np.arange(ostart, ostart + cap)
        copies = [np.arange(i * ln, i * ln + j * L) for i in range(K)]
        row = np.concatenate(copies + [own])
        for _ in range(L):
            adj.append(row)
    g = BipartiteGraph.from_rows(n_online, n_offline, adj)
    desc = FamilyDescriptor(
        family="min_degree_hard", params={"L": L, "N": N, "K": K},
        online_blocks={"copies": (0, ln * K), "gadgets": (ln * K, n_online)},
        offline_blocks={"copies": (0, ln * K), "gadgets": (ln * K, n_offline)},
        expected_opt=ln * K + N * L,
        extra={
            "slack": slack,
            "gadget_capacity": cap,
            "gadget_online": gadget_online,
            "gadget_offline": gadget_offline,
            "copy_online": [(i * ln, (i + 1) * ln) for i in range(K)],
            "copy_offline": [(i * ln, (i + 1) * ln) for i in range(K)],
        })
    return g, desc


# family name -> (generator, canonical parameter order, closed-form
# (n_online, n_offline, n_edges) of the graph it generates).  Fibonacci
# level 1 has 3 edges; level l + 1 adds F_{2l+2} (F_{2l+1} + 1) more.
FAMILIES = {
    "fibonacci": (gen_fibonacci_family, ("k",),
                  lambda k: (fibonacci(2 * k + 1), fibonacci(2 * k + 1),
                             3 + sum(fibonacci(2 * i + 2) * (fibonacci(2 * i + 1) + 1)
                                     for i in range(1, k)))),
    "kvv": (gen_kvv_triangular, ("n",), lambda n: (n, n, n * (n + 1) // 2)),
    "bp": (gen_besser_poloczek, ("b",),
           lambda b: (2 * b * b + 2 * b, 2 * b * b + 2 * b,
                      5 * b**3 + 2 * b**2 + 2 * b)),
    "hgraph": (gen_h_graph, ("n", "k"), lambda n, k: (n, n + k, n * (k + 1))),
    "goelmehta": (gen_goel_mehta, ("L", "N"),
                  lambda L, N: (L * N, L * N, L * L * N * (N + 1) // 2)),
    "mindegreehard": (gen_min_degree_hard, ("L", "N", "K"),
                      lambda L, N, K: (L * N * (K + 1),
                                       L * N * K + N * (L + gadget_slack(L)),
                                       K * L * L * N * (N + 1)
                                       + L * N * (L + gadget_slack(L)))),
}

# families whose online side is a type set sampled IID rather than a
# concrete arrival sequence
TYPE_FAMILIES = frozenset({"goelmehta", "mindegreehard"})


def build_family(family: str, params: dict) -> tuple[BipartiteGraph, FamilyDescriptor]:
    """Instantiate a named family; validates name, parameter keys and size.

    Parameters must be integers (`operator.index`).  The closed-form size
    goes through graphs.check_size, so a family above the vertex or edge
    cap is refused before anything is allocated.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; "
                         f"choose from {sorted(FAMILIES)}")
    gen, names, sizes = FAMILIES[family]
    missing = [p for p in names if p not in params]
    extra = [p for p in params if p not in names]
    if missing or extra:
        raise ValueError(f"family {family!r} takes parameters {list(names)}; "
                         f"missing {missing}, unexpected {extra}")
    args = [operator.index(params[p]) for p in names]
    check_size(*sizes(*args))
    return gen(*args)


def params_label(family: str, params: dict) -> str:
    """Canonical one-token rendering of family parameters (CSV-safe)."""
    return ";".join(f"{p}={int(params[p])}" for p in FAMILIES[family][1])
