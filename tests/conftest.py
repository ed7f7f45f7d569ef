"""Shared pytest plumbing for the acceptance summary block, plus the
position-dependent and size-dependent control rules for the consistency
checker, the maximality check of a matching, the CSR and CSC neighbour
lookups and the independent-edge random graphs the fuzz tests draw."""

import numpy as np

from matchlab.graphs import BipartiteGraph

ACCEPTANCE_LINES: list[tuple[int, str]] = []


def record_criterion(num: int, label: str, ok: bool, detail: str) -> bool:
    """Print one pass/fail line for an acceptance criterion.

    The line is also replayed in the terminal summary so it stays visible
    when pytest captures per-test output.  Returns ok so callers can
    write `assert record_criterion(...)`.
    """
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}"
    ACCEPTANCE_LINES.append((num, line))
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def parity_control_chooser(t, avail, pos):
    """Deliberately inconsistent rule for negative tests.

    Picks the lowest-index candidate at even arrival positions and the
    highest at odd ones, so the choice depends on when the arrival
    happens, not only on what is available.
    """
    return int(avail[0]) if pos % 2 == 0 else int(avail[-1])


def size_parity_chooser(t, avail, pos):
    """Rule that depends only on (type, available set), yet is inconsistent.

    Picks the lowest-index candidate from an even-sized set and the
    highest from an odd-sized one, so shrinking the set around a choice
    can change it: only the subset check flags it.
    """
    return int(avail[0]) if avail.size % 2 == 0 else int(avail[-1])


def is_maximal(g, partner) -> bool:
    """No unmatched arrival could still be matched to a free neighbor."""
    taken = np.zeros(g.n_offline, dtype=bool)
    taken[partner[partner >= 0]] = True
    return all(partner[u] >= 0 or np.all(taken[g.neighbors(u)])
               for u in range(g.n_online))


def neighbor_lists(g) -> list[list[int]]:
    """Each online vertex's sorted offline neighbours, as plain lists."""
    return [g.neighbors(u).tolist() for u in range(g.n_online)]


def offline_neighbors(g, v: int) -> np.ndarray:
    """Sorted online neighbors of offline vertex v, from g's CSC arrays."""
    return g.indices_offline[g.indptr_offline[v]:g.indptr_offline[v + 1]]


def random_bipartite(n_online: int, n_offline: int, p: float,
                     rng: np.random.Generator) -> BipartiteGraph:
    """Independent-edge random bipartite graph, each edge kept with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    mask = rng.random((n_online, n_offline)) < p
    indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
    return BipartiteGraph(n_online, n_offline, indptr, np.nonzero(mask)[1])
