"""matchlab: a laboratory for bipartite matching algorithms.

Covers multipass online matching with category advice, priority-model
algorithms driven by vertex degrees, matching under known-IID arrivals,
the adversarial graph families that separate these algorithms, and the
exact chain analysis behind the degree-driven variants.
"""

from matchlab.graphs import (
    BipartiteGraph,
    brute_force_maximum_matching,
    graph_from_dict,
    matching_size,
    maximum_matching,
    verify_matching,
)
from matchlab.rng import derive_seed, make_rng

__all__ = [
    "BipartiteGraph",
    "brute_force_maximum_matching",
    "derive_seed",
    "graph_from_dict",
    "make_rng",
    "matching_size",
    "maximum_matching",
    "verify_matching",
]
