"""matchlab: a laboratory for bipartite matching algorithms.

Covers multipass online matching with category advice, priority-model
algorithms driven by vertex degrees, matching under known-IID arrivals,
the adversarial graph families that separate these algorithms, and the
exact chain analysis behind the degree-driven variants.
"""

from matchlab.graphs import (
    BipartiteGraph,
    Matching,
    brute_force_maximum_matching,
    graph_from_dict,
    graph_to_dict,
    maximum_matching,
    random_bipartite,
    verify_matching,
)
from matchlab.rng import derive_seed, make_rng

__all__ = [
    "BipartiteGraph",
    "Matching",
    "brute_force_maximum_matching",
    "derive_seed",
    "graph_from_dict",
    "graph_to_dict",
    "make_rng",
    "maximum_matching",
    "random_bipartite",
    "verify_matching",
]
