"""Anti-Ramsey numbers of matchings in maximal outerplanar graphs.

Exact, certificate-producing computation: enumerate the graphs, solve
ar(G, M_k) by branch and bound over edge-set partitions, verify every
witness independently, and sweep whole orders with caching.
"""

from .graphs import Graph, Graph6Error, graph6_decode, graph6_encode
from .matchings import iterate_k_matchings
from .mops import enumerate_mops
from .rainbow import (
    EdgeColoring,
    RainbowWitness,
    VerifyResult,
    find_rainbow_matching,
    verify_certificate,
)
from .runner import BoundCheck, ClassResult, ResultCache, ar_class
from .solver import ArResult, ar_exact, seed_incumbent

__version__ = "0.1.0"

__all__ = [
    "ArResult", "BoundCheck", "ClassResult", "EdgeColoring", "Graph",
    "Graph6Error", "RainbowWitness", "ResultCache", "VerifyResult",
    "ar_class", "ar_exact", "enumerate_mops", "find_rainbow_matching",
    "graph6_decode", "graph6_encode", "iterate_k_matchings",
    "seed_incumbent", "verify_certificate",
]
