"""Anti-Ramsey numbers of matchings in maximal outerplanar graphs.

Exact, certificate-producing computation: enumerate the graphs, solve
ar(G, M_k) by branch and bound over edge-set partitions, verify every
witness independently, and sweep whole orders with caching.
"""

from .graphs import (
    Bipartition,
    CanonicalForm,
    Graph,
    Graph6Error,
    bipartition_of,
    canonical_form,
    graph6_decode,
    graph6_encode,
)
from .matchings import (
    TutteBergeCertificate,
    is_factor_critical,
    iterate_k_matchings,
    matching_number,
    tutte_berge_certificate,
)
from .mops import (
    Triangulation,
    bipartite_outerplanar_corpus,
    enumerate_mops,
    enumerate_triangulations,
)
from .rainbow import (
    EdgeColoring,
    RainbowWitness,
    VerifyResult,
    find_rainbow_matching,
    verify_certificate,
)
from .runner import (
    BoundCheck,
    ClassResult,
    LemmaReport,
    ResultCache,
    ar_class,
    lemma_bipartite_check,
)
from .solver import ArResult, ar_brute_force, ar_exact, seed_incumbent

__version__ = "0.1.0"

__all__ = [
    "ArResult", "Bipartition", "BoundCheck", "CanonicalForm", "ClassResult",
    "EdgeColoring", "Graph", "Graph6Error", "LemmaReport",
    "RainbowWitness", "ResultCache", "Triangulation", "TutteBergeCertificate",
    "VerifyResult", "ar_brute_force", "ar_class", "ar_exact",
    "bipartite_outerplanar_corpus", "bipartition_of", "canonical_form",
    "enumerate_mops", "enumerate_triangulations", "find_rainbow_matching",
    "graph6_decode", "graph6_encode", "is_factor_critical",
    "iterate_k_matchings", "lemma_bipartite_check", "matching_number",
    "seed_incumbent", "tutte_berge_certificate", "verify_certificate",
]
