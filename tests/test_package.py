import mopar
from mopar import graphs, matchings, mops

CLAIM_PATH = [
    "ArResult", "BoundCheck", "ClassResult", "EdgeColoring", "Graph",
    "Graph6Error", "RainbowWitness", "ResultCache", "VerifyResult",
    "ar_class", "ar_exact", "enumerate_mops", "find_rainbow_matching",
    "graph6_decode", "graph6_encode", "iterate_k_matchings",
    "seed_incumbent", "verify_certificate",
]


def test_package_exports_only_the_claim_path():
    assert sorted(mopar.__all__) == CLAIM_PATH
    assert all(hasattr(mopar, name) for name in CLAIM_PATH)
    # off the claim path, but `mop enumerate --labeled` and the benchmark
    # still call them on their modules; the package no longer imports them
    for module, name in (
        (mops, "enumerate_triangulations"),
        (graphs, "canonical_form"), (graphs, "CanonicalForm"),
        (matchings, "matching_number"),
    ):
        assert hasattr(module, name) and not hasattr(mopar, name)
