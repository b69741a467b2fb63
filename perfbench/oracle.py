"""Expected outcomes of the in-process ops, from the reference arithmetic.

``expected`` turns a deck spec into one compact expectation per op:
fingerprints (``reference.digest``) of the flat motives the library must
return, or ``None`` where the op's check needs no reference (an expected
exception, or the arc ops, which compare two library results).  The
benchmark computes them in a child process, so the reference's own
arithmetic never counts in the run's peak RSS, and the checks in
``workloads.py`` only fingerprint the library's outputs.
"""

from __future__ import annotations

import reference


def ring_expected(entry: dict):
    if entry["op"] == "chain":
        return reference.digest(reference.chain_closed_form(entry["n"]))
    if entry["expect"] == "undecidable":
        return None
    return reference.digest(reference.product(reference.flat_terms(entry["a"]),
                                              reference.flat_terms(entry["b"])))


def series_expected(entry: dict):
    if entry["op"] == "arc":
        return None
    series, nearby, vanishing = reference.resolution_reference(entry)
    return reference.digest(*series, nearby, vanishing)


def glued_value(entry: dict) -> dict:
    """Flat value V . Y(G) every region must glue to (same bits everywhere)."""
    g = entry["charts"][0]["q"] ^ entry["charts"][0]["alpha"]
    return reference.flat_terms([[mon, bits ^ g, coeff]
                                 for mon, bits, coeff in entry["value"]])


def atlas_expected(entry: dict):
    if entry["broken"]:
        return None
    return {"regions": sorted(c["region"] for c in entry["charts"]),
            "value": reference.digest(glued_value(entry)),
            "pushforward": reference.digest(
                reference.laurent(dict(entry["pushforward"]))),
            "verdict": entry["verdict"]}


BY_WORKLOAD = {"ring_dense": ring_expected, "series_deep": series_expected,
               "atlas_glue": atlas_expected}


def expected(workload: str, spec: list[dict]) -> list:
    return [BY_WORKLOAD[workload](entry) for entry in spec]
