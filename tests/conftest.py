"""Shared builders for randomized suites (seeded, deterministic)."""

from __future__ import annotations

import copy
import random

import pytest

from motivic import (Atlas, BundleClass, CriticalChart, HalfLaurent, Motive,
                     OverlapDatum, Registry, upsilon)


@pytest.fixture
def ring_registry() -> Registry:
    """Scratch space with two plain symbols, one opaque one, three generators."""
    reg = Registry()
    reg.declare_space("S", dim=2)
    reg.declare_generators("S", ("g0", "g1", "g2"))
    reg.declare_symbol("A", "S", 1)
    reg.declare_symbol("B", "S", 1)
    reg.declare_symbol("w3", "S", 3,
                       underlying=Motive.coefficient(reg, "S",
                                                     HalfLaurent.const(3)))
    return reg


def rand_coeff(rng: random.Random) -> HalfLaurent:
    return HalfLaurent({rng.randrange(-6, 7): rng.randrange(-9, 10)
                        for _ in range(rng.randrange(1, 3))})


def rand_fragment_motive(reg: Registry, rng: random.Random, space: str = "S",
                         symbols=((), ("A",), ("B",), ("A", "B")),
                         nbits: int = 8, allow_opaque: bool = False,
                         opaque: str = "mu3") -> Motive:
    """Random element of the decidable fragment over ``space``."""
    terms = []
    for _ in range(rng.randrange(1, 4)):
        mon = list(rng.choice(symbols))
        if allow_opaque and rng.random() < 0.4:
            mon.append(opaque)
        terms.append(((tuple(sorted(mon)), rng.randrange(nbits)),
                      rand_coeff(rng)))
    return Motive(reg, space, terms)


def random_consistent_atlas(rng: random.Random):
    """Two-chart atlas over a random F2 space satisfying the descent data.

    Chart values and torsor classes are drawn at random; the second chart's
    value and all orientation classes are back-substituted so the cocycle
    and transported-value identities hold exactly.
    """
    reg = Registry()
    dim = rng.randrange(1, 9)
    reg.declare_space("S", dim=2)
    reg.declare_generators("S", tuple(f"e{i}" for i in range(dim)))
    nbits = 1 << dim
    mf_a = Motive.coefficient(reg, "S", rand_coeff(rng)).odot(
        upsilon(reg, BundleClass("S", rng.randrange(nbits))))
    if mf_a.is_zero():
        mf_a = Motive.one(reg, "S")
    p_a = BundleClass("S", rng.randrange(nbits))
    p_b = BundleClass("S", rng.randrange(nbits))
    mf_b = mf_a.odot(upsilon(reg, p_a.tensor(p_b)))
    q_a = BundleClass("S", rng.randrange(nbits))
    q_t = p_a.tensor(q_a)
    q_b = p_b.tensor(q_t)
    charts = [CriticalChart("cA", "RA", 2, mf_a, q_a),
              CriticalChart("cB", "RB", 2, mf_b, q_b)]
    overlaps = [OverlapDatum("cA", "cB", "RA", p_a=p_a, p_b=p_b, q_t=q_t)]
    atlas = Atlas(reg, {"RA": "S", "RB": "S"}, charts, overlaps, True)
    return reg, atlas, dim


def ts_with_opaque_factors() -> dict:
    """A ``ts`` job of two factors that are each the class of an order-2
    symbol ``m`` not declared as a Z2-cover: their product leaves the
    decidable fragment."""
    from motivic.jobs import load_fixture_job

    job = load_fixture_job("ts_z2_10")
    reg = job["registry"]
    reg["products"] = reg["products"][:1]
    reg["symbols"] = [{"name": "m", "space": "X0", "order": 2, "cover": None,
                       "underlying": {"space": "X0", "terms": [
                           {"monomial": [], "bundle": [], "coeff": [[0, 2]]}]}}]
    factor = {"space": "X0", "terms": [
        {"monomial": ["m"], "bundle": [], "coeff": [[0, 1]]}]}
    job["payload"]["factors"] = [factor, copy.deepcopy(factor)]
    return job


def localize_z1z2_off_the_point(where: str) -> dict:
    """The ``localize_z1z2`` job with a space ``X`` declared and either the
    class of component ``origin`` (``where="component"``) or the direct
    class (``where="direct"``) moved onto it: a job for a refusal."""
    from motivic.jobs import load_fixture_job

    job = load_fixture_job("localize_z1z2")
    job["registry"]["spaces"].append({"name": "X", "dim": 0, "strata": []})
    payload = job["payload"]
    one_on_x = dict(payload["direct"], space="X")
    if where == "component":
        payload["components"][0]["motive"] = one_on_x
    else:
        payload["direct"] = one_on_x
    return job
