"""Benchmark-owned reference arithmetic on flat dictionaries.

A motive is compared as ``{(monomial, bits, k2): coefficient}``, where the
term ``c * L^(k2/2) * [monomial] * Y(bits)`` has a sorted monomial tuple.
These loops share no code with the library; the oracles in ``workloads.py``
compare the library's results against them.
"""

from __future__ import annotations

import hashlib

Flat = dict


def flat(m) -> Flat:
    """Flat form of a library Motive, read through its public API."""
    return {(mon, bits, k2): c
            for (mon, bits), coeff in m.terms() for k2, c in coeff.items()}


def flat_terms(terms) -> Flat:
    """Flat form of spec terms ``[[monomial, bits, [[k2, c], ...]], ...]``."""
    out: Flat = {}
    for mon, bits, coeff in terms:
        for k2, c in coeff:
            _acc(out, (tuple(sorted(mon)), bits, k2), c)
    return out


def _acc(d: dict, key, c: int) -> None:
    v = d.get(key, 0) + c
    if v:
        d[key] = v
    else:
        d.pop(key, None)


def add(a: Flat, b: Flat, scale: int = 1) -> Flat:
    out = dict(a)
    for key, c in b.items():
        _acc(out, key, scale * c)
    return out


def product(a: Flat, b: Flat) -> Flat:
    """Convolution product: monomials join, bits XOR, exponents add."""
    out: Flat = {}
    for (m1, b1, k1), c1 in a.items():
        for (m2, b2, k2), c2 in b.items():
            _acc(out, (tuple(sorted(m1 + m2)), b1 ^ b2, k1 + k2), c1 * c2)
    return out


HASH_MASK = (1 << 128) - 1


def _term_hash(key, c: int) -> int:
    return int.from_bytes(hashlib.blake2b(repr((key, c)).encode(),
                                          digest_size=16).digest(), "big")


def _combine(sums) -> str:
    h = hashlib.blake2b(digest_size=16)
    for total in sums:
        h.update((total & HASH_MASK).to_bytes(16, "big"))
    return h.hexdigest()


def digest(*flats: Flat) -> str:
    """Fingerprint of a sequence of flat motives: per motive, the sum of a
    128-bit hash of each (key, coefficient) term.  It is equal exactly when
    every coefficient of every motive is (up to hash collisions)."""
    return _combine(sum(_term_hash(key, c) for key, c in fl.items())
                    for fl in flats)


def fingerprint(*motives) -> str:
    """``digest`` of library motives, streamed off ``terms()`` without
    building their flat forms, so that checking an output costs little
    memory next to the output itself."""
    return _combine(sum(_term_hash((mon, bits, k2), c)
                        for (mon, bits), coeff in m.terms()
                        for k2, c in coeff.items())
                    for m in motives)


def laurent(coeffs: dict) -> Flat:
    """A pure Laurent polynomial {k2: c} as a flat motive."""
    return {((), 0, k2): c for k2, c in coeffs.items() if c}


def laurent_power(base: dict, n: int) -> dict:
    out = {0: 1}
    for _ in range(n):
        nxt: dict = {}
        for k1, c1 in out.items():
            for k2, c2 in base.items():
                _acc(nxt, k1 + k2, c1 * c2)
        out = nxt
    return out


def chain_closed_form(n: int) -> Flat:
    """The n-fold exterior product of 1 - L^(1/2) Y(p): one term per subset S,
    (-L^(1/2))^|S| Y(+S), with each factor's generator on its own bit."""
    out = {}
    for bits in range(1 << n):
        size = bin(bits).count("1")
        out[((), bits, size)] = -1 if size % 2 else 1
    return out


# -- zeta series --------------------------------------------------------------------


def factor_series(factors, k: int) -> dict:
    """Coefficients {degree: {k2: c}} of prod_i sum_{j>=1} L^(-j nu_i) T^(j N_i)
    up to T^k."""
    series = {0: {0: 1}}
    for n, nu in factors:
        nxt: dict = {}
        for deg, poly in series.items():
            j = 1
            while deg + j * n <= k:
                slot = nxt.setdefault(deg + j * n, {})
                for k2, c in poly.items():
                    _acc(slot, k2 - 2 * j * nu, c)
                j += 1
        series = nxt
    return series


def resolution_reference(spec: dict) -> tuple[list[Flat], Flat, Flat]:
    """(series T^0..T^k, nearby cycle, vanishing cycle) for a series spec."""
    k = spec["k"]
    nvals = {d[0]: (d[1], d[2]) for d in spec["divisors"]}
    series = [dict() for _ in range(k + 1)]
    nearby: Flat = {}
    restricted: Flat = {}
    for names, _order, terms in spec["strata"]:
        cls = flat_terms(terms)
        r = len(names)
        coeff = product(cls, laurent(laurent_power({2: 1, 0: -1}, r - 1)))
        for deg, poly in factor_series([nvals[n] for n in names], k).items():
            series[deg] = add(series[deg], product(coeff, laurent(poly)))
        nearby = add(nearby, coeff, 1 if r % 2 else -1)
        restricted = add(restricted, product(
            cls, laurent(laurent_power({0: 1, 2: -1}, r - 1))))
    inner = add({((), 0, 0): 1}, restricted, -1)
    vanishing = product(inner, laurent({-spec["dim_u"]: 1}))
    return series, nearby, vanishing

