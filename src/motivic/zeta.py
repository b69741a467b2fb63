"""Motivic zeta functions from resolution combinatorics.

The input is the combinatorial shadow of a log resolution: a set of divisors
with multiplicities ``N_i`` and discrepancies ``nu_i``, and for each nonempty
divisor subset ``I`` with nonempty open stratum the class of its cyclic
cover of order ``m_I = gcd(N_i : i in I)``.  From these the zeta function is
assembled exactly as a sum of motive coefficients times factors

    L^(-nu) T^N / (1 - L^(-nu) T^N),

one factor per divisor in ``I``, with coefficient ``(L-1)^(|I|-1)`` times
the cover class.  The nearby cycle is minus the large-T limit: every factor
tends to ``-1``, so it is the sum over the strata of ``(1 - L)^(|I|-1)``
times the stratum class, summed straight from the strata.  The vanishing
cycle is its normalized difference from the ambient fibre class,
restricted to the critical locus through user-supplied restriction tables;
both sums go through one routine.  Resolutions are inputs, never computed.

Shared work is built once per call.  ``zeta_function`` raises ``L - 1``
to each subset size once.  ``expand_series`` groups each term's
coefficient once by (monomial, bundle bits) and sums each group as one
rational function: the group's terms go over their least common
denominator, the product of ``1 - L^(-nu) T^N`` to the largest
multiplicity of each (N, nu) among that group's terms only.  A term adds
its coefficient times ``L^(-nu) T^N`` for each of its own factors times
``1 - L^(-nu) T^N`` for each denominator factor it lacks to the numerator,
truncated at T^k; dividing by one factor is the running sum
``q[d] += L^(-nu) q[d - N]`` over ascending degrees d, once per
multiplicity.  Each degree holds group -> {doubled exponent of L:
integer}, and the flat keys of the result are built once, for the entries
that do not cancel.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from typing import Optional

from .errors import MissingRestriction, ValidationFailed
from .halflaurent import HalfLaurent, repr_text
from .motive import Motive, _by_term, _check_operand, _visible_order, mot_sum
from .registry import POINT, FrozenRecord, Record, Registry, _set
from .render import rational_text

DivKey = frozenset


class Divisor(FrozenRecord):
    def __init__(self, id: str, N: int, nu: int, boundary: bool = False):
        _set(self, "id", id)
        _set(self, "N", N)
        _set(self, "nu", nu)
        # closure of a component of the zero locus away from the critical
        # locus; forces N = nu = 1
        _set(self, "boundary", boundary)


class Stratum(FrozenRecord):
    """Open stratum data for a divisor subset: its cover class and order."""

    def __init__(self, cls: Motive, cover_order: int):
        _set(self, "cls", cls)
        _set(self, "cover_order", cover_order)


class RestrictionTable(FrozenRecord):
    """Restrictions of stratum classes to one critical-value slice X_c.

    ``ambient`` is the class of X_c written in the same symbol vocabulary as
    the restricted strata (defaults to the ring identity); declaring it as a
    sum of stratum symbols is the user-level scissor relation that makes
    cancellation happen in normal form.
    """

    def __init__(self, space: str, classes: dict[DivKey, Motive],
                 ambient: Optional[Motive] = None):
        _set(self, "space", space)
        _set(self, "classes", classes)
        _set(self, "ambient", ambient)


class PointTable(FrozenRecord):
    """Point restrictions of every stratum class, over the absolute point."""

    def __init__(self, value: str, classes: dict[DivKey, Motive]):
        _set(self, "value", value)
        _set(self, "classes", classes)


class ResolutionData(Record):
    """Divisors, strata classes by divisor set, and restriction tables by
    critical value and by point label; a list or table left out is a new
    empty one, and ``critical_values`` then is ``["0"]``."""

    def __init__(self, registry: Registry, space_u0: str, dim_u: int,
                 divisors=None, strata=None, critical_values=None,
                 restrictions=None, points=None, constant: bool = False):
        self.registry, self.space_u0, self.dim_u = registry, space_u0, dim_u
        self.divisors = [] if divisors is None else divisors
        self.strata = {} if strata is None else strata
        self.critical_values = ["0"] if critical_values is None else critical_values
        self.restrictions = {} if restrictions is None else restrictions
        self.points = {} if points is None else points
        self.constant = constant

    def divisor(self, did: str) -> Divisor:
        for d in self.divisors:
            if d.id == did:
                return d
        raise KeyError(did)


class RatTerm(FrozenRecord):
    def __init__(self, coeff: Motive, factors: tuple[tuple[int, int], ...]):
        _set(self, "coeff", coeff)
        _set(self, "factors", factors)  # sorted (N, nu) multiset


class RationalMotive(FrozenRecord):
    """Finite sum of motive coefficients times products of zeta factors."""

    def __init__(self, space: str, terms: list[RatTerm]):
        acc: dict[tuple, Motive] = {}
        for t in terms:
            key = tuple(sorted(t.factors))
            acc[key] = acc[key] + t.coeff if key in acc else t.coeff
        _set(self, "space", space)
        _set(self, "terms", tuple(RatTerm(c, k) for k, c in sorted(acc.items())
                                  if not c.is_zero()))

    def text(self) -> str:
        return rational_text(self)

    def __repr__(self) -> str:
        return f"<RationalMotive {self.space}: {repr_text(self, len(self.terms))}>"


def validate_resolution(r: ResolutionData) -> list[str]:
    """Diagnostics list; empty iff the combinatorial invariants all hold."""
    diags: list[str] = []
    seen = set()
    for d in r.divisors:
        if d.id in seen:
            diags.append(f"duplicate divisor id {d.id!r}")
        seen.add(d.id)
        if d.N < 1 or d.nu < 1:
            diags.append(f"divisor {d.id!r} needs positive N and nu")
        if d.boundary and (d.N != 1 or d.nu != 1):
            diags.append(f"boundary divisor {d.id!r} must have N = nu = 1")
    if r.constant and r.divisors:
        diags.append("constant-function data cannot carry divisors")
    for key, stratum in sorted(r.strata.items(), key=lambda kv: sorted(kv[0])):
        names = sorted(key)
        if not key:
            diags.append("empty divisor subset in strata")
            continue
        missing = [n for n in names if n not in seen]
        if missing:
            diags.append(f"stratum {names} references unknown divisors {missing}")
            continue
        m = 0
        for n in names:
            m = gcd(m, r.divisor(n).N)
        if stratum.cover_order != m:
            diags.append(
                f"stratum {names}: declared cover order {stratum.cover_order} "
                f"!= gcd of multiplicities {m}")
        if stratum.cls.space != r.space_u0:
            diags.append(f"stratum {names}: class lives on {stratum.cls.space!r},"
                         f" expected {r.space_u0!r}")
        order = _visible_order(stratum.cls)
        if stratum.cover_order == 1 and order != 1:
            diags.append(f"stratum {names}: order-1 cover with monodromic class")
        if stratum.cover_order >= 3 and order != stratum.cover_order:
            diags.append(
                f"stratum {names}: class monodromy order {order} != declared "
                f"{stratum.cover_order}")
    return diags


def _require_valid(r: ResolutionData) -> None:
    diags = validate_resolution(r)
    if diags:
        raise ValidationFailed(diags)


def zeta_function(r: ResolutionData) -> RationalMotive:
    _require_valid(r)
    reg = r.registry
    terms = []
    lminus1 = HalfLaurent({2: 1, 0: -1})
    powers = {n: lminus1 ** (n - 1) for n in set(map(len, r.strata))}  # n = |I|
    for key, stratum in r.strata.items():
        coeff = stratum.cls.scale(powers[len(key)])
        factors = tuple(sorted((r.divisor(n).N, r.divisor(n).nu) for n in key))
        terms.append(RatTerm(coeff, factors))
    return RationalMotive(r.space_u0, terms)


def expand_series(z: RationalMotive, k: int, reg: Registry) -> list[Motive]:
    """Exact coefficients of T^0 .. T^k.

    Each term's coefficient is checked and grouped once by (monomial,
    bits).  A group's terms are put over their least common denominator,
    prod (1 - x_f) with x_f = L^(-nu) T^N; its numerator is truncated at
    T^k and divided by one factor at a time, as a running sum over the
    degrees.  The flat keys are built once, for the entries that survive.
    """
    reg.space(z.space)
    groups: dict[tuple, list] = {}  # (monomial, bits) -> [(factors, x, coeff)]
    for term in z.terms:
        _check_operand(reg, z.space, term.coeff)
        deg = e = 0  # x = prod_{f in term} x_f = L^(e/2) T^deg
        for N, nu in term.factors:
            deg += N
            e -= 2 * nu
        if deg > k:
            continue
        factors = Counter(term.factors)
        for key, coeff in _by_term(term.coeff._flat).items():
            groups.setdefault(key, []).append(
                (factors, (deg, e), list(coeff.items())))
    flats: list[dict] = [{} for _ in range(k + 1)]
    for (mon, bits), terms in groups.items():
        denom: Counter = Counter()
        for factors, _, _ in terms:
            denom |= factors
        q: list[dict[int, int]] = [{} for _ in range(k + 1)]
        for factors, x, coeff in terms:
            num = {x: 1}  # x . prod_{f in denom - term} (1 - x_f)
            for N, nu in (denom - factors).elements():
                for (d, e), c in list(num.items()):
                    if d + N <= k:
                        key = d + N, e - 2 * nu
                        num[key] = num.get(key, 0) - c
            for (d, e), c in num.items():
                acc = q[d]
                for e1, c1 in coeff:
                    acc[e + e1] = acc.get(e + e1, 0) + c * c1
        # q / (1 - x_f), once per multiplicity: q[d] += L^(-nu) q[d - N]
        for (N, nu), n in denom.items():
            shift = 2 * nu
            for _ in range(n):
                for d in range(N, k + 1):
                    acc = q[d]
                    get = acc.get
                    for e, c in q[d - N].items():
                        acc[e - shift] = get(e - shift, 0) + c
        for flat, sums in zip(flats, q):
            flat.update({(mon, bits, e): c for e, c in sums.items() if c})
    return [Motive._wrap(reg, z.space, flat) for flat in flats]


def nearby_cycle(r: ResolutionData) -> Motive:
    """Minus the large-T limit of the zeta function.

    Each factor tends to -1, so a term with m factors contributes its
    coefficient (L-1)^(m-1) [U_I] times (-1)^(m+1): the limit is the sum of
    the stratum classes times (1-L)^(|I|-1), taken straight from the strata
    with no zeta rebuild.  Constant-function data carry no strata, so their
    sum is zero.
    """
    _require_valid(r)
    return _restricted_sum(r, {key: s.cls for key, s in r.strata.items()},
                           r.space_u0)


def _restricted_sum(r: ResolutionData, classes: dict[DivKey, Motive],
                    space: str, where: str = "",
                    support_only: bool = False) -> Motive:
    """Sum over ``space`` of (1-L)^(|I|-1) times the restricted stratum
    classes; ``where`` ends the missing-restriction message.

    With ``support_only`` the boundary singletons are dropped: those terms
    cancel against the off-critical part of the ambient fibre class, which
    is the support argument behind the vanishing-cycle normal form.
    """
    one_minus_l = HalfLaurent({0: 1, 2: -1})
    powers = {n: one_minus_l ** (n - 1) for n in set(map(len, r.strata))}  # n = |I|

    def terms():
        for key in sorted(r.strata, key=sorted):
            names = sorted(key)
            if support_only and len(key) == 1 and r.divisor(names[0]).boundary:
                continue
            if key not in classes:
                raise MissingRestriction(
                    f"no restriction of stratum {names}{where}")
            yield classes[key], powers[len(key)]

    return mot_sum(r.registry, space, terms())


def vanishing_cycle(r: ResolutionData, c: str = "0") -> Motive:
    """Normalized vanishing-cycle class over the declared slice X_c."""
    _require_valid(r)
    reg = r.registry
    if c not in r.critical_values:
        raise MissingRestriction(f"{c!r} is not a declared critical value")
    table = r.restrictions.get(c)
    if table is None:
        raise MissingRestriction(f"no restriction table for critical value {c!r}")
    ambient = table.ambient if table.ambient is not None \
        else Motive.one(reg, table.space)
    if r.constant:
        inner = ambient
    else:
        inner = ambient - _restricted_sum(r, table.classes, table.space,
                                          support_only=True)
    return inner.scale(HalfLaurent.power(-r.dim_u))


def milnor_fibre_at(r: ResolutionData, x: str) -> Motive:
    """Pointwise normalized class L^(-dim U/2) . (1 - MF(x)) over the point."""
    _require_valid(r)
    reg = r.registry
    table = r.points.get(x)
    if table is None:
        raise MissingRestriction(f"no point-restriction table for {x!r}")
    # constant-function data carry no strata, so their sum is zero
    mf = _restricted_sum(r, table.classes, POINT, f" to point {x!r}")
    return (Motive.one(reg, POINT) - mf).scale(HalfLaurent.power(-r.dim_u))


def inverse_series_constant_term(z: RationalMotive, reg: Registry) -> Motive:
    """Constant term of the expansion in T^(-1), computed per term.

    Each factor expands as -sum_{j>=0} L^(j nu) T^(-j N); the constant term
    of the product is the product of the j = 0 parts, i.e. (-1)^m for m
    factors.
    """
    return mot_sum(reg, z.space, ((term.coeff, {0: (-1) ** len(term.factors)})
                                  for term in z.terms))
