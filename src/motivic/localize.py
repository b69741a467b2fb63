"""Torus localization of absolute motives.

For a torus action on an oriented d-critical locus whose fixed locus splits
into components, the absolute class localizes as

    sum_i  L^(-ind_i / 2) . (absolute class of component i),

where the virtual index of a component is the signed count of nonzero
tangent weights at a representative point: dim(T+) - dim(T-).  Weights are
supplied, never derived; goodness and circle-compactness of the action are
asserted flags on the input.  The sum refuses a component that does not
assert both, or whose class is not over the point, and the check refuses a
direct class that is not over the point.
"""

from __future__ import annotations

from typing import Optional

from .errors import ValidationFailed, ZeroWeight
from .halflaurent import HalfLaurent
from .motive import Motive, mot_sum
from .registry import POINT, FrozenRecord, Registry, _set


class FixedComponentDatum(FrozenRecord):
    """One fixed component: its nonzero tangent weights and absolute class.

    ``motive`` None marks an isolated point (class 1 over the point).
    """

    def __init__(self, id: str, weights: tuple[int, ...],
                 motive: Optional[Motive] = None, good: bool = True,
                 circle_compact: bool = True):
        _set(self, "id", id)
        _set(self, "weights", weights)
        _set(self, "motive", motive)
        _set(self, "good", good)
        _set(self, "circle_compact", circle_compact)


def virtual_index(weights) -> int:
    """dim(T+) - dim(T-) from the nonzero weight list."""
    idx = 0
    for w in weights:
        if w == 0:
            raise ZeroWeight("zero weight in tangent data; zero-weight "
                             "directions belong to the fixed component")
        idx += 1 if w > 0 else -1
    return idx


def localize_sum(reg: Registry, components) -> Motive:
    """The localized sum; refuses components asserting a false hypothesis
    or carrying a class off the point, one line per fault."""
    components = list(components)
    refused: list[str] = []
    for c in components:
        if not (c.good and c.circle_compact):
            refused.append(f"component {c.id!r} asserts false: " + ", ".join(
                flag for flag in ("good", "circle_compact")
                if not getattr(c, flag)))
        if c.motive is not None and c.motive.space != POINT:
            refused.append(f"component {c.id!r}: absolute class expected "
                           f"over {POINT!r}, got {c.motive.space!r}")
    if refused:
        raise ValidationFailed(refused)
    return mot_sum(reg, POINT, (
        (Motive.one(reg, POINT) if c.motive is None else c.motive,
         HalfLaurent.power(-virtual_index(c.weights))) for c in components))


def localization_check(reg: Registry, components,
                       direct: Motive) -> tuple[bool, str]:
    """Compare the localized sum against an independently computed class."""
    return compare_to_direct(localize_sum(reg, components), direct)


def compare_to_direct(total: Motive, direct: Motive) -> tuple[bool, str]:
    """(whether the localized sum ``total`` equals ``direct``, the diff
    line); refuses a direct class that is not over the point."""
    if direct.space != POINT:
        raise ValidationFailed([f"direct: absolute class expected over "
                                f"{POINT!r}, got {direct.space!r}"])
    if total == direct:
        return True, f"localized = direct = {total.text()}"
    return False, f"localized = {total.text()} ; direct = {direct.text()}"
