"""F2-linear algebra of principal Z2-bundle classes.

Bundle classes on a space are elements of the F2 vector space spanned by the
space's declared generators, stored as bitmasks over the registry's ordered
generator list.  Tensor product is XOR, so every class is self-inverse by
construction.  The correspondence with (line bundle, squared trivialization)
pairs is pure bookkeeping: data are registered once and looked up here.
"""

from __future__ import annotations

from .errors import SpaceMismatch
from .registry import FrozenRecord, Registry, _set
from .render import bundle_text


class BundleClass(FrozenRecord):
    def __init__(self, space: str, bits: int = 0):
        _set(self, "space", space)
        _set(self, "bits", bits)

    def is_zero(self) -> bool:
        return self.bits == 0

    def tensor(self, other: "BundleClass") -> "BundleClass":
        if self.space != other.space:
            raise SpaceMismatch(
                f"bundle classes on {self.space!r} and {other.space!r}")
        return BundleClass(self.space, self.bits ^ other.bits)

    __mul__ = tensor

    def text(self, reg: Registry) -> str:
        return bundle_text(reg, self.space, self.bits)


def trivial(space: str) -> BundleClass:
    return BundleClass(space, 0)


def generator(reg: Registry, space: str, name: str) -> BundleClass:
    return BundleClass(space, reg.bits_of(space, (name,)))


def bundle_class(reg: Registry, space: str, names) -> BundleClass:
    return BundleClass(space, reg.bits_of(space, names))


def bundle_tensor(p: BundleClass, q: BundleClass) -> BundleClass:
    return p.tensor(q)


def from_square_root(reg: Registry, space: str, line_bundle: str,
                     trivialization: str) -> BundleClass:
    """Look up the class recorded for a (line bundle, trivialization) pair."""
    return BundleClass(space, reg.square_root_bits(space, line_bundle, trivialization))


def tensor_square_roots(reg: Registry, space: str,
                        first: tuple[str, str], second: tuple[str, str]) -> BundleClass:
    """Bookkept tensor of two square-root data: classes multiply."""
    a = from_square_root(reg, space, *first)
    b = from_square_root(reg, space, *second)
    return a.tensor(b)


def bundle_pullback(reg: Registry, morphism: str, cls: BundleClass) -> BundleClass:
    """F2-linear transport of a bundle class along a registered morphism."""
    return BundleClass(*pull_class_bits(reg, morphism, cls))


def pull_class_bits(reg: Registry, morphism: str,
                    cls: BundleClass) -> tuple[str, int]:
    """The space and bits of ``bundle_pullback(reg, morphism, cls)``, with
    its checks and errors but no class built.

    The image is read from the morphism's memo table
    (``Registry.pull_tables``), one dict lookup once the class has been
    pulled; a miss computes the image with ``Registry.pull_bits`` and the
    table keeps it."""
    mor = reg.morphism(morphism)
    if cls.space != mor.target:
        raise SpaceMismatch(
            f"class on {cls.space!r} cannot be pulled along {morphism!r} "
            f"with target {mor.target!r}")
    return mor.source, reg.pull_tables[morphism][cls.bits]
