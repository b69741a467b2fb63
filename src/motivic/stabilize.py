"""Exterior sums, quadratic-form twists and stabilization transport.

These are the transport identities that move vanishing-cycle classes
between charts: the exterior-sum product for functions on a product, the
class of a nondegenerate quadratic form on a bundle (which depends only on
the base dimension and the determinant line with its squared trivialization,
never on the rank), the twist law for adding a fibrewise quadratic form,
and the pullback law along an embedding of charts carrying its square-root
torsor.  The geometric data behind the torsor is never constructed here;
callers supply its class.
"""

from __future__ import annotations

from .bundles import BundleClass, bundle_pullback
from .errors import MissingTransport, SpaceMismatch
from .halflaurent import HalfLaurent
from .motive import Motive, mot_boxdot, pullback, upsilon
from .registry import FrozenRecord, Registry, _set


class QuadraticBundleDatum(FrozenRecord):
    """Rank-r bundle with nondegenerate quadratic form, by its determinant data."""

    def __init__(self, base: str, rank: int, det_class: BundleClass):
        if rank < 1:
            raise ValueError("rank must be positive")
        if det_class.space != base:
            raise SpaceMismatch(
                f"det class on {det_class.space!r}, base {base!r}")
        _set(self, "base", base)
        _set(self, "rank", rank)
        _set(self, "det_class", det_class)


class EmbeddingDatum(FrozenRecord):
    """Chart embedding (U, f) -> (V, g) with its square-root torsor class."""

    def __init__(self, source_chart: str, target_chart: str, dim_source: int,
                 dim_target: int, p_phi: BundleClass):
        if dim_target < dim_source:
            raise ValueError("target chart dimension must dominate the source")
        _set(self, "source_chart", source_chart)
        _set(self, "target_chart", target_chart)
        _set(self, "dim_source", dim_source)
        _set(self, "dim_target", dim_target)
        _set(self, "p_phi", p_phi)


def thom_sebastiani(a: Motive, b: Motive) -> Motive:
    """Vanishing cycle of an exterior sum: the external convolution product."""
    return mot_boxdot(a, b)


def quadratic_form_motive(reg: Registry, d: QuadraticBundleDatum) -> Motive:
    """Normalized vanishing-cycle class of a nondegenerate quadratic form.

    Depends only on the base dimension and the determinant class:
    ``L^(-dim/2) . Y(det)``.
    """
    dim = reg.dim(d.base)
    return upsilon(reg, d.det_class).scale(HalfLaurent.power(-dim))


def twist_by_quadratic(mf: Motive, d: QuadraticBundleDatum,
                       transport: str | None = None) -> Motive:
    """Twist a vanishing-cycle class by a fibrewise quadratic form.

    The quadratic factor contributes exactly ``Y(det)`` after normalization,
    so twisting twice by the same form is the identity.
    """
    det = d.det_class
    if det.space != mf.space:
        if transport is None:
            raise MissingTransport(
                f"det class on {det.space!r} needs transport to {mf.space!r}")
        det = bundle_pullback(mf.reg, transport, det)
    return pullback(mf.reg, None, mf, det)


def stabilize_pullback(mf: Motive, e: EmbeddingDatum) -> Motive:
    """Pullback of the target chart's class along the embedding.

    Equals the source class twisted by the square-root torsor of the
    embedding; depends on the embedding only through that class.
    """
    if e.p_phi.space != mf.space:
        raise SpaceMismatch(
            f"torsor class on {e.p_phi.space!r}, motive on {mf.space!r}")
    return pullback(mf.reg, None, mf, e.p_phi)


def compose_embeddings(reg: Registry, first: EmbeddingDatum,
                       second: EmbeddingDatum,
                       transport: str | None = None) -> EmbeddingDatum:
    """Composite embedding datum: torsor classes multiply.

    ``first`` embeds U in V and ``second`` embeds V in W; the composite
    carries ``P_first tensor (pullback of P_second)``, with ``transport``
    naming the restriction morphism when the classes live on different
    spaces.
    """
    if first.target_chart != second.source_chart:
        raise ValueError("embeddings do not compose")
    p2 = second.p_phi
    if p2.space != first.p_phi.space:
        if transport is None:
            raise MissingTransport(
                f"class on {p2.space!r} needs transport to {first.p_phi.space!r}")
        p2 = bundle_pullback(reg, transport, p2)
    return EmbeddingDatum(first.source_chart, second.target_chart,
                          first.dim_source, second.dim_target,
                          first.p_phi.tensor(p2))
