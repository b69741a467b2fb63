"""Registry of base spaces, monodromy symbols, bundle generators and morphisms.

Every computation runs against a registry that is built once and then
frozen (:meth:`Registry.freeze`).  It records:

* named base spaces, optionally with a declared smooth dimension and a list
  of named strata (sub-loci whose symbols may appear in motives over the
  ambient space);
* monodromy symbols: named generators ``[S, action]`` with the order of the
  cyclic group the action factors through.  Order-2 symbols may be declared
  as principal Z2-bundle covers, in which case they are eagerly rewritten
  into the group-ring normal form ``1 - L^(1/2) . Y(p)`` and never appear in
  stored terms;
* per-space ordered lists of F2 bundle generators (a presentation of the
  finitely generated subgroup of Z2-bundle classes in play);
* morphisms with explicit pullback/pushforward transport tables, whose
  symbol images are all stored as motives over the source;
  :meth:`Registry.pull_bits` is the one routine that transports bundle
  generators along a morphism, and the one home of its same-name fallback
  rule.  Each morphism has a :class:`PullTable`, the one memo of that
  transport: reading a class it does not hold computes the image with
  ``pull_bits`` and keeps it, since the atlas loops pull the same classes
  along the same restrictions again and again.  Nothing needs
  invalidating, as no declaration changes an image already computed, and
  the table holds only classes that some pulled motive carried.  A
  composite (:meth:`Registry.compose`) has no ``pull_bundles`` or
  ``pull_symbols`` table of its own: it is its steps, pulled along in
  order, so it refuses exactly what they refuse.  It does have a
  :class:`PullTable`, which keeps the images along the whole chain;
* product spaces with symbol/generator images for external products; the
  product's generators are the left factor's, then the right's;
* square-root data: the bookkept correspondence between (line bundle,
  squared trivialization) pairs and bundle classes.

The absolute point is registered under the name ``"K"`` in every registry.
"""

from __future__ import annotations

from typing import Optional

from .errors import MissingTransport, RegistryError, UnknownDatum

POINT = "K"

MORPHISM_KINDS = ("open-inclusion", "etale", "to-point", "general")


class Record:
    """A record whose fields are the attributes its ``__init__`` sets, in
    order, compared and shown as a dataclass is, with no code generated
    when the class is made.  Every module with a record imports this one."""

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


_set = object.__setattr__


class FrozenRecord(Record):
    """A record hashed by value whose ``__init__`` sets each field once,
    through ``_set``, as a frozen dataclass's generated ``__init__`` does:
    its fields read as fast as plain attributes, which a ``NamedTuple``'s
    do not on CPython 3.11, and the atlas loops read them thousands of
    times per call."""

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Space(FrozenRecord):
    def __init__(self, name: str, dim: Optional[int] = None,
                 strata: tuple[str, ...] = ()):
        _set(self, "name", name)
        _set(self, "dim", dim)
        _set(self, "strata", strata)


class Symbol(FrozenRecord):
    """A named monodromic generator over a space.

    ``order`` is the order of the cyclic quotient the action factors
    through; ``order == 1`` means trivial monodromy.  ``underlying`` is the
    declared non-equivariant class (a Motive), used by the monodromy-forget
    map.  ``cover_bits`` marks the symbol as a Z2-bundle cover with the given
    class; such symbols are rewritten away at construction time.
    """

    def __init__(self, name: str, space: str, order: int = 1,
                 underlying: Optional[object] = None,
                 cover_bits: Optional[int] = None):
        _set(self, "name", name)
        _set(self, "space", space)
        _set(self, "order", order)
        _set(self, "underlying", underlying)  # Motive; typed loosely to avoid a cycle
        _set(self, "cover_bits", cover_bits)


class Morphism(FrozenRecord):
    def __init__(self, name: str, source: str, target: str,
                 kind: str = "general", pull_symbols=None, pull_bundles=None,
                 push_classes=None, steps: tuple[str, ...] = ()):
        _set(self, "name", name)
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "kind", kind)
        # pullback images: target symbol name -> Motive over source
        _set(self, "pull_symbols", {} if pull_symbols is None else pull_symbols)
        # pullback images: target generator name -> bits over source
        _set(self, "pull_bundles", {} if pull_bundles is None else pull_bundles)
        # pushforward images: (sorted monomial, bits) term key -> Motive over target
        _set(self, "push_classes", {} if push_classes is None else push_classes)
        # a composite: the morphisms to pull along, in order; its tables are empty
        _set(self, "steps", steps)


class Product(FrozenRecord):
    """A declared product space X x Y with symbol/generator images."""

    def __init__(self, name: str, left: str, right: str,
                 symbol_images=None, bundle_images=None):
        _set(self, "name", name)
        _set(self, "left", left)
        _set(self, "right", right)
        # (side, name) -> image name on the product; side is 0 (left) or 1 (right)
        _set(self, "symbol_images", {} if symbol_images is None else symbol_images)
        _set(self, "bundle_images", {} if bundle_images is None else bundle_images)


class PullTable(dict):
    """The memo of bundle transport along one morphism: bundle bits on
    ``mor.target`` -> their image on ``mor.source``.

    Reading ``table[bits]`` is one dict lookup on a hit; a miss computes the
    image with :meth:`Registry.pull_bits` and keeps it, so a class is
    transported once per registry.  A pull that raises stores nothing."""

    __slots__ = ("reg", "mor")

    def __init__(self, reg: "Registry", mor: "Morphism"):
        super().__init__()
        self.reg, self.mor = reg, mor

    def __missing__(self, bits: int) -> int:
        img = self[bits] = self.reg.pull_bits(self.mor, bits)
        return img


def _get(table: dict, name: str, what: str):
    try:
        return table[name]
    except KeyError:
        raise RegistryError(f"unknown {what} {name!r}") from None


class Registry:
    """Lookup structure for all named data, read-only once frozen."""

    def __init__(self) -> None:
        self.spaces: dict[str, Space] = {}
        self.symbols: dict[str, Symbol] = {}
        self.generators: dict[str, tuple[str, ...]] = {}
        self._index: dict[str, dict[str, int]] = {}  # space -> name -> bit
        self.morphisms: dict[str, Morphism] = {}
        self.products: dict[str, Product] = {}
        self.square_roots: dict[tuple[str, str, str], int] = {}
        self.pull_tables: dict[str, PullTable] = {}  # morphism name -> its memo
        self._frozen = False
        self.declare_space(POINT, dim=0)

    def freeze(self) -> None:
        """Refuse every later declaration."""
        self._frozen = True

    def _add(self, table: dict, key, value, taken=None, layout=None):
        """Set ``table[key]``; ``taken`` (formatted with ``key``) refuses an
        existing key, and ``layout`` a space that is a product's factor."""
        if self._frozen:
            raise RegistryError("registry is frozen")
        if layout is not None and any(
                layout in (p.left, p.right) for p in self.products.values()):
            raise RegistryError(f"space {layout!r} is a factor of a declared product")
        if taken is not None and key in table:
            raise RegistryError(taken.format(key))
        table[key] = value
        return value

    # -- spaces ------------------------------------------------------------

    def declare_space(self, name: str, dim: Optional[int] = None,
                      strata: tuple[str, ...] = ()) -> Space:
        sp = self._add(self.spaces, name, Space(name, dim, tuple(strata)),
                       "space {!r} already declared")
        self.generators[name] = ()
        self._index[name] = {}
        return sp

    def space(self, name: str) -> Space:
        return _get(self.spaces, name, "space")

    def dim(self, name: str) -> int:
        d = self.space(name).dim
        if d is None:
            raise RegistryError(f"space {name!r} has no declared dimension")
        return d

    # -- bundle generators ---------------------------------------------------

    def declare_generators(self, space: str, names: tuple[str, ...] | list[str]) -> None:
        index = dict(_get(self._index, space, "space"))
        for n in names:
            if n in index:
                raise RegistryError(f"generator {n!r} already declared on {space!r}")
            index[n] = len(index)
        self.generators[space] = tuple(self._add(self._index, space, index, layout=space))

    def generator_index(self, space: str, name: str) -> int:
        try:
            return _get(self._index, space, "space")[name]
        except KeyError:
            raise RegistryError(f"unknown bundle generator {name!r} on {space!r}") from None

    def bits_of(self, space: str, names) -> int:
        bits = 0
        for n in names:
            bits ^= 1 << self.generator_index(space, n)
        return bits

    def check_bits(self, space: str, bits: int) -> tuple[str, ...]:
        """The generators of ``space``; :class:`RegistryError` when ``bits``
        sets a bit beyond them (or is negative)."""
        gens = _get(self.generators, space, "space")
        if bits >> len(gens):
            raise RegistryError(f"bundle bits {bits} out of range on {space!r}")
        return gens

    def names_of(self, space: str, bits: int) -> tuple[str, ...]:
        gens = self.check_bits(space, bits)
        return tuple(g for i, g in enumerate(gens) if bits >> i & 1)

    # -- symbols --------------------------------------------------------------

    def declare_symbol(self, name: str, space: str, order: int = 1,
                       underlying: Optional[object] = None,
                       cover_bits: Optional[int] = None) -> Symbol:
        self.space(space)
        if order < 1:
            raise RegistryError("symbol order must be positive")
        if cover_bits is not None and order != 2:
            raise RegistryError("only order-2 symbols can be declared as Z2-covers")
        sym = self._add(self.symbols, name, Symbol(name, space, order, None, cover_bits),
                        "symbol {!r} already declared", space)
        return sym if underlying is None else self.set_underlying(name, underlying)

    def set_underlying(self, name: str, underlying: object) -> Symbol:
        """Attach an underlying class, which may name symbols declared later."""
        if not underlying.is_plain():
            raise RegistryError(
                f"underlying class of {name!r} must have trivial monodromy")
        sym = self.symbol(name)
        sym = Symbol(sym.name, sym.space, sym.order, underlying, sym.cover_bits)
        return self._add(self.symbols, name, sym)

    def symbol(self, name: str) -> Symbol:
        return _get(self.symbols, name, "symbol")

    def symbol_allowed_on(self, sym: Symbol, space: str) -> bool:
        if sym.space == space:
            return True
        return sym.space in self.space(space).strata

    # -- morphisms ---------------------------------------------------------------

    def declare_morphism(self, name: str, source: str, target: str,
                         kind: str = "general",
                         pull_symbols: Optional[dict[str, object]] = None,
                         pull_bundles: Optional[dict[str, int]] = None,
                         push_classes: Optional[dict] = None) -> Morphism:
        from .motive import Motive, _term_table, symbol_motive

        if kind not in MORPHISM_KINDS:
            raise RegistryError(f"unknown morphism kind {kind!r}")
        self.space(source)
        self.space(target)
        images = {}
        for sym_name, image in (pull_symbols or {}).items():
            if isinstance(image, str):  # a symbol name: its monomial or class
                sym = self.symbol(image)
                image = (Motive._wrap(self, source, {((image,), 0, 0): 1})
                         if sym.cover_bits is None
                         and self.symbol_allowed_on(sym, source)
                         else symbol_motive(self, image))
            if image.reg is not self or image.space != source:
                raise RegistryError(f"morphism {name!r}: image of {sym_name!r} "
                                    f"is not a motive over {source!r}")
            images[sym_name] = image
        return self._add_morphism(Morphism(
            name, source, target, kind, images, dict(pull_bundles or {}),
            _term_table(push_classes or {}, f"morphism {name!r}")))

    def _add_morphism(self, mor: Morphism) -> Morphism:
        self._add(self.morphisms, mor.name, mor, "morphism {!r} already declared")
        self.pull_tables[mor.name] = PullTable(self, mor)
        return mor

    def morphism(self, name: str) -> Morphism:
        return _get(self.morphisms, name, "morphism")

    def pull_bits(self, mor: Morphism, bits: int) -> int:
        """Transport bundle bits on ``mor.target`` to ``mor.source``.

        A generator with no table image goes to the generator of the same
        name on the source; with neither, :class:`MissingTransport`.  A
        composite transports along its steps in order.

        This only computes: the image is kept by the morphism's
        :class:`PullTable` (``reg.pull_tables[name][bits]``), which calls
        here on a miss, so a class pulled again costs one dict lookup and
        no call.  A composite reads each step's table in turn.  No
        declaration can make a kept image stale: generators are only
        appended, a morphism's table is fixed when it is declared and its
        name cannot be declared again, and a pull that raises keeps no
        image.
        """
        if mor.steps:
            img = bits
            for step in mor.steps:
                img = self.pull_tables[step][img]
            return img
        gens = self.check_bits(mor.target, bits)
        table, source = mor.pull_bundles, self._index[mor.source]
        img, rest = 0, bits
        while rest:  # the set bits, lowest first
            low = rest & -rest
            name = gens[low.bit_length() - 1]
            step_img = table.get(name)
            if step_img is None:
                j = source.get(name)
                if j is None:
                    raise MissingTransport(
                        f"morphism {mor.name!r} has no image for generator "
                        f"{name!r}")
                step_img = 1 << j
            img ^= step_img
            rest ^= low
        return img

    # -- products ----------------------------------------------------------------

    def declare_product(self, name: str, left: str, right: str) -> Product:
        """Register the product space and auto-register images of all symbols
        and generators of the factors, named ``<product>.<original>``.

        An image carries the image of its symbol's underlying class, or none
        when that class names a symbol with no image (one of a stratum).
        """
        from .motive import Motive  # deferred: motive imports registry

        lsp, rsp = self.space(left), self.space(right)
        self.declare_space(name, dim=None if lsp.dim is None or rsp.dim is None
                           else lsp.dim + rsp.dim)
        prod = Product(name, left, right)
        for side, factor in ((0, left), (1, right)):
            shift = len(self.generators[left]) if side else 0
            for g in self.generators[factor]:
                img = f"{name}.{g}"
                if img in self._index[name]:
                    img = f"{name}.{side}.{g}"  # self-products collide
                self.declare_generators(name, (img,))
                prod.bundle_images[(side, g)] = img
            for sym in [s for s in self.symbols.values() if s.space == factor]:
                img = f"{name}.{sym.name}"
                if img in self.symbols:
                    img = f"{name}.{side}.{sym.name}"
                cover = None if sym.cover_bits is None else sym.cover_bits << shift
                self.declare_symbol(img, name, sym.order, None, cover)
                prod.symbol_images[(side, sym.name)] = img
        for (side, sym_name), img in prod.symbol_images.items():
            underlying = self.symbols[sym_name].underlying
            if underlying is not None and not self.missing_images(
                    prod, side, {n for mon, _, _ in underlying._flat for n in mon}):
                self.set_underlying(img, Motive._wrap(
                    self, name, self.into_product(prod, side, underlying._flat)))
        self.products[name] = prod
        return prod

    def missing_images(self, prod: Product, side: int, names) -> list[str]:
        """One diagnostic per name in ``names`` with no image on ``prod``:
        products image the symbols of each factor itself, not those of its
        strata."""
        return [f"symbol {n!r} on {self.symbol(n).space!r} "
                f"has no image on product {prod.name!r}"
                for n in names if (side, n) not in prod.symbol_images]

    def into_product(self, prod: Product, side: int, flat: dict) -> dict:
        """A flat form over the ``side`` factor of ``prod``, with symbols
        renamed to their images and bits shifted to that side.  Images are
        distinct, so no two keys merge."""
        shift = len(self.generators[prod.left]) if side else 0
        images = prod.symbol_images
        mons: dict[tuple[str, ...], tuple[str, ...]] = {}
        out = {}
        for (mon, bits, k2), c in flat.items():
            mon_img = mons.get(mon)
            if mon_img is None:
                try:
                    mon_img = mons[mon] = tuple(sorted(images[side, n] for n in mon))
                except KeyError:
                    raise RegistryError(
                        self.missing_images(prod, side, mon)[0]) from None
            out[(mon_img, bits << shift, k2)] = c
        return out

    def product_of(self, left: str, right: str) -> Product:
        for prod in self.products.values():
            if prod.left == left and prod.right == right:
                return prod
        raise RegistryError(f"no registered product of {left!r} and {right!r}")

    # -- square-root data ----------------------------------------------------------

    def declare_square_root(self, space: str, line_bundle: str,
                            trivialization: str, bits: int) -> None:
        key = (space, line_bundle, trivialization)
        self.space(space)
        self._add(self.square_roots, key, bits,
                  "square-root datum {} already declared")

    def square_root_bits(self, space: str, line_bundle: str, trivialization: str) -> int:
        key = (space, line_bundle, trivialization)
        if key not in self.square_roots:
            raise UnknownDatum(f"square-root datum {key} not registered")
        return self.square_roots[key]

    # -- helpers --------------------------------------------------------------------

    def cover_symbol_for_bits(self, space: str, bits: int) -> Optional[Symbol]:
        """First registered cover symbol on ``space`` carrying exactly ``bits``."""
        for sym in sorted(self.symbols.values(), key=lambda s: s.name):
            if sym.space == space and sym.cover_bits == bits:
                return sym
        return None

    def compose(self, inner: str, outer: str, name: str) -> Morphism:
        """Register ``outer . inner`` (S -> T -> V) as its two steps.

        Every image that ``outer`` lists must pull along ``inner``, else
        :class:`MissingTransport` is raised here.  The composite has no
        transport tables of its own (so no pushforward), only its
        :class:`PullTable`, and a pull refuses with its step's error.
        """
        from .motive import pullback  # deferred: motive imports registry

        f = self.morphism(inner)
        g = self.morphism(outer)
        if f.target != g.source:
            raise RegistryError("morphisms do not compose")
        for bits in g.pull_bundles.values():
            self.pull_bits(f, bits)
        for image in g.pull_symbols.values():
            pullback(self, inner, image)
        kind = g.kind if g.kind == f.kind else "general"
        return self._add_morphism(Morphism(
            name, f.source, g.target, kind, steps=(outer, inner)))
