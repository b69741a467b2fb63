"""Canonical, diff-stable text rendering of motives and rational motives.

Conventions: the Tate class prints as ``L``, half powers as ``L^(k/2)``,
bundle units as ``Y(gen+gen)``, opaque symbols as ``[mu_n:name]`` (or
``[mu_n]`` when the symbol is canonically named ``mu<n>``), plain symbols as
``[name]``.  Terms are emitted in the fixed total order of (monomial,
bundle bits); identical inputs always render identically.
"""

from __future__ import annotations

from .halflaurent import coeff_text, digits_refusal


def symbol_text(reg, name: str) -> str:
    sym = reg.symbol(name)
    if sym.order == 1:
        return f"[{name}]"
    if name == f"mu{sym.order}":
        return f"[mu_{sym.order}]"
    return f"[mu_{sym.order}:{name}]"


def bundle_text(reg, space: str, bits: int) -> str:
    """``Y(gen+gen)``, or ``Y(0)`` for the trivial class."""
    return "Y(" + ("+".join(reg.names_of(space, bits)) or "0") + ")"


# the head of a coefficient before a term's classes, by the coefficient's text
_HEADS = {"1": "", "-1": "-"}


def term_text(reg, space: str, mon: tuple[str, ...], bits: int,
              coeff: dict[int, int]) -> str:
    """One term, its coefficient given as the ``{k2: c}`` dict."""
    parts = [bundle_text(reg, space, bits)] if bits else []
    for name in dict.fromkeys(mon):  # the sorted monomial, one run per name
        n, body = mon.count(name), symbol_text(reg, name)
        parts.append(body if n == 1 else f"{body}^{n}")
    ctext = coeff_text(coeff)
    if not parts:
        return ctext
    if " " in ctext:  # a sum of two or more terms
        ctext = f"({ctext})"
    return _HEADS.get(ctext, ctext + " ⊙ ") + " ⊙ ".join(parts)


def motive_text(m) -> str:
    """The terms in sorted order; a later term's leading ``-`` becomes its
    separator ``" - "``."""
    pieces = [term_text(m.reg, m.space, mon, bits, coeff)
              for (mon, bits), coeff in m._groups()]
    if not pieces:
        return "0"
    text = "".join(f" - {p[1:]}" if p[0] == "-" else f" + {p}" for p in pieces)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def factor_text(N: int, nu: int) -> str:
    lpow = coeff_text({-2 * nu: 1})
    try:
        return f"({lpow} T^{N})/(1 - {lpow} T^{N})"
    except ValueError:  # N past the digit limit
        raise digits_refusal() from None


def rational_text(z) -> str:
    parts = []
    for term in z.terms:
        ct = motive_text(term.coeff)
        if " " in ct and not (ct.startswith("(") and ct.endswith(")")):
            ct = f"({ct})"
        factors = " * ".join(factor_text(N, nu) for N, nu in term.factors)
        parts.append(f"{ct} * {factors}" if factors else ct)
    return " + ".join(parts) or "0"
