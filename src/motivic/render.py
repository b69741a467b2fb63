"""Canonical, diff-stable text rendering of motives and rational motives.

Conventions: the Tate class prints as ``L``, half powers as ``L^(k/2)``,
bundle units as ``Y(gen+gen)``, opaque symbols as ``[mu_n:name]`` (or
``[mu_n]`` when the symbol is canonically named ``mu<n>``), plain symbols as
``[name]``.  Terms are emitted in the fixed total order of (monomial,
bundle bits); identical inputs always render identically.
"""

from __future__ import annotations

from .halflaurent import HalfLaurent, digits_refusal


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


def term_text(reg, space: str, mon: tuple[str, ...], bits: int,
              coeff: HalfLaurent) -> str:
    parts: list[str] = []
    if bits:
        parts.append(bundle_text(reg, space, bits))
    i = 0
    while i < len(mon):
        j = i
        while j < len(mon) and mon[j] == mon[i]:
            j += 1
        body = symbol_text(reg, mon[i])
        parts.append(body if j - i == 1 else f"{body}^{j - i}")
        i = j
    ctext = coeff.text()
    if not parts:
        return ctext
    if " " in ctext:  # a sum of two or more terms
        head = f"({ctext})"
    elif ctext == "1":
        head = ""
    elif ctext == "-1":
        head = "-"
    else:
        head = ctext
    body = " ⊙ ".join(parts)
    if head in ("", "-"):
        return head + body
    return head + " ⊙ " + body


def motive_text(m) -> str:
    items = m.terms()
    if not items:
        return "0"
    rendered = [term_text(m.reg, m.space, mon, bits, coeff)
                for (mon, bits), coeff in items]
    out = rendered[0]
    for piece in rendered[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def factor_text(N: int, nu: int) -> str:
    lpow = HalfLaurent.power(-2 * nu).text()
    try:
        return f"({lpow} T^{N})/(1 - {lpow} T^{N})"
    except ValueError:  # N past the digit limit
        raise digits_refusal() from None


def rational_text(z) -> str:
    if not z.terms:
        return "0"
    parts = []
    for term in z.terms:
        ct = motive_text(term.coeff)
        if " " in ct and not (ct.startswith("(") and ct.endswith(")")):
            ct = f"({ct})"
        factors = " * ".join(factor_text(N, nu) for N, nu in term.factors)
        parts.append(f"{ct} * {factors}" if factors else ct)
    return " + ".join(parts)
