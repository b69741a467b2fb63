"""Exception types shared across the library.

Every failure mode of the public API maps to one of these classes.  Each
class also carries what the CLI makes of it: ``exit_code`` and the stderr
lines of ``report()`` (the table in README, "Exit codes").
"""


class MotivicError(Exception):
    """Base class for all library errors."""

    exit_code, prefix = 1, "error"

    def report(self) -> list[str]:
        """The stderr lines of the CLI's refusal."""
        return [f"{self.prefix}: {self}"]


class RegistryError(MotivicError):
    """Malformed registry declaration (duplicate name, unknown space, ...)."""


class SpaceMismatch(MotivicError):
    """Operands live over different base spaces."""


class OdotUndecidable(MotivicError):
    """Convolution product left the decidable fragment.

    Raised when both factors of a term-level product carry opaque monodromy
    of order >= 2; the product of two such classes is a Fermat-curve quotient
    that our generator set cannot express, so we fail loudly instead of
    guessing.
    """

    exit_code, prefix = 4, "unsupported shape"


class DotUndefined(MotivicError):
    """Fibre product requested with monodromy on both sides."""


class UnregisteredProduct(MotivicError):
    """External product requested but the product space was never declared."""


class MissingTransport(MotivicError):
    """A morphism table has no entry for a symbol or bundle generator."""


class NoUnderlyingClass(MotivicError):
    """Monodromy-forgetting hit a symbol without a declared underlying class."""


class ValidationFailed(MotivicError):
    """Input data failed validation; carries the diagnostic list."""

    exit_code, prefix = 2, "validation"

    def __init__(self, diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)

    def report(self) -> list[str]:
        return [f"{self.prefix}: {d}" for d in self.diagnostics]


class MissingRestriction(MotivicError):
    """No restriction table entry for a stratum, critical value or point."""

    exit_code, prefix = 3, "missing restriction"


class UnsupportedShape(MotivicError):
    """Arc-space oracle asked for a function outside the monomial fragment,
    or a result holds an integer too long to write in decimal."""

    exit_code, prefix = 4, "unsupported shape"


class UnknownDatum(MotivicError):
    """Square-root datum was never registered."""


class ZeroWeight(MotivicError):
    """Torus weight list contains a zero entry."""


class OrientationMissing(MotivicError):
    """Atlas has no orientation but an oriented operation was requested."""

    exit_code, prefix = 2, "validation"


class DescentFailure(MotivicError):
    """Gluing failed on an overlap; carries both normal forms side by side."""

    exit_code, prefix = 5, "descent failure"

    def __init__(self, overlap, left, right, detail=""):
        super().__init__(f"descent failure on overlap {overlap}: {left!r} != {right!r}"
                         + (f" ({detail})" if detail else ""))
        self.overlap, self.left, self.right, self.detail = overlap, left, right, detail

    def report(self) -> list[str]:
        return [f"{self.prefix}:", f"  left : {self.left}", f"  right: {self.right}",
                *([f"  ({self.detail})"] if self.detail else [])]


class MissingScissorTable(MotivicError):
    """Pushforward to the point requested without the needed scissor entry."""
