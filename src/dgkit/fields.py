"""Exact scalar fields: the rationals and prime fields F_p.

Elements are plain Python values: over Q an ``int`` or a
``fractions.Fraction`` (a ``Fraction`` appears only where a division produces
one; the two compare and hash equal), over F_p the canonical ``int``
representatives ``0..p-1``.  Entries are combined raw with the native
``+ - *`` operators and unary minus, and reduced once, when ``Mat(...)`` makes
them a matrix; zero-ness is read only from entries of a ``Mat``.  A ``Field``
supplies what native operators cannot: ``inv``, ``from_int``, ``parse`` and
``render``.  ``QQ`` and ``GF(p)`` are the only instances, one per field, so
fields compare and hash by identity.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DgkitError, FieldMismatchError


class Field:
    """What QQ and GF(p) supply beyond the native operators."""

    char: int
    tag: str

    def inv(self, a):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def parse(self, text):
        """Read an element from its scenario-file encoding."""
        raise NotImplementedError

    def render(self, a):
        """Encoding used in scenario files and reports; round-trips exactly."""
        raise NotImplementedError

    def __repr__(self):
        return self.tag


class RationalField(Field):
    char = 0
    tag = "Q"

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return _normal(1 / Fraction(a))

    def from_int(self, n):
        return int(n)

    def parse(self, text):
        if isinstance(text, int):
            return int(text)
        if isinstance(text, str):
            try:
                return _normal(Fraction(text))
            except (ValueError, ZeroDivisionError):
                pass
        raise DgkitError(f"cannot parse rational from {text!r}")

    def render(self, a):
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"


def _normal(q: Fraction):
    """A rational as an ``int`` when its denominator is 1."""
    return q.numerator if q.denominator == 1 else q


class PrimeField(Field):
    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise DgkitError(f"F_p requires a prime modulus, got {p}")
        self.p = p
        self.char = p
        self.tag = f"F{p}"

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def parse(self, text):
        if isinstance(text, int):
            return text % self.p
        if isinstance(text, str):
            try:
                return int(text, 10) % self.p
            except ValueError:
                pass
        raise DgkitError(f"cannot parse F_{self.p} element from {text!r}")

    def render(self, a):
        return str(a % self.p)


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_from_spec(spec) -> Field:
    """Field named by a scenario document: "Q", "Fp:7", or {"Fp": 7}."""
    if isinstance(spec, Field):
        return spec
    if spec == "Q":
        return QQ
    try:
        if isinstance(spec, str) and spec.startswith("Fp:"):
            return GF(int(spec.split(":", 1)[1]))
        if isinstance(spec, dict) and set(spec) == {"Fp"}:
            return GF(int(spec["Fp"]))
    except (TypeError, ValueError):
        pass
    raise DgkitError(f"unrecognized field spec {spec!r}")


def same_field(*fields: Field) -> Field:
    first = fields[0]
    for f in fields[1:]:
        if f is not first:
            raise FieldMismatchError(f"mixed fields {first} and {f}")
    return first
