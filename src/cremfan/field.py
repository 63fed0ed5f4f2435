"""Exact scalar arithmetic for matroid realizations.

Three fields are supported:

* ``Q`` — rationals, represented by :class:`fractions.Fraction`;
* ``Qsqrt5`` — the real quadratic field Q(sqrt 5), represented by
  :class:`cremfan.quad.QuadSqrt5` pairs ``a + b*w`` with ``w**2 == 5``;
* ``Fp:<p>`` — prime fields, represented by :class:`cremfan.fp.FpElement`.

Q and Q(sqrt 5) are totally ordered (Q(sqrt 5) through its real embedding
with w > 0); ordering a prime-field element raises ``TypeError``.

This module holds :class:`Field`, the rationals and primality; each other
domain lives in its own module (:mod:`cremfan.quad`, :mod:`cremfan.fp`)
with its kernels, and a :class:`Field` imports and binds its domain's
element class when it is made. So a job over Q compiles neither.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable


class FieldFormatError(ValueError):
    """Raised for malformed element strings or field specs."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015); larger moduli are refused, not guessed.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic primality test for n below ``_MR_LIMIT``."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """A field descriptor: parses/formats elements and coerces scalars.

    Construct with :meth:`from_spec` from one of the spec strings
    ``"Q"``, ``"Fp:<p>"`` or ``"Qsqrt5"``.
    """

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("Q", "Fp", "Qsqrt5"):
            raise FieldFormatError(f"unknown field kind {kind!r}")
        if kind == "Fp":
            if p is not None and p >= _MR_LIMIT:
                raise FieldFormatError(
                    f"modulus {p} is too large: primality is certified only "
                    f"below {_MR_LIMIT}"
                )
            if p is None or not _is_prime(p):
                raise FieldFormatError(f"modulus {p!r} is not prime")
        self.kind = kind
        self.p = p
        # the element class of a field other than Q, bound once: coerce and
        # parse run per entry
        self._element = None
        if kind == "Qsqrt5":
            from .quad import QuadSqrt5

            self._element = QuadSqrt5
        elif kind == "Fp":
            from .fp import FpElement

            self._element = FpElement

    @classmethod
    def from_spec(cls, spec: str) -> "Field":
        spec = spec.strip()
        if spec == "Q":
            return cls("Q")
        if spec == "Qsqrt5":
            return cls("Qsqrt5")
        if spec.startswith("Fp:"):
            try:
                p = int(spec[3:])
            except ValueError:
                raise FieldFormatError(f"bad field spec {spec!r}") from None
            return cls("Fp", p)
        if spec.startswith("F") and spec[1:].isdigit():
            # convenience alias: "F2" means "Fp:2"
            return cls.from_spec("Fp:" + spec[1:])
        raise FieldFormatError(f"bad field spec {spec!r}")

    @property
    def spec(self) -> str:
        return f"Fp:{self.p}" if self.kind == "Fp" else self.kind

    @property
    def size(self) -> int | None:
        """Number of elements, or None for the infinite fields."""
        return self.p if self.kind == "Fp" else None

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def coerce(self, x):
        if self.kind == "Q":
            return _as_fraction(x)
        element = self._element
        if self.kind == "Qsqrt5":
            v = element._coerce(x)
            if v is NotImplemented:
                raise TypeError(f"cannot coerce {x!r} into Q(sqrt5)")
            return v
        if isinstance(x, element):
            if x.p != self.p:
                raise ValueError("mixed prime fields")
            return x
        if isinstance(x, int):
            return element(x, self.p)
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def parse(self, s: str):
        s = s.strip().replace(" ", "")
        if not s:
            raise FieldFormatError("empty element string")
        if self.kind == "Fp":
            try:
                return self._element(int(s), self.p)
            except ValueError:
                raise FieldFormatError(f"bad F_{self.p} element {s!r}") from None
        if self.kind == "Q":
            return parse_rational(s)
        return self._element.parse(s)

    def format(self, x) -> str:
        x = self.coerce(x)
        return str(x)

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"Field({self.spec!r})"


def parse_rational(s: str) -> Fraction:
    # int() accepts a strict subset of Fraction()'s strings, with the same
    # values, at a tenth of the cost; the generators write integers
    try:
        return Fraction(int(s))
    except ValueError:
        pass
    mantissa, e, exponent = s.lower().partition("e")
    try:
        # Fraction builds 10**|exponent|: refused past the digits an int may print
        if e and len(mantissa) + abs(int(exponent)) > (sys.get_int_max_str_digits() or 4300):
            raise ValueError
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise FieldFormatError(f"bad rational {s!r}") from None


def sign(x) -> int:
    """Exact sign of a totally ordered field element (Q or Q(sqrt5))."""
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    # a Q(sqrt5) element computes its own; an F_p element has no sign
    exact = getattr(type(x), "sign", None)
    if exact is None:
        raise TypeError(f"no sign for {x!r}")
    return exact(x)


# ---------------------------------------------------------------------------
# integerization helpers feeding the kernels


def primitive_int_vector(vec: Iterable[Fraction | int]) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (same line).

    A vector of ints takes one gcd and makes no Fraction."""
    ints = tuple(vec)
    try:
        g = math.gcd(*ints)  # a TypeError unless every entry is an int
    except TypeError:
        fractions = [_as_fraction(x) for x in ints]
        den = math.lcm(*[x.denominator for x in fractions])
        ints = [x.numerator * (den // x.denominator) for x in fractions]
        g = math.gcd(*ints)
    return tuple([v // g for v in ints]) if g > 1 else tuple(ints)
