"""Exact scalar arithmetic for matroid realizations.

Three fields are supported:

* ``Q`` — rationals, represented by :class:`fractions.Fraction`;
* ``Qsqrt5`` — the real quadratic field Q(sqrt 5), represented by
  :class:`QuadSqrt5` pairs ``a + b*w`` with ``w**2 == 5``;
* ``Fp:<p>`` — prime fields, represented by :class:`FpElement`.

Q and Q(sqrt 5) are totally ordered (Q(sqrt 5) through its real embedding
with w > 0); ordering a prime-field element raises ``TypeError``.
"""

from __future__ import annotations

import math
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


class QuadSqrt5:
    """An element a + b*w of Q(sqrt 5), with w the positive square root of 5."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def __setattr__(self, name, value):  # immutable: safe to hash and share
        raise AttributeError("QuadSqrt5 is immutable")

    @staticmethod
    def _coerce(x) -> "QuadSqrt5":
        if isinstance(x, QuadSqrt5):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadSqrt5(x, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadSqrt5(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadSqrt5(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadSqrt5(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadSqrt5(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __neg__(self):
        return QuadSqrt5(-self.a, -self.b)

    def conjugate(self) -> "QuadSqrt5":
        return QuadSqrt5(self.a, -self.b)

    def norm(self) -> Fraction:
        """Field norm a**2 - 5*b**2; zero only for the zero element."""
        return self.a * self.a - 5 * self.b * self.b

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        c = self * o.conjugate()
        return QuadSqrt5(c.a / n, c.b / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def sign(self) -> int:
        """Exact sign under the real embedding w |-> sqrt(5) > 0."""
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # mixed signs: compare |a| against |b|*sqrt5 via squares
        s = 1 if a * a > 5 * b * b else -1
        return s if a > 0 else -s

    def __lt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() >= 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"QuadSqrt5({self.a!r}, {self.b!r})"

    def __str__(self):
        return format_rational_pair(self.a, self.b)


#: the golden ratio (1 + sqrt5)/2, the canonical generator used by fixtures
PHI = QuadSqrt5(Fraction(1, 2), Fraction(1, 2))
SQRT5 = QuadSqrt5(0, 1)


class FpElement:
    """An element of the prime field F_p. No total order is defined."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        object.__setattr__(self, "value", value % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("FpElement is immutable")

    def _coerce(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise ValueError("mixed prime fields")
            return x
        if isinstance(x, int):
            return FpElement(x, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.value * pow(o.value, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.value == o.value

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __lt__(self, other):
        raise TypeError(f"F_{self.p} carries no total order")

    __le__ = __gt__ = __ge__ = __lt__

    def __repr__(self):
        return f"FpElement({self.value}, {self.p})"

    def __str__(self):
        return str(self.value)


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
        if self.kind == "Qsqrt5":
            v = QuadSqrt5._coerce(x)
            if v is NotImplemented:
                raise TypeError(f"cannot coerce {x!r} into Q(sqrt5)")
            return v
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise ValueError("mixed prime fields")
            return x
        if isinstance(x, int):
            return FpElement(x, self.p)
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def parse(self, s: str):
        s = s.strip().replace(" ", "")
        if not s:
            raise FieldFormatError("empty element string")
        if self.kind == "Fp":
            try:
                return FpElement(int(s), self.p)
            except ValueError:
                raise FieldFormatError(f"bad F_{self.p} element {s!r}") from None
        if self.kind == "Q":
            return parse_rational(s)
        a, b = parse_rational_pair(s)
        return QuadSqrt5(a, b)

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
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise FieldFormatError(f"bad rational {s!r}") from None


def parse_rational_pair(s: str) -> tuple[Fraction, Fraction]:
    """Parse "a+bw" / "a-bw" / "bw" / "a" into the pair (a, b)."""
    if "w" not in s:
        return parse_rational(s), Fraction(0)
    if not s.endswith("w"):
        raise FieldFormatError(f"bad Q(sqrt5) element {s!r}")
    t = s[:-1]
    # locate the sign separating the a-part from the b-coefficient: it is the
    # last +/- preceded by a digit (a leading sign or the sign after nothing
    # belongs to the single remaining term)
    split = -1
    for i in range(len(t) - 1, 0, -1):
        if t[i] in "+-" and t[i - 1].isdigit():
            split = i
            break
    if split < 0:
        a_part, b_part = "", t
    else:
        a_part, b_part = t[:split], t[split:]
    if b_part in ("", "+"):
        b = Fraction(1)
    elif b_part == "-":
        b = Fraction(-1)
    else:
        b = parse_rational(b_part)
    a = parse_rational(a_part) if a_part else Fraction(0)
    return a, b


def format_rational_pair(a: Fraction, b: Fraction) -> str:
    if b == 0:
        return str(a)
    if b == 1:
        bs = "w"
    elif b == -1:
        bs = "-w"
    else:
        bs = f"{b}w"
    if a == 0:
        return bs
    return f"{a}+{bs}" if b > 0 else f"{a}{bs}"


def sign(x) -> int:
    """Exact sign of a totally ordered field element (Q or Q(sqrt5))."""
    if isinstance(x, QuadSqrt5):
        return x.sign()
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    raise TypeError(f"no sign for {x!r}")


# ---------------------------------------------------------------------------
# integerization helpers feeding the kernels


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


def primitive_int_vector(vec: Iterable[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (same line)."""
    vec = [_as_fraction(x) for x in vec]
    den = math.lcm(*[x.denominator for x in vec])
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def primitive_quad_vector(vec: Iterable[QuadSqrt5]) -> tuple[int, ...]:
    """Scale a Q(sqrt5) vector into Z[sqrt5], flattened as (a0,b0,a1,b1,...)."""
    pairs = []
    den = 1
    for x in vec:
        if not isinstance(x, QuadSqrt5):
            x = QuadSqrt5(_as_fraction(x), 0)
        pairs.append((x.a, x.b))
        den = _lcm(den, _lcm(x.a.denominator, x.b.denominator))
    flat = []
    for a, b in pairs:
        flat.append(a.numerator * (den // a.denominator))
        flat.append(b.numerator * (den // b.denominator))
    g = 0
    for v in flat:
        g = math.gcd(g, v)
    if g > 1:
        flat = [v // g for v in flat]
    return tuple(flat)


def residue_vector(vec: Iterable[FpElement]) -> tuple[int, ...]:
    return tuple(x.value for x in vec)
