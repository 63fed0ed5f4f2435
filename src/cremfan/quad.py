"""The Z[sqrt5] domain: Q(sqrt 5) scalars and their elimination kernels.

:class:`QuadSqrt5` is the element type of the field ``Qsqrt5`` (the H3 and
H4 arrangements), and the ``*_quad`` kernels run the shared elimination
skeleton of :mod:`cremfan.kernels` on rows of Z[sqrt5], flattened pairwise
as ``(a0, b0, a1, b1, ...)`` meaning ``a + b*sqrt5`` per coordinate. Only
a job over Q(sqrt 5) imports this module: ``Field("Qsqrt5")`` binds
:class:`QuadSqrt5`, and ``cremfan.kernels`` resolves the ``*_quad`` names
here on first use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .field import FieldFormatError, _as_fraction, parse_rational
from .kernels import (
    CoverState,
    _closure,
    _covers,
    _fundamental,
    _kept,
    _pivots,
    _primitive_key,
    _reflection_closed,
)


class QuadSqrt5:
    """An element a + b*w of Q(sqrt 5), with w the positive square root of 5."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def __setattr__(self, name, value):  # immutable: safe to hash and share
        raise AttributeError("QuadSqrt5 is immutable")

    @classmethod
    def parse(cls, s: str) -> "QuadSqrt5":
        """The element written "a+bw" / "a-bw" / "bw" / "a" (no spaces)."""
        a, b = parse_rational_pair(s)
        return cls(a, b)

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


# ---------------------------------------------------------------------------
# integerization feeding the kernels


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


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


# ---------------------------------------------------------------------------
# kernels: coordinates are (a, b) pairs at flat positions 2j, 2j+1


def _reduce_quad(vec, pivots) -> list[int]:
    v = list(vec)
    pa, pb = 1, 0  # previous pivot, starts at 1
    for c, row in pivots:
        ca = c - c % 2  # the pivot coordinate's a position
        va, vb = row[ca], row[ca + 1]
        ua, ub = v[ca], v[ca + 1]
        pn = pa * pa - 5 * pb * pb  # norm of the previous pivot (divisor)
        for ja in range(0, len(v), 2):
            xa, xb = v[ja], v[ja + 1]
            ya, yb = row[ja], row[ja + 1]
            # pivot*x - u*y, then exact division by prev = (pa, pb):
            # multiply by its conjugate and divide by its norm
            ta = va * xa + 5 * vb * xb - (ua * ya + 5 * ub * yb)
            tb = va * xb + vb * xa - (ua * yb + ub * ya)
            v[ja] = (ta * pa - 5 * tb * pb) // pn
            v[ja + 1] = (tb * pa - ta * pb) // pn
        pa, pb = va, vb
    return v


def _quad_key(v) -> tuple[int, ...]:
    # times the conjugate a - b*sqrt5 of the first nonzero coordinate, that
    # coordinate becomes the rational a^2 - 5b^2; proportional vectors then
    # differ by a rational factor, which the primitive form removes
    k = next(j for j in range(0, len(v), 2) if v[j] or v[j + 1])
    a, b = v[k], -v[k + 1]
    scaled = []
    for j in range(0, len(v), 2):
        x, y = v[j], v[j + 1]
        scaled += (a * x + 5 * b * y, a * y + b * x)
    return _primitive_key(scaled)


def rank_quad(rows) -> int:
    return len(_pivots(list(rows), _reduce_quad, 2))


def closure_quad(rows, subset) -> tuple[int, list[int]]:
    return _closure(list(rows), subset, _reduce_quad, 2)


def fundamental_quad(rows, subset, asked) -> tuple[list[int], dict[int, int]]:
    return _fundamental(list(rows), subset, asked, _reduce_quad, 2)


def covers_quad(rows, flat) -> CoverState:
    return _covers(list(rows), flat, _reduce_quad, _quad_key, 2)


def cover_step_quad(state: CoverState, g: int, skip: int = 0) -> CoverState:
    u = state.reps[g]
    # u's first nonzero coordinate, at even position c, is a rational a (the
    # _quad_key form); w's coordinate there is p + q*sqrt5
    c = u.index(next(filter(None, u)))
    a = u[c]
    # the coordinates where a*w - (p + q*sqrt5)*u is not a*w
    support = [(j, u[j], u[j + 1]) for j in range(0, len(u), 2) if u[j] or u[j + 1]]
    covers: dict[tuple, int] = {}
    get = covers.get
    for group, w in _kept(state, skip):
        if w is u:  # the reps are distinct dict keys, so this is cover g alone
            continue
        p, q = w[c], w[c + 1]
        if p or q:
            v = list(w) if a == 1 else [a * x for x in w]
            for j, ya, yb in support:
                v[j] -= p * ya + 5 * q * yb
                v[j + 1] -= p * yb + q * ya
            del v[c:c + 2]
            k = _quad_key(v)
        else:
            k = w[:c] + w[c + 2:]
        covers[k] = get(k, 0) | group
    return CoverState(state.rank + 1, list(covers.values()), list(covers))


def _dot_quad(u, v) -> tuple[int, int]:
    a = b = 0
    for j in range(0, len(u), 2):
        ua, ub, va, vb = u[j], u[j + 1], v[j], v[j + 1]
        a += ua * va + 5 * ub * vb
        b += ua * vb + ub * va
    return a, b


def _reflections_quad(r, rows):
    # as kernels._reflections_int, with the products taken in Z[sqrt5]
    p, q = _dot_quad(r, r)
    for v in rows:
        s, t = _dot_quad(r, v)
        if s or t:
            w = []
            for j in range(0, len(v), 2):
                xa, xb, ya, yb = v[j], v[j + 1], r[j], r[j + 1]
                w += (p * xa + 5 * q * xb - 2 * (s * ya + 5 * t * yb),
                      p * xb + q * xa - 2 * (s * yb + t * ya))
            yield w


def reflection_closed_quad(rows) -> bool:
    """``reflection_closed_int`` over Z[sqrt5], embedded in the reals."""
    return _reflection_closed(list(rows), _quad_key, _reflections_quad)
