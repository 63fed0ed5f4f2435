"""Exact scalar arithmetic: Q, F_p, Q(sqrt5), and the matrix helpers."""

import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cremfan.field import (
    Field,
    FieldFormatError,
    parse_rational,
    primitive_int_vector,
    sign,
)
from cremfan.fp import FpElement, residue_vector
from cremfan.quad import QuadSqrt5, primitive_quad_vector

from conftest import determinant, in_span, matrix_rank


class TestFieldSpec:
    def test_three_kinds(self):
        assert Field.from_spec("Q").kind == "Q"
        assert Field.from_spec("Qsqrt5").kind == "Qsqrt5"
        f7 = Field.from_spec("Fp:7")
        assert f7.kind == "Fp" and f7.p == 7

    def test_fp_alias(self):
        assert Field.from_spec("F7") == Field.from_spec("Fp:7")
        assert Field.from_spec("F2").spec == "Fp:2"

    def test_sizes(self):
        assert Field.from_spec("Fp:5").size == 5
        assert Field.from_spec("Q").size is None
        assert Field.from_spec("Qsqrt5").size is None

    @pytest.mark.parametrize("bad", ["", "R", "Fp:", "Fp:abc", "F", "Fx", "Fp:4", "Fp:1",
                                     pytest.param("F" + "7" * 5000, id="F-5000-digits")])
    def test_bad_specs(self, bad):
        with pytest.raises(FieldFormatError):
            Field.from_spec(bad)

    def test_spec_round_trip(self):
        for spec in ["Q", "Qsqrt5", "Fp:2", "Fp:13"]:
            assert Field.from_spec(spec).spec == spec


class TestPrimality:
    """F_p moduli are certified by deterministic Miller-Rabin, not trial division."""

    def test_agrees_with_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

        for n in range(2, 3000):
            if trial(n):
                assert Field.from_spec(f"Fp:{n}").p == n
            else:
                with pytest.raises(FieldFormatError, match="not prime"):
                    Field.from_spec(f"Fp:{n}")

    @pytest.mark.parametrize("n", [
        2047,  # strong pseudoprime to base 2
        3215031751,  # to bases 2, 3, 5, 7
        3825123056546413051,  # to every prime base up to 23
        318665857834031151167461,  # to every prime base up to 37
    ])
    def test_strong_pseudoprimes_rejected(self, n):
        with pytest.raises(FieldFormatError, match="not prime"):
            Field.from_spec(f"Fp:{n}")

    def test_mersenne_61_accepted_quickly(self):
        start = time.perf_counter()
        f = Field.from_spec("Fp:2305843009213693951")
        assert time.perf_counter() - start < 0.5
        assert f.p == 2 ** 61 - 1

    def test_composite_neighbour_rejected_quickly(self):
        start = time.perf_counter()
        with pytest.raises(FieldFormatError, match="not prime"):
            Field.from_spec(f"Fp:{2 ** 61 + 1}")
        assert time.perf_counter() - start < 0.5

    def test_modulus_beyond_certified_range_rejected(self):
        start = time.perf_counter()
        with pytest.raises(FieldFormatError, match="too large"):
            Field.from_spec(f"Fp:{10 ** 30 + 57}")
        assert time.perf_counter() - start < 0.5


class TestRationals:
    def test_parse_and_format(self):
        q = Field.from_spec("Q")
        assert q.parse("3/2") == Fraction(3, 2)
        assert q.parse("-7") == Fraction(-7)
        assert q.format(Fraction(-7, 3)) == "-7/3"
        assert q.format(Fraction(4)) == "4"

    def test_parse_errors(self):
        assert parse_rational("1.5") == Fraction(3, 2)  # exact decimal allowed
        with pytest.raises(FieldFormatError):
            parse_rational("a/b")
        with pytest.raises(FieldFormatError):
            parse_rational("1/0")

    @pytest.mark.parametrize("text", [
        "1e5000", "1E-5000", "1e4300", "2.5e+4299", "1e10000000", "1e" + "9" * 5000,
    ])
    def test_an_exponent_past_the_printable_digits_is_refused(self, text):
        # Fraction builds 10**exponent: refused where the digits written and
        # the exponent pass those an int may print (sys.get_int_max_str_digits)
        with pytest.raises(FieldFormatError, match="bad rational"):
            parse_rational(text)

    def test_an_exponent_within_the_printable_digits_parses(self):
        assert parse_rational("9e4299") == 9 * 10 ** 4299
        assert parse_rational("-1.5E-4296") == Fraction(-3, 2 * 10 ** 4296)
        assert parse_rational("1_0e1_0") == 10 ** 11

    def test_coerce_rejects_floats(self):
        q = Field.from_spec("Q")
        with pytest.raises(TypeError):
            q.coerce(0.5)


# ASCII, Arabic-Indic and Devanagari digits: int() and Fraction() read all three
DIGITS = ("0123456789\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"
          "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f")
# digit groups joined by single underscores, with leading zeros
unsigned = st.lists(
    st.text(st.sampled_from(DIGITS), min_size=1, max_size=4), min_size=1, max_size=3
).map("_".join)
signed = st.builds(str.__add__, st.sampled_from(["", "+", "-"]), unsigned)


def non_integers(head):
    """Fractions, decimals and small exponents whose leading part is drawn
    from ``head``; a zero denominator is an error."""
    return st.one_of(
        st.builds("{}/{}".format, head, unsigned),
        st.builds("{}.{}".format, head, unsigned),
        st.builds("{}e{}{}".format, head, st.sampled_from(["", "+", "-"]),
                  st.text(st.sampled_from(DIGITS), min_size=1, max_size=2)),
    )


numeral = st.one_of(signed, non_integers(signed))


def with_spaces(data, s: str) -> str:
    """s with spaces drawn into it: Field.parse drops every space."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(s)), max_size=3)))
    pieces = [s[i:j] for i, j in zip([0, *cuts], [*cuts, len(s)])]
    return " ".join(pieces)


def fraction_reference(s: str) -> Fraction | None:
    """What Field("Q").parse(s) must return: Fraction's own reading of the
    entry without its spaces, or None where it must raise FieldFormatError:
    where Fraction refuses it, and where its written mantissa plus its
    |exponent| pass the digits an int may print (``parse_rational``'s bound,
    so Fraction never builds 10**|exponent| for a huge exponent)."""
    t = s.strip().replace(" ", "")
    try:
        value = Fraction(t) if t else None
    except (ValueError, ZeroDivisionError):
        return None
    mantissa, e, exponent = t.lower().partition("e")
    if e and len(mantissa) + abs(int(exponent)) > (sys.get_int_max_str_digits() or 4300):
        return None
    return value


def reference_int_vector(vec):
    """The Fraction-multiply scaling that ``primitive_int_vector`` replaced."""
    vec = [Fraction(x) for x in vec]
    den = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def reference_quad_vector(vec):
    """The Fraction-multiply scaling that ``primitive_quad_vector`` replaced."""
    den = math.lcm(*(d for x in vec for d in (x.a.denominator, x.b.denominator)))
    flat = [int(part * den) for x in vec for part in (x.a, x.b)]
    g = math.gcd(*flat)
    return tuple(v // g for v in flat) if g > 1 else tuple(flat)


class TestIntegerFastPath:
    @given(st.data(), numeral)
    @settings(max_examples=400, deadline=None)
    def test_q_entries_read_as_fraction_reads_them(self, data, s):
        s = with_spaces(data, s)
        expected = fraction_reference(s)
        if expected is None:
            with pytest.raises(FieldFormatError):
                Field.from_spec("Q").parse(s)
        else:
            x = Field.from_spec("Q").parse(s)
            assert x == expected and type(x) is Fraction

    @given(st.text(st.sampled_from(DIGITS[:12] + "+-_/. e\t\u00b2x"), max_size=6))
    @settings(max_examples=400, deadline=None)
    @example("0e5000")
    @example("1e9999")
    def test_any_entry_fails_or_reads_as_fraction_does(self, s):
        expected = fraction_reference(s)
        if expected is None:
            with pytest.raises(FieldFormatError):
                Field.from_spec("Q").parse(s)
        else:
            x = Field.from_spec("Q").parse(s)
            assert x == expected and type(x) is Fraction

    @given(st.data(), numeral, unsigned | non_integers(unsigned), st.sampled_from("+-"))
    @settings(max_examples=400, deadline=None)
    def test_qsqrt5_parts_read_as_fraction_reads_them(self, data, a, b, sep):
        a_value, b_value = fraction_reference(a), fraction_reference(sep + b)
        if a_value is None or b_value is None:
            return  # a zero denominator: the error cases are tested below
        x = Field.from_spec("Qsqrt5").parse(with_spaces(data, f"{a}{sep}{b}w"))
        assert (x.a, x.b) == (a_value, b_value)
        assert type(x.a) is Fraction and type(x.b) is Fraction
        y = Field.from_spec("Qsqrt5").parse(with_spaces(data, a))
        assert (y.a, y.b) == (a_value, 0) and type(y.a) is Fraction

    @pytest.mark.parametrize("kind", ["Q", "Qsqrt5"])
    @pytest.mark.parametrize("bad", ["", "  ", "1/0", "abc", "1__0", "_1", "1_", "+-1"])
    def test_malformed_entries_still_raise(self, kind, bad):
        with pytest.raises(FieldFormatError):
            Field.from_spec(kind).parse(bad)
        if kind == "Qsqrt5" and bad.strip():
            with pytest.raises(FieldFormatError):
                Field.from_spec(kind).parse(f"1+{bad}w")

    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8),
           st.lists(st.integers(1, 12), min_size=8, max_size=8), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_primitive_vectors_match_the_fraction_multiply(self, nums, dens, integral):
        # integer entries (the loader's fast path) and general rationals
        vec = [Fraction(n, 1 if integral else d) for n, d in zip(nums, dens)]
        assert primitive_int_vector(vec) == reference_int_vector(vec)
        quads = [QuadSqrt5(x, y) for x, y in zip(vec, reversed(vec))]
        assert primitive_quad_vector(quads) == reference_quad_vector(quads)


class TestFp:
    def test_arithmetic(self):
        f = Field.from_spec("Fp:7")
        a, b = f.coerce(3), f.coerce(5)
        assert (a + b).value == 1
        assert (a * b).value == 1
        assert (a - b).value == 5
        assert (-a).value == 4

    def test_inverse(self):
        f = Field.from_spec("Fp:7")
        for v in range(1, 7):
            x = f.coerce(v)
            assert (x / x) == f.one()
            assert (f.one() / x * x) == f.one()

    def test_division_by_zero(self):
        f = Field.from_spec("Fp:5")
        with pytest.raises(ZeroDivisionError):
            f.one() / f.zero()

    def test_mixed_modulus_rejected(self):
        a = FpElement(1, 5)
        b = FpElement(1, 7)
        with pytest.raises(ValueError):
            a + b

    def test_parse_format(self):
        f = Field.from_spec("Fp:5")
        assert f.parse("7") == f.coerce(2)
        assert f.format(f.coerce(-1)) == "4"


class TestQuadSqrt5:
    def test_ring_ops(self):
        w = QuadSqrt5(0, 1)
        assert w * w == QuadSqrt5(5, 0)
        assert (QuadSqrt5(1, 2) * w) == QuadSqrt5(10, 1)
        assert QuadSqrt5(1, 1) + QuadSqrt5(2, -1) == QuadSqrt5(3, 0)
        assert QuadSqrt5(3, 0) == 3  # rational embedding compares equal

    def test_conjugate_norm_division(self):
        x = QuadSqrt5(1, 1)
        assert x.conjugate() == QuadSqrt5(1, -1)
        assert x.norm() == Fraction(-4)
        assert x * (1 / x) == QuadSqrt5(1, 0)
        with pytest.raises(ZeroDivisionError):
            1 / QuadSqrt5(0, 0)

    def test_exact_order(self):
        # 9 - 4*sqrt5 is positive but smaller than 1/10: exact sign logic,
        # no floating point
        tiny = QuadSqrt5(9, -4)
        assert tiny.sign() == 1
        assert tiny < Fraction(1, 10)
        assert QuadSqrt5(-1, 1).sign() == 1      # sqrt5 > 1
        assert QuadSqrt5(2, -1).sign() == -1     # 2 < sqrt5
        assert QuadSqrt5(0, 0).sign() == 0
        # 2 < sqrt5 < 5 - sqrt5 is false (5 - 2.236 = 2.764 > 2.236): order is
        # 2, sqrt5, 5-sqrt5
        assert sorted([QuadSqrt5(0, 1), QuadSqrt5(2, 0), QuadSqrt5(5, -1)]) == [
            QuadSqrt5(2, 0), QuadSqrt5(0, 1), QuadSqrt5(5, -1)
        ]

    def test_parse_format_round_trip(self):
        f = Field.from_spec("Qsqrt5")
        for s in ["0", "1", "-1/2", "w", "-w", "1+2w", "-1/2-3w", "2/3+1/5w"]:
            assert f.format(f.parse(s)) == s

    def test_hash_consistency(self):
        assert hash(QuadSqrt5(3, 0)) == hash(Fraction(3))
        d = {QuadSqrt5(1, 1): "x"}
        assert d[QuadSqrt5(1, 1)] == "x"


class TestMatrixHelpers:
    def test_rank_over_q(self):
        rows = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]
        q = Field.from_spec("Q")
        coerced = [[q.coerce(x) for x in r] for r in rows]
        assert matrix_rank(coerced) == 3
        assert matrix_rank(coerced[:3]) == 2

    def test_rank_depends_on_field(self):
        # the 7-point plane matrix has rank 3 over F2; over Q these columns
        # span more
        cols = [
            [1, 0, 0], [0, 1, 0], [0, 0, 1],
            [1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1],
        ]
        f2 = Field.from_spec("Fp:2")
        q = Field.from_spec("Q")
        assert matrix_rank([[f2.coerce(x) for x in r] for r in cols]) == 3
        assert matrix_rank([[q.coerce(x) for x in r] for r in cols]) == 3
        # but a 4-subset that is dependent over F2 is independent over Q
        sub = [cols[3], cols[4], cols[5], cols[6]]  # sums to zero mod 2
        assert matrix_rank([[f2.coerce(x) for x in r] for r in sub]) == 3
        assert matrix_rank([[q.coerce(x) for x in r] for r in sub]) == 3
        tri = [cols[0], cols[1], cols[3]]  # e1, e2, e1+e2
        assert matrix_rank([[f2.coerce(x) for x in r] for r in tri]) == 2

    def test_rank_over_qsqrt5(self):
        f = Field.from_spec("Qsqrt5")
        w = QuadSqrt5(0, 1)
        rows = [[f.coerce(1), w], [w, f.coerce(5)]]  # second = w * first
        assert matrix_rank(rows) == 1

    def test_determinant(self):
        q = Field.from_spec("Q")
        rows = [[q.coerce(x) for x in r] for r in [[2, 0, 1], [1, 1, 0], [0, 3, 1]]]
        assert determinant(rows) == Fraction(5)
        f5 = Field.from_spec("Fp:5")
        rows5 = [[f5.coerce(x) for x in r] for r in [[2, 0, 1], [1, 1, 0], [0, 3, 1]]]
        assert determinant(rows5) == f5.zero()

    def test_in_span(self):
        q = Field.from_spec("Q")
        rows = [[q.coerce(x) for x in r] for r in [[1, 0, 0], [0, 1, 0]]]
        assert in_span([q.coerce(2), q.coerce(-3), q.coerce(0)], rows)
        assert not in_span([q.coerce(0), q.coerce(0), q.coerce(1)], rows)

    def test_primitive_vectors(self):
        assert primitive_int_vector([Fraction(1, 2), Fraction(-3, 4)]) == (2, -3)
        assert primitive_int_vector([Fraction(0), Fraction(6), Fraction(9)]) == (0, 2, 3)
        assert primitive_quad_vector(
            [QuadSqrt5(Fraction(1, 2), 0), QuadSqrt5(0, Fraction(3, 2))]
        ) == (1, 0, 0, 3)

    def test_residue_vector(self):
        f3 = Field.from_spec("Fp:3")
        assert residue_vector([f3.coerce(4), f3.coerce(-1)]) == (1, 2)
