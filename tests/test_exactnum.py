"""Quartic field arithmetic, certified signs, and norm classes."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import inversive.exactnum
from inversive.exactnum import (
    BackendMismatch,
    NormClass,
    Quartic2,
    SQRT2,
    THETA,
    common_kind,
    is_zero,
    kind,
    norm_class_of,
    promote,
    quartic_sign,
    sign_of,
    sqrt_in_field,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
quartics = st.builds(Quartic2, rationals, rationals, rationals, rationals)
nonzero_quartics = quartics.filter(bool)


def _convergents(k, digits=60, qmax=10 ** 18):
    """Continued-fraction convergents p/q of 2**(k/4), from an integer root."""
    num, den = math.isqrt(math.isqrt(2 ** k * 10 ** (4 * digits))), 10 ** digits
    p0, q0, p1, q1 = 0, 1, 1, 0
    out = []
    while den and q1 < qmax:
        a, num, den = num // den, den, num % den
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append((p1, q1))
    return out


# q*t**k - p for convergents p/q of t**k: tiny, and for odd k the two halves
# E and O of the element (see quartic_sign) have opposite signs
NEAR_ZERO = [Quartic2(-p, *[q if i == k else 0 for i in (1, 2, 3)])
             for k in (1, 2, 3) for p, q in _convergents(k)]
near_zero = st.sampled_from(NEAR_ZERO)
near_zero_quartics = st.one_of(
    near_zero,
    st.builds(lambda x, y: x * y, near_zero, near_zero),
    st.builds(lambda x, q: x * q, near_zero, rationals.filter(bool)),
    st.builds(lambda x, y: x + y, near_zero, near_zero),
)


def _sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


def _sqrt2_sign(u: Fraction, v: Fraction) -> int:
    # sign of u + v*sqrt(2) by squaring, no root extraction
    if v == 0:
        return _sign(u)
    if u == 0:
        return _sign(v)
    su, sv = _sign(u), _sign(v)
    if su == sv:
        return su
    d = u * u - 2 * v * v
    assert d != 0
    return su if d > 0 else sv


def _sq2(u: Fraction, v: Fraction):
    return (u * u + 2 * v * v, 2 * u * v)


def quartic_sign_oracle(x: Quartic2) -> int:
    # independent of the interval code path: nested square comparisons
    a0, a1, a2, a3 = x.coeffs
    sA = _sqrt2_sign(a0, a2)
    sB = _sqrt2_sign(a1, a3)
    if sB == 0:
        return sA
    if sA == 0:
        return sB
    if sA == sB:
        return sA
    A4 = _sq2(*_sq2(a0, a2))
    B4 = _sq2(*_sq2(a1, a3))
    s = _sqrt2_sign(A4[0] - 2 * B4[0], A4[1] - 2 * B4[1])
    assert s != 0
    return sA if s > 0 else sB


class TestArithmetic:
    def test_theta_fourth_power_is_two(self):
        assert THETA ** 4 == 2
        assert THETA * THETA == SQRT2
        assert SQRT2 * SQRT2 == 2

    def test_theta_inverse(self):
        assert THETA.inverse() == Quartic2(0, 0, 0, Fraction(1, 2))
        assert THETA * THETA.inverse() == 1

    def test_mixed_ops_with_rationals(self):
        x = 1 + THETA
        assert x - 1 == THETA
        assert Fraction(1, 2) * SQRT2 == Quartic2(0, 0, Fraction(1, 2), 0)
        assert 2 / SQRT2 == SQRT2

    def test_float_mixing_raises(self):
        with pytest.raises(TypeError):
            THETA + 0.5
        with pytest.raises(TypeError):
            0.5 * THETA

    def test_hash_agrees_with_rational_embedding(self):
        assert Quartic2(3, 0, 0, 0) == Fraction(3) == 3
        assert hash(Quartic2(3, 0, 0, 0)) == hash(Fraction(3)) == hash(3)
        assert {Quartic2(1, 0, 0, 0): "x"}[1] == "x"

    @given(quartics, quartics, quartics)
    @settings(deadline=None)
    def test_ring_identities(self, x, y, z):
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x

    @given(nonzero_quartics)
    @settings(deadline=None)
    def test_inverse_roundtrip(self, x):
        assert x * x.inverse() == 1
        assert (1 / x) * x == 1

    @given(quartics, st.integers(min_value=0, max_value=6))
    @settings(deadline=None)
    def test_pow_matches_repeated_product(self, x, n):
        expected = Quartic2(1)
        for _ in range(n):
            expected = expected * x
        assert x ** n == expected


class TestSign:
    def test_frozen_examples(self):
        # 3 - 2*sqrt(2) > 0 because 9 > 8
        assert quartic_sign(Quartic2(3, 0, -2, 0)) == 1
        assert quartic_sign(Quartic2(-3, 0, 2, 0)) == -1
        assert quartic_sign(Quartic2(0, 0, 0, 0)) == 0
        # theta > 1
        assert Quartic2(0, 1, 0, 0) > Quartic2(1, 0, 0, 0)

    def test_tight_comparison_forces_refinement(self):
        # theta**3 = 1.68179..., compare against nearby rationals
        assert quartic_sign(Quartic2(Fraction(-42, 25), 0, 0, 1)) == 1
        assert quartic_sign(Quartic2(Fraction(-1682, 1000), 0, 0, 1)) < 1
        # theta**3 - 2/theta == 0 exactly
        assert THETA ** 3 - 2 / THETA == 0

    @given(quartics)
    @settings(deadline=None)
    def test_sign_matches_square_compare_oracle(self, x):
        assert quartic_sign(x) == quartic_sign_oracle(x)

    @given(quartics, quartics)
    @settings(deadline=None)
    def test_sign_is_multiplicative(self, x, y):
        assert quartic_sign(x * y) == quartic_sign(x) * quartic_sign(y)

    @given(quartics, quartics)
    @settings(deadline=None)
    def test_order_consistent_with_sign(self, x, y):
        if x == y:
            assert not (x < y)
        elif x < y:
            assert quartic_sign(y - x) == 1
        else:
            assert quartic_sign(x - y) == 1

    @given(quartics)
    @settings(deadline=None)
    def test_abs_nonnegative(self, x):
        assert quartic_sign(abs(x)) >= 0

    @given(quartics)
    @settings(deadline=None)
    def test_float_embedding_tracks_sign(self, x):
        f = float(x)
        if abs(f) > 1e-6:
            assert (f > 0) == (quartic_sign(x) > 0)


class TestNormClass:
    def test_monomial_classes(self):
        assert norm_class_of(Fraction(7, 3)) is NormClass.Q_STAR
        assert norm_class_of(Quartic2(5, 0, 0, 0)) is NormClass.Q_STAR
        assert norm_class_of(Quartic2(0, -3, 0, 0)) is NormClass.QUARTIC_Q_STAR
        assert norm_class_of(Quartic2(0, 0, Fraction(7, 2), 0)) is NormClass.ROOT2_Q_STAR
        assert norm_class_of(Quartic2(0, 0, 0, 2)) is NormClass.INV_QUARTIC_Q_STAR

    def test_inverse_quartic_class_is_theta_cubed(self):
        # 2**(-1/4) = theta**3 / 2, so 1/theta and theta**3 share a class
        assert norm_class_of(THETA.inverse()) is NormClass.INV_QUARTIC_Q_STAR
        assert norm_class_of(THETA ** 3) is NormClass.INV_QUARTIC_Q_STAR

    def test_mixed_elements_have_no_class(self):
        assert norm_class_of(1 + THETA) is None
        assert norm_class_of(SQRT2 + THETA) is None

    def test_zero_and_float_rejected(self):
        with pytest.raises(ValueError):
            norm_class_of(Quartic2(0))
        with pytest.raises(ValueError):
            norm_class_of(0)
        with pytest.raises(BackendMismatch):
            norm_class_of(1.5)

    @given(st.fractions(min_value=-20, max_value=20, max_denominator=8).filter(lambda q: q != 0),
           st.integers(min_value=0, max_value=3))
    @settings(deadline=None)
    def test_classes_are_q_star_invariant(self, q, power):
        x = Quartic2(1) * q * THETA ** power
        base = norm_class_of(THETA ** power) if power else NormClass.Q_STAR
        assert norm_class_of(x) is base


class TestBackendPlumbing:
    def test_kind(self):
        assert kind(1) == "rational"
        assert kind(Fraction(1, 2)) == "rational"
        assert kind(THETA) == "quartic"
        assert kind(1.5) == "float"

    def test_common_kind_promotes_exact_only(self):
        assert common_kind([1, Fraction(2)]) == "rational"
        assert common_kind([1, THETA]) == "quartic"
        assert common_kind([0.5, 0.25]) == "float"
        with pytest.raises(BackendMismatch):
            common_kind([0.5, Fraction(1)])
        with pytest.raises(BackendMismatch):
            common_kind([0.5, THETA])

    def test_promote(self):
        assert promote(3, "quartic") == Quartic2(3)
        assert promote(Fraction(1, 2), "float") == 0.5
        with pytest.raises(BackendMismatch):
            promote(THETA, "rational")

    def test_is_zero_by_backend(self):
        assert is_zero(Quartic2(0)) and is_zero(THETA - THETA)
        assert not is_zero(Quartic2(Fraction(1, 10 ** 30))) and not is_zero(THETA)
        assert is_zero(Fraction(0)) and not is_zero(Fraction(-1, 3))
        assert is_zero(1e-12) and not is_zero(-1e-3)

    def test_epsilon_gate(self):
        assert sign_of(1e-12) == 0
        assert sign_of(1e-3) == 1


class TestSqrtInField:
    def test_rational_cases(self):
        assert sqrt_in_field(Fraction(9, 4)) == Fraction(3, 2)
        assert sqrt_in_field(Fraction(2)) is None  # not rational
        assert sqrt_in_field(Fraction(-1)) is None

    def test_quartic_cases(self):
        assert sqrt_in_field(Quartic2(2)) == SQRT2
        assert sqrt_in_field(Quartic2(9)) == Quartic2(3)
        assert sqrt_in_field(Quartic2(8)) == 2 * SQRT2
        assert sqrt_in_field(Quartic2(0, 0, 4, 0)) == 2 * THETA
        assert sqrt_in_field(Quartic2(0, 0, 2, 0)) == THETA ** 3
        assert sqrt_in_field(1 + THETA) is None

    def test_mixed_even_elements_have_no_root(self):
        assert sqrt_in_field(1 + SQRT2) is None
        assert sqrt_in_field(Quartic2(Fraction(1, 2), 0, 4, 0)) is None

    @given(quartics)
    @settings(deadline=None)
    def test_sqrt_squares_back(self, x):
        r = sqrt_in_field(x)
        if r is not None:
            assert r * r == x
            assert quartic_sign(r) >= 0


class TestCoefficientTypes:
    def test_float_coefficient_raises(self):
        with pytest.raises(BackendMismatch):
            Quartic2(0.1)
        with pytest.raises(BackendMismatch):
            Quartic2(1, 0, 0.5, 0)

    def test_bool_coefficient_raises(self):
        with pytest.raises(TypeError):
            Quartic2(True)
        with pytest.raises(TypeError):
            Quartic2(0, False, 0, 0)
        with pytest.raises(TypeError):
            THETA + True

    def test_other_types_raise(self):
        with pytest.raises(TypeError):
            Quartic2("1/2")
        with pytest.raises(TypeError):
            Quartic2(THETA)


def _canonical(x: Quartic2) -> bool:
    return x._d > 0 and math.gcd(*x._n, x._d) == 1


class TestCanonicalForm:
    """Every result is in lowest terms over a positive denominator, so equal
    values have equal internal tuples."""

    @given(quartics, nonzero_quartics, rationals, st.integers(min_value=-3, max_value=4))
    @settings(deadline=None)
    def test_results_are_canonical(self, x, y, q, n):
        results = [x + y, x - y, x * y, x / y, y ** n, y.inverse(), -x,
                   x + q, q - x, x * q, q / y]
        if x:
            results.append(x ** n)
        for r in results:
            assert _canonical(r)

    @given(quartics, nonzero_quartics)
    @settings(deadline=None)
    def test_equal_values_equal_tuples(self, x, y):
        for r in ((x + y) - y, (x * y) / y, x * y * y.inverse()):
            assert (r._n, r._d) == (x._n, x._d)


_M = sys.hash_info.modulus


class TestHash:
    @given(st.one_of(quartics, near_zero_quartics))
    @settings(deadline=None)
    def test_hash_matches_fraction_coefficients(self, x):
        if x.is_rational:
            assert hash(x) == hash(x.to_fraction())
        else:
            assert hash(x) == hash(x.coeffs)

    @pytest.mark.parametrize("c0", [
        Fraction(1, _M), Fraction(3, 2 * _M), Fraction(-(_M + 2), 2),
        Fraction(-1), Fraction(-1, 3), Fraction(10 ** 30 + 1, 7 ** 25)])
    def test_hash_edge_denominators(self, c0):
        # d divisible by the hash modulus, and values hashing to -1 -> -2
        assert hash(Quartic2(c0)) == hash(c0)
        x = Quartic2(c0, Fraction(1, 5))
        assert hash(x) == hash(x.coeffs)


class TestPurity:
    def test_sign_leaves_module_state_unchanged(self):
        before = dict(vars(inversive.exactnum))
        assert quartic_sign(Quartic2(Fraction(-42, 25), 0, 0, 1)) == 1
        assert quartic_sign(Quartic2(Fraction(-1682, 1000), 0, 0, 1)) < 1
        assert THETA ** 3 - 2 / THETA == 0
        assert dict(vars(inversive.exactnum)) == before


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _poly(sympy, x):
    t = sympy.Symbol("t")
    return sum(sympy.Rational(c.numerator, c.denominator) * t ** k
               for k, c in enumerate(x.coeffs))


class TestAgainstSympy:
    """Field arithmetic and signs against sympy's polynomial algebra modulo
    t**4 - 2 and its evaluation at 2**(1/4), which share no code with
    `exactnum`."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(quartics, near_zero_quartics), st.one_of(quartics, near_zero_quartics))
    def test_add_mul_match_remainder(self, sympy, x, y):
        t = sympy.Symbol("t")
        px, py = _poly(sympy, x), _poly(sympy, y)
        assert sympy.expand(_poly(sympy, x + y) - px - py) == 0
        product = sympy.rem(sympy.expand(px * py), t ** 4 - 2, t)
        assert sympy.expand(_poly(sympy, x * y) - product) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(nonzero_quartics, near_zero_quartics))
    def test_inverse_matches_invert(self, sympy, x):
        t = sympy.Symbol("t")
        expected = sympy.invert(_poly(sympy, x), t ** 4 - 2, t)
        assert sympy.expand(_poly(sympy, x.inverse()) - expected) == 0

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(quartics, near_zero_quartics))
    def test_sign_matches_evaluation(self, sympy, x):
        value = _poly(sympy, x).subs(sympy.Symbol("t"), 2 ** sympy.Rational(1, 4))
        assert quartic_sign(x) == sympy.sign(value)

    def test_sign_of_convergent_residuals(self, sympy):
        # every q*t**k - p, the opposite-sign branch included
        root = 2 ** sympy.Rational(1, 4)
        for x in NEAR_ZERO:
            value = _poly(sympy, x).subs(sympy.Symbol("t"), root)
            assert quartic_sign(x) == sympy.sign(value) != 0
