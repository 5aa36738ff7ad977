from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from zetaline.precision import (
    PrecisionCtx,
    bernoulli_fraction,
    binom_exact,
    hreal_to_str,
    str_to_hreal,
)


def test_ctx_rejects_low_digits():
    with pytest.raises(ValueError):
        PrecisionCtx(14)
    assert PrecisionCtx(15).digits == 15


def test_binom_trivial():
    assert binom_exact(0, 0) == 1
    assert binom_exact(5, 2) == 10


def test_binom_200_100_via_pascal_recurrence():
    # independent oracle: build Pascal's triangle in pure integer arithmetic
    row = [1]
    for n in range(1, 201):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    expected = row[100]
    assert len(str(expected)) == 59  # ~9.05e58
    assert binom_exact(200, 100) == expected


def test_binom_pascal_identity_full_range():
    for n in range(2, 301):
        for k in range(1, n):
            assert binom_exact(n, k) == binom_exact(n - 1, k - 1) + binom_exact(n - 1, k)


def test_binom_preconditions():
    with pytest.raises(ValueError):
        binom_exact(3, 5)
    with pytest.raises(ValueError):
        binom_exact(-1, 0)


@given(st.floats(min_value=-1e12, max_value=1e12).filter(lambda x: x == x and abs(x) > 1e-12))
@settings(max_examples=80, deadline=None)
def test_serialization_roundtrip_property(x):
    digits = 22
    s = hreal_to_str(mpf(repr(x)), digits)
    v = str_to_hreal(s, digits)
    assert hreal_to_str(v, digits) == s


def test_serialization_format():
    s = hreal_to_str(mpf("-0.015625"), 12)
    assert s == "-1.56250000000e-02"
    assert hreal_to_str(mpf(0), 8).startswith("+0.0000000")


def test_bernoulli_values():
    assert bernoulli_fraction(0) == 1
    assert bernoulli_fraction(2).numerator == 1 and bernoulli_fraction(2).denominator == 6
    assert bernoulli_fraction(12).denominator == 2730
    assert bernoulli_fraction(3) == 0
    for n in range(257):
        assert bernoulli_fraction(n) == Fraction(*mpmath.bernfrac(n)), n
