"""Arithmetic, ordering, parsing, and eps-threshold recovery in Q[eps]."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from graphassoc import (
    EPS,
    EpsRational,
    default_eps,
    parse_eps_rational,
    preservation_threshold,
    record_comparisons,
)


def test_construction_and_equality():
    x = EpsRational(1, 2)
    assert x.a == 1 and x.b == 2
    assert x == EpsRational(Fraction(1), Fraction(2))
    assert EpsRational(3) == 3
    assert EpsRational(0, 1) == EPS


def test_immutable():
    x = EpsRational(1)
    with pytest.raises(AttributeError):
        x.a = Fraction(2)


def test_arithmetic():
    x = EpsRational(1, 2)
    y = EpsRational(3, -1)
    assert x + y == EpsRational(4, 1)
    assert x - y == EpsRational(-2, 3)
    assert -x == EpsRational(-1, -2)
    assert 1 + x == EpsRational(2, 2)
    assert 5 - x == EpsRational(4, -2)
    assert x.scale(Fraction(1, 2)) == EpsRational(Fraction(1, 2), 1)


def test_multiplication_and_eps_squared_guard():
    assert EpsRational(2) * EpsRational(3, 1) == EpsRational(6, 2)
    assert 4 * EPS == EpsRational(0, 4)
    with pytest.raises(ValueError):
        EPS * EPS


def test_lexicographic_order():
    assert EPS > 0
    assert EPS < EpsRational(Fraction(1, 10 ** 9))
    assert EpsRational(1, -5) < EpsRational(1)
    assert EpsRational(1) < EpsRational(1, 5)
    assert EpsRational(2, -100) > EpsRational(1, 100)
    assert sorted([EpsRational(1), EPS, EpsRational(1, -1)]) == [
        EPS,
        EpsRational(1, -1),
        EpsRational(1),
    ]


def test_instantiate():
    x = EpsRational(1, -3)
    assert x.instantiate(Fraction(1, 12)) == Fraction(3, 4)
    with pytest.raises(ValueError):
        x.instantiate(0)
    with pytest.raises(ValueError):
        x.instantiate(-1)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1", EpsRational(1)),
        ("1-3e", EpsRational(1, -3)),
        ("4e", EpsRational(0, 4)),
        ("eps", EPS),
        ("e", EPS),
        ("1/2", EpsRational(Fraction(1, 2))),
        ("1/2+3/4*eps", EpsRational(Fraction(1, 2), Fraction(3, 4))),
        ("(1+e)/2", EpsRational(Fraction(1, 2), Fraction(1, 2))),
        ("(1-e)/2", EpsRational(Fraction(1, 2), Fraction(-1, 2))),
        ("-e", EpsRational(0, -1)),
        ("((1+e)/2)/2", EpsRational(Fraction(1, 4), Fraction(1, 4))),
        ("((1+e))", EpsRational(1, 1)),
    ],
)
def test_parse(text, expected):
    assert parse_eps_rational(text) == expected


@pytest.mark.parametrize(
    "bad",
    ["", "()", "(1+e", "x", "1+", "1//2", "(1)/0", "(1+e)/x", "(1+e)/2/3", "(1+e)/1_0", "(1)/\u0662",
     "((1+e)", "(1+e))"],
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_eps_rational(bad)


def test_parse_divisor_after_a_parenthesis():
    # an optionally signed run of ASCII digits ("(1)/\u0662" is rejected
    # above), and never 0
    assert parse_eps_rational("(1+e)/-2") == parse_eps_rational("-1/2-1/2*e")
    assert parse_eps_rational("(1+e)/+2") == parse_eps_rational("(1+e)/2")
    with pytest.raises(ValueError, match="^division by zero$"):
        parse_eps_rational("(1)/0")


def test_str_roundtrip():
    for text in ["1", "1-3*eps", "4*eps", "1/2", "-eps", "2+eps"]:
        v = parse_eps_rational(text)
        assert parse_eps_rational(str(v)) == v


def test_preservation_threshold_basic():
    # 1 - 3e < 1: opposed pair, threshold none needed (db < 0, da = 0)
    assert preservation_threshold([(EpsRational(1, -3), EpsRational(1))]) is None
    # 1 - 3e < 1 - e: again decided by eps parts
    assert preservation_threshold([(EpsRational(1, -3), EpsRational(1, -1))]) is None
    # 4e < 1 - 3e: holds numerically iff e < 1/7
    assert preservation_threshold(
        [(EpsRational(0, 4), EpsRational(1, -3))]
    ) == Fraction(1, 7)
    # reinforcing pair 0 < 1 + e imposes nothing
    assert preservation_threshold([(EpsRational(0), EpsRational(1, 1))]) is None


def test_threshold_for_values():
    # the threshold of a value set is that of all its pairs
    vals = [EpsRational(0, 4), EpsRational(1, -3), EpsRational(1)]
    assert preservation_threshold(combinations(vals, 2)) == Fraction(1, 7)


def test_record_comparisons():
    with record_comparisons() as rec:
        _ = EpsRational(0, 4) < EpsRational(1, -3)
    assert rec.pairs == [(EpsRational(0, 4), EpsRational(1, -3))]
    # recorder detaches on exit
    _ = EPS < 1
    assert len(rec.pairs) == 1


def test_default_eps():
    assert default_eps(6, 2) == Fraction(1, 30)
    assert 0 < default_eps(6, 2) < Fraction(1, 6)


fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)


@given(st.lists(st.tuples(fractions, fractions), min_size=2, max_size=6, unique=True))
def test_threshold_preserves_all_comparisons(coeffs):
    """At half the preservation threshold, every symbolic comparison among a
    value set matches the numeric comparison of the instantiated values."""
    vals = [EpsRational(a, b) for a, b in coeffs]
    bound = preservation_threshold(combinations(vals, 2))
    eps = Fraction(1, 2) * bound if bound is not None else Fraction(1, 1000)
    for i, x in enumerate(vals):
        for y in vals[i + 1:]:
            symbolic = x.compare(y)
            xa, ya = x.instantiate(eps), y.instantiate(eps)
            numeric = -1 if xa < ya else (1 if xa > ya else 0)
            if x == y:
                assert numeric == 0
            elif x.a == y.a and x.b != y.b:
                # ties in the standard part are broken by eps at any eps > 0
                assert numeric == symbolic
            else:
                assert numeric == symbolic
