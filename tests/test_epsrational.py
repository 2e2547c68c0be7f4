"""Arithmetic, ordering, parsing, and eps-threshold recovery in Q[eps]."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from graphassoc import (
    EPS,
    EpsRational,
    default_eps,
    epsrational,
    parse_eps_rational,
    preservation_threshold,
    record_comparisons,
)
from oracles import FractionEps, fraction_eps, reference_preservation_threshold


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
    with pytest.raises(AttributeError):
        x.b = Fraction(2)


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


def test_nested_recorders_detach_themselves_only():
    """Each recorder sees the comparisons made inside it and none after its
    exit, also when nested recorders hold equal pairs and when an exception
    leaves one."""
    with record_comparisons() as outer:
        with record_comparisons() as inner:
            _ = EpsRational(1) < 2
        _ = EpsRational(1) < 3
        with pytest.raises(ZeroDivisionError):
            with record_comparisons() as failed:
                _ = EPS < 1
                1 / 0
        _ = EPS < 2
    _ = EPS < 3
    assert inner.pairs == [(EpsRational(1), EpsRational(2))]
    assert failed.pairs == [(EPS, EpsRational(1))]
    assert outer.pairs == [(EpsRational(1), EpsRational(2)), (EpsRational(1), EpsRational(3)),
                           (EPS, EpsRational(1)), (EPS, EpsRational(2))]
    assert epsrational._RECORDERS == []


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


# -- the int triple against the Fraction pair of tests/oracles.py -------------


def random_part(rng: random.Random) -> Fraction:
    """Zero, an integer or a fraction over a small denominator, so that two
    values meet equal, mixed and reducible denominators."""
    return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6]))


def random_value(rng: random.Random) -> tuple[EpsRational, FractionEps]:
    a, b = random_part(rng), random_part(rng)
    if rng.random() < 0.25:
        b = Fraction(0)  # a standard value, which any value may multiply
    return EpsRational(a, b), FractionEps(a, b)


def same(x: EpsRational, ref: FractionEps) -> bool:
    """x holds ref as its canonical triple: d the lcm of the denominators of
    the parts, and so d > 0 and gcd(p, q, d) = 1."""
    d = math.lcm(ref.a.denominator, ref.b.denominator)
    return type(x) is EpsRational and (x.p, x.q, x.d) == (ref.a * d, ref.b * d, d)


@pytest.mark.parametrize("seed", range(4))
def test_int_triples_match_the_fraction_reference(seed):
    rng = random.Random(seed)
    for _ in range(300):
        (x, rx), (y, ry) = random_value(rng), random_value(rng)
        r, k = random_part(rng), rng.randint(-3, 3)
        eps = Fraction(rng.randint(1, 5), rng.randint(1, 60))
        assert same(x, rx) and (x.a, x.b) == (rx.a, rx.b)
        assert same(x + y, rx + ry) and same(x - y, rx - ry) and same(-x, -rx)
        assert same(x + r, rx + r) and same(r - x, r - rx) and same(k + x, k + rx)
        assert same(x - k, rx - k) and same(x.scale(r), rx.scale(r)) and same(x.scale(k), rx.scale(k))
        assert same(x * r, rx * r) and same(k * x, k * rx)
        if x.q == 0 or y.q == 0:
            assert same(x * y, rx * ry)
        assert x.compare(y) == rx.compare(ry) and x.compare(r) == rx.compare(r)
        assert (x == y) == (rx == ry) and (x == r) == (rx == r) and (x == k) == (rx == k)
        assert str(x) == str(rx) and x.instantiate(eps) == rx.instantiate(eps)
        assert fraction_eps(x) == rx


def test_equal_values_built_two_ways_are_one_triple():
    half = Fraction(1, 2)
    pairs = [
        (EpsRational(Fraction(2, 4)), EpsRational(half)),
        (EpsRational(Fraction(6, 4), Fraction(-3, 6)), EpsRational(Fraction(3, 2), -half)),
        (EpsRational(Fraction(1, 3), Fraction(1, 6)) + EpsRational(Fraction(1, 6), Fraction(1, 3)),
         EpsRational(half, half)),
        (EpsRational(1, 1).scale(half) + EpsRational(1, 1).scale(half), EpsRational(1, 1)),
        (EpsRational(half, 1) - EpsRational(half), EPS),
        (EpsRational(Fraction(3, 4), Fraction(1, 4)) * 0, EpsRational(0)),
        (EpsRational(half) * EpsRational(4, 2), EpsRational(2, 1)),
    ]
    for x, y in pairs:
        assert (x.p, x.q, x.d) == (y.p, y.q, y.d)
        assert x == y and hash(x) == hash(y) and x.compare(y) == 0
        assert len({x, y}) == 1
    assert EpsRational(Fraction(2, 4)) == half and EpsRational(Fraction(6, 2)) == 3


def test_an_eps_free_value_hashes_as_its_int_or_fraction():
    # == holds across the types, so hash must agree, as for int and Fraction
    values = [(EpsRational(1), 1), (EpsRational(2), 2), (EpsRational(0), 0), (EpsRational(-3), -3),
              (EpsRational(Fraction(1, 2)), Fraction(1, 2)),
              (EpsRational(Fraction(-7, 3)), Fraction(-7, 3)),
              (EpsRational(1, 1) - EPS, 1), (EpsRational(Fraction(3, 4), 1).scale(4) - 4 * EPS, 3)]
    for x, v in values:
        assert x == v and hash(x) == hash(v)
        assert x in {v} and v in {x} and len({x, v}) == 1 and {x: 0}[v] == 0
    # a value with an eps part equals no int or Fraction and hashes its triple
    x = EpsRational(Fraction(1, 2), 3)
    assert hash(x) == hash((x.p, x.q, x.d)) and len({x, Fraction(1, 2), x - 3 * EPS}) == 2


@pytest.mark.parametrize("make, bad", [
    (lambda: EpsRational(0.1), "0.1"),
    (lambda: EpsRational(1, 0.5), "0.5"),
    (lambda: EpsRational(Fraction(1, 2), 0.25), "0.25"),
    (lambda: EpsRational(0.1) + EpsRational(0.2), "0.1"),
    (lambda: EpsRational("1/2"), "'1/2'"),
    (lambda: EpsRational(1, 1).scale(0.1), "0.1"),
    (lambda: EPS.scale("2"), "'2'"),
    (lambda: EpsRational(1, -3).instantiate(0.1), "0.1"),
    (lambda: EpsRational(1, -3).instantiate("1/12"), "'1/12'"),
    (lambda: EpsRational(1) + 0.5, "0.5"),
], ids=["float-a", "float-b", "fraction-and-float", "float-sum", "str-a", "float-scale",
        "str-scale", "float-instantiate", "str-instantiate", "float-operand"])
def test_only_ints_and_fractions_enter_the_arithmetic(make, bad):
    # EpsRational(0.1) held 3602879701896397/36028797018963968, so 0.1 + 0.2
    # was not 0.3; construction, scale and instantiate now refuse as + does
    with pytest.raises(TypeError, match=f"^cannot interpret {bad} as EpsRational$"):
        make()


def test_sums_comparisons_and_the_threshold_loop_make_no_fraction(monkeypatch):
    values = [
        EpsRational(Fraction(1, 2), -3),
        EpsRational(Fraction(1, 3), Fraction(1, 6)),
        EpsRational(2),
        EPS,
        EpsRational(1, -4),
    ]
    bound = reference_preservation_threshold(combinations(map(fraction_eps, values), 2))
    made = []

    class Counted(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(epsrational, "Fraction", Counted)
    for x, y in combinations(values, 2):
        _ = (x + y, x - y, -x, x.compare(y), x == y, y < x)
    assert made == []
    assert bound is not None and preservation_threshold(combinations(values, 2)) == bound
    assert len(made) == 1  # the result


def test_the_threshold_matches_the_fraction_reference_on_random_pairs():
    rng = random.Random(5)
    sizes = [0, 1, 1, 2, 3, 5, 8, 13, 40] * 20
    bounded = 0
    for size in sizes:
        pairs = [(random_value(rng), random_value(rng)) for _ in range(size)]
        got = preservation_threshold((x, y) for (x, _), (y, _) in pairs)
        want = reference_preservation_threshold((rx, ry) for (_, rx), (_, ry) in pairs)
        assert got == want
        bounded += got is not None
    assert 0 < bounded < len(sizes)  # both answers occur


def test_the_threshold_on_none_and_on_tied_bounds():
    x, y = EpsRational(Fraction(1, 3), -1), EpsRational(Fraction(2, 3))
    reinforcing = [(x, x + 1), (x, x + EPS), (y, y), (EPS, EpsRational(Fraction(1, 2), 1)), (x, y)]
    assert preservation_threshold([]) is None
    assert preservation_threshold(reinforcing) is None
    # 4e < 1 - 3e, twice as large, and over a denominator of 3: each eps < 1/7
    tied = [
        (EpsRational(0, 4), EpsRational(1, -3)),
        (EpsRational(0, 8), EpsRational(2, -6)),
        (EpsRational(0, Fraction(4, 3)), EpsRational(Fraction(1, 3), -1)),
    ]
    for pairs in (tied, tied[::-1], reinforcing + tied):
        reference = [(fraction_eps(a), fraction_eps(b)) for a, b in pairs]
        assert preservation_threshold(pairs) == Fraction(1, 7) == reference_preservation_threshold(reference)
