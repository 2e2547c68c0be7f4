"""Exact arithmetic in Q[eps]/(eps^2), ordered lexicographically.

Values have the form a + b*eps with a, b rational and eps a formal positive
infinitesimal: a + b*eps < c + d*eps iff a < c, or a = c and b < d.  This
turns every "for eps sufficiently small" comparison into an exact one, and
``preservation_threshold`` recovers a concrete rational eps0 below which the
symbolic strict comparisons remain true after substitution.

A value is held as three ints p, q, d meaning (p + q*eps)/d, with d > 0 and
gcd(p, q, d) = 1, so equal values have equal triples.  Sums and comparisons
are int operations, with no common denominator to find when the two agree
(weights are mostly integers and multiples of eps); ``a`` and ``b`` give the
parts as Fractions.  ``preservation_threshold`` keeps its bound as a ratio
of two ints, since |delta a| / |delta b| does not depend on the pair's
common denominator, and makes a Fraction of the result only.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Union

RationalLike = Union[int, Fraction]

# Active comparison recorders (see record_comparisons).  Each entry is a list
# that compare() appends (x, y) pairs to.
_RECORDERS: list[list[tuple["EpsRational", "EpsRational"]]] = []


class EpsRational:
    """(p + q*eps)/d with ints p, q, d, d > 0 and gcd(p, q, d) = 1: the
    value a + b*eps for a = p/d and b = q/d.  Immutable by convention, as
    a Fraction is; ``a`` and ``b`` are read-only."""

    __slots__ = ("p", "q", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        d = 1
        if type(a) is not int or type(b) is not int:
            a, b = Fraction(_rational(a)), Fraction(_rational(b))
            d = lcm(a.denominator, b.denominator)  # then gcd(p, q, d) = 1
            a, b = a.numerator * d // a.denominator, b.numerator * d // b.denominator
        self.p, self.q, self.d = a, b, d

    a = property(lambda self: Fraction(self.p, self.d), doc="The standard part p/d.")
    b = property(lambda self: Fraction(self.q, self.d), doc="The eps part q/d.")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return _combine(self, _coerce(other), 1)

    __radd__ = __add__

    def __sub__(self, other):
        return _combine(self, _coerce(other), -1)

    def __rsub__(self, other):
        return _combine(_coerce(other), self, -1)

    def __neg__(self):
        return _make(-self.p, -self.q, self.d)

    def __mul__(self, other):
        o = _coerce(other)
        if self.q and o.q:
            # eps^2 never occurs in the affine expressions we manipulate; a
            # product of two genuinely infinitesimal parts is a usage bug.
            raise ValueError("product would have an eps^2 term")
        return _reduced(self.p * o.p, self.p * o.q + self.q * o.p, self.d * o.d)

    __rmul__ = __mul__

    def scale(self, r: RationalLike) -> "EpsRational":
        return self * _rational(r)

    # -- order --------------------------------------------------------------

    def compare(self, other) -> int:
        """-1, 0 or 1 by the lexicographic (standard part, eps part) order,
        on the parts cross-multiplied by the two denominators."""
        o = _coerce(other)
        for rec in _RECORDERS:
            rec.append((self, o))
        x, y = self.p * o.d, o.p * self.d
        if x == y:
            x, y = self.q * o.d, o.q * self.d
        return (x > y) - (x < y)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __eq__(self, other):
        try:
            o = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.p == o.p and self.q == o.q and self.d == o.d

    def __hash__(self):
        # an eps-free value equals, so hashes as, its int or Fraction
        return hash((self.p, self.q, self.d)) if self.q else hash(Fraction(self.p, self.d))

    # -- substitution -------------------------------------------------------

    def instantiate(self, eps_value: RationalLike) -> Fraction:
        """Exact value of a + b*eps at a concrete positive rational eps."""
        eps_value = Fraction(_rational(eps_value))
        if eps_value <= 0:
            raise ValueError(f"eps must be positive, got {eps_value}")
        return self.a + self.b * eps_value

    # -- text ---------------------------------------------------------------

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            return _frac_str(a)
        return (_frac_str(a) if a else "") + _eps_term(b, lead=a == 0)

    def __repr__(self):
        return f"EpsRational({self.a!r}, {self.b!r})"


def _make(p: int, q: int, d: int) -> EpsRational:
    """(p + q*eps)/d from a triple already in lowest terms with d > 0."""
    x = object.__new__(EpsRational)
    x.p, x.q, x.d = p, q, d
    return x


def _reduced(p: int, q: int, d: int) -> EpsRational:
    """(p + q*eps)/d for d > 0, divided by gcd(p, q, d)."""
    g = gcd(p, q, d)
    return _make(p // g, q // g, d // g)


def _combine(x: EpsRational, y: EpsRational, sign: int) -> EpsRational:
    """x + sign*y for sign 1 or -1, reduced unless both denominators are 1."""
    d = x.d
    if d == y.d:
        p, q = x.p + sign * y.p, x.q + sign * y.q
        return _make(p, q, 1) if d == 1 else _reduced(p, q, d)
    return _reduced(x.p * y.d + sign * y.p * d, x.q * y.d + sign * y.q * d, d * y.d)


def _rational(x: RationalLike) -> RationalLike:
    """x if it is an int or a Fraction: no float enters the arithmetic."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"cannot interpret {x!r} as EpsRational")


def _coerce(x) -> EpsRational:
    if isinstance(x, EpsRational):
        return x
    x = _rational(x)
    return _make(x.numerator, 0, x.denominator)


EPS = EpsRational(0, 1)


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _fraction_literal(text: str) -> Fraction:
    """Fraction(text), with a zero denominator reported as ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _eps_term(b: Fraction, lead: bool) -> str:
    sign = "-" if b < 0 else ("" if lead else "+")
    mag = abs(b)
    coeff = "" if mag == 1 else _frac_str(mag) + "*"
    return f"{sign}{coeff}eps"


_TERM_RE = re.compile(
    r"""^(?P<coeff>\d+(?:/\d+)?)?      # optional rational coefficient
        (?:\*)?                        # optional *
        (?P<eps>eps|e)?$               # optional eps symbol
    """,
    re.VERBOSE,
)


def parse_eps_rational(text: str) -> EpsRational:
    """Parse 'a+b*eps' style text; 'e' is accepted for 'eps'.

    Also accepts a parenthesised sum divided by an integer, e.g. '(1+e)/2'.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty EpsRational literal")
    if s.startswith("("):
        depth = 0  # close at the ')' that matches the first '('
        for close, ch in enumerate(s):
            depth += (ch == "(") - (ch == ")")
            if not depth:
                break
        else:
            raise ValueError(f"unbalanced parenthesis in {text!r}")
        inner = parse_eps_rational(s[1:close])
        rest = s[close + 1:]
        if not rest:
            return inner
        if not rest.startswith("/"):
            raise ValueError(f"expected '/<int>' after ')': {text!r}")
        if not re.fullmatch(r"[+-]?[0-9]+", rest[1:]):
            raise ValueError(f"bad EpsRational literal {text!r}")
        denom = int(rest[1:])
        if denom == 0:
            raise ValueError("division by zero")
        return inner.scale(Fraction(1, denom))

    total = EpsRational(0)
    # split into signed terms, requiring the matches to cover the whole string
    covered = 0
    for m in re.finditer(r"[+-]?[^+-]+", s):
        if m.start() != covered:
            raise ValueError(f"bad EpsRational literal {text!r}")
        covered = m.end()
        term = m.group(0)
        sign = 1
        if term[0] == "+":
            term = term[1:]
        elif term[0] == "-":
            sign = -1
            term = term[1:]
        tm = _TERM_RE.match(term)
        if not tm or (tm.group("coeff") is None and tm.group("eps") is None):
            raise ValueError(f"bad EpsRational term {term!r} in {text!r}")
        coeff = _fraction_literal(tm.group("coeff")) if tm.group("coeff") else Fraction(1)
        if tm.group("eps"):
            total = total + EpsRational(0, sign * coeff)
        else:
            total = total + EpsRational(sign * coeff)
    if covered != len(s):
        raise ValueError(f"bad EpsRational literal {text!r}")
    return total


class record_comparisons:
    """Context manager collecting every EpsRational comparison made inside it.

    Used to certify, after the fact, a concrete eps that preserves all the
    strict comparisons a computation relied on.
    """

    def __init__(self):
        self.pairs: list[tuple[EpsRational, EpsRational]] = []

    def __enter__(self):
        _RECORDERS.append(self.pairs)
        return self

    def __exit__(self, *exc):
        # by identity: list.remove would drop the first recorder whose pairs
        # merely equal these, as those of two nested empty recorders do
        _RECORDERS[:] = [rec for rec in _RECORDERS if rec is not self.pairs]
        return False


def preservation_threshold(
    pairs: Iterable[tuple[EpsRational, EpsRational]],
) -> Optional[Fraction]:
    """Largest eps0 such that every strict comparison among the given pairs
    holds numerically for all 0 < eps < eps0.

    Returns None when every comparison already holds for all positive eps
    (no finite constraint).  A pair x < y constrains eps only when the
    standard parts and the eps coefficients pull in opposite directions, in
    which case eps must stay below |delta_a| / |delta_b|.
    """
    num = den = 0  # the bound so far is num/den; none while den is 0
    for x, y in pairs:
        # delta a and delta b, both times x.d * y.d > 0
        da = y.p * x.d - x.p * y.d
        db = y.q * x.d - x.q * y.d
        if da * db >= 0:
            continue  # decided by the eps parts, or the eps parts do not fight
        da, db = abs(da), abs(db)
        if not den or da * den < num * db:
            num, den = da, db
    return Fraction(num, den) if den else None


def default_eps(n: int, k: int) -> Fraction:
    """Concrete eps used when rendering weights numerically: 1/(n*(k+3)).

    Strictly below the 1/n bound that suffices for n-mark weight vectors,
    with slack for sums of up to k+2 infinitesimal terms.
    """
    return Fraction(1, n * (k + 3))
