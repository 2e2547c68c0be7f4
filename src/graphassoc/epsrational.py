"""Exact arithmetic in Q[eps]/(eps^2), ordered lexicographically.

Values have the form a + b*eps with a, b rational and eps a formal positive
infinitesimal: a + b*eps < c + d*eps iff a < c, or a = c and b < d.  This
turns every "for eps sufficiently small" comparison into an exact one, and
``preservation_threshold`` recovers a concrete rational eps0 below which the
symbolic strict comparisons remain true after substitution.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Optional, Union

RationalLike = Union[int, Fraction]

# Active comparison recorders (see record_comparisons).  Each entry is a list
# that compare() appends (x, y) pairs to.
_RECORDERS: list[list[tuple["EpsRational", "EpsRational"]]] = []


class EpsRational:
    """a + b*eps with exact rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("EpsRational is immutable")

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "EpsRational":
        if isinstance(x, EpsRational):
            return x
        if isinstance(x, (int, Fraction)):
            return EpsRational(x)
        raise TypeError(f"cannot interpret {x!r} as EpsRational")

    def __add__(self, other):
        o = self._coerce(other)
        return EpsRational(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return EpsRational(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return EpsRational(-self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if self.b != 0 and o.b != 0:
            # eps^2 never occurs in the affine expressions we manipulate; a
            # product of two genuinely infinitesimal parts is a usage bug.
            raise ValueError("product would have an eps^2 term")
        return EpsRational(self.a * o.a, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def scale(self, r: RationalLike) -> "EpsRational":
        r = Fraction(r)
        return EpsRational(self.a * r, self.b * r)

    # -- order --------------------------------------------------------------

    def compare(self, other) -> int:
        """-1, 0 or 1 by the lexicographic (standard part, eps part) order."""
        o = self._coerce(other)
        for rec in _RECORDERS:
            rec.append((self, o))
        if self.a != o.a:
            return -1 if self.a < o.a else 1
        if self.b != o.b:
            return -1 if self.b < o.b else 1
        return 0

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
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    # -- substitution -------------------------------------------------------

    def instantiate(self, eps_value: RationalLike) -> Fraction:
        """Exact value of a + b*eps at a concrete positive rational eps."""
        eps_value = Fraction(eps_value)
        if eps_value <= 0:
            raise ValueError(f"eps must be positive, got {eps_value}")
        return self.a + self.b * eps_value

    # -- text ---------------------------------------------------------------

    def __str__(self):
        if self.b == 0:
            return _frac_str(self.a)
        if self.a == 0:
            return _eps_term(self.b, lead=True)
        return _frac_str(self.a) + _eps_term(self.b, lead=False)

    def __repr__(self):
        return f"EpsRational({self.a!r}, {self.b!r})"


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
        _RECORDERS.remove(self.pairs)
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
    bound: Optional[Fraction] = None
    for x, y in pairs:
        da = y.a - x.a
        db = y.b - x.b
        if da == 0:
            continue  # decided by eps parts alone, any eps > 0 works
        if (da > 0) != (db < 0) or db == 0:
            continue  # eps part reinforces (or does not fight) the order
        cand = abs(da) / abs(db)
        if bound is None or cand < bound:
            bound = cand
    return bound


def default_eps(n: int, k: int) -> Fraction:
    """Concrete eps used when rendering weights numerically: 1/(n*(k+3)).

    Strictly below the 1/n bound that suffices for n-mark weight vectors,
    with slack for sums of up to k+2 infinitesimal terms.
    """
    return Fraction(1, n * (k + 3))
