"""Exact arithmetic in the ring Z[t, t^-1], where t = q^(1/4).

Every scalar produced by this package (R-matrix entries, ribbon scalars,
quantum dimensions, link invariant values) lives on the quarter lattice of
powers of q: twists of the fundamental representation contribute q^(3/2),
half-twist square roots contribute q^(1/4)-lattice monomials.  Working with
integer exponents of the single variable t = q^(1/4) keeps all arithmetic in
one Laurent polynomial ring with integer coefficients and no radicals.

Conventions:
    * Exponents are stored in t-units (integers).  One power of q is four
      t-units, q^(1/2) is two t-units.
    * Coefficients are Python ints (arbitrary precision).
    * The zero polynomial has an empty term dict; no stored coefficient is
      ever zero, so equality is plain dict equality.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction


class LaurentScalar:
    """An element of Z[t, t^-1] in canonical form.

    Instances are immutable value objects: all arithmetic returns new
    objects, and instances hash by their term dict.  They are therefore safe
    to share freely (including across threads) and to use as dict keys.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for exp, coeff in items:
            if not isinstance(exp, int) or not isinstance(coeff, int):
                raise TypeError("exponents and coefficients must be ints")
            c = acc.get(exp, 0) + coeff
            if c:
                acc[exp] = c
            elif exp in acc:
                del acc[exp]
        self._terms = acc

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> LaurentScalar:
        return _ZERO

    @staticmethod
    def one() -> LaurentScalar:
        return _ONE

    @staticmethod
    def monomial(coeff: int, t_exponent: int) -> LaurentScalar:
        """The single term coeff * t^t_exponent."""
        out = LaurentScalar.__new__(LaurentScalar)
        out._terms = {t_exponent: coeff} if coeff else {}
        return out

    @staticmethod
    def from_int(n: int) -> LaurentScalar:
        return LaurentScalar.monomial(n, 0)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: LaurentScalar) -> LaurentScalar:
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        acc = dict(a)
        for exp, coeff in b.items():
            c = acc.get(exp, 0) + coeff
            if c:
                acc[exp] = c
            else:
                acc.pop(exp, None)
        out = LaurentScalar.__new__(LaurentScalar)
        out._terms = acc
        return out

    def __sub__(self, other: LaurentScalar) -> LaurentScalar:
        return self + -other

    def __neg__(self) -> LaurentScalar:
        out = LaurentScalar.__new__(LaurentScalar)
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __mul__(self, other: LaurentScalar) -> LaurentScalar:
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return _ZERO
        if len(a) > len(b):
            a, b = b, a
        acc: dict[int, int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                c = acc.get(e, 0) + ca * cb
                if c:
                    acc[e] = c
                else:
                    del acc[e]
        out = LaurentScalar.__new__(LaurentScalar)
        out._terms = acc
        return out

    def shift(self, k: int) -> LaurentScalar:
        """t^k * self, by moving every exponent; no product is formed."""
        if not k:
            return self
        out = LaurentScalar.__new__(LaurentScalar)
        out._terms = {e + k: c for e, c in self._terms.items()}
        return out

    def __pow__(self, n: int) -> LaurentScalar:
        if n < 0:
            if self.is_monomial():
                exp, coeff = next(iter(self._terms.items()))
                if coeff in (1, -1):
                    return LaurentScalar.monomial(-1 if coeff == -1 and n % 2 else 1, exp * n)
            raise ValueError("negative powers are only defined for unit monomials")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- predicates and accessors -------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def terms(self) -> dict[int, int]:
        """A copy of the exponent -> coefficient map (t-units)."""
        return dict(self._terms)

    def min_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    def max_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    def mirror(self) -> LaurentScalar:
        """The image under q -> q^-1 (every exponent negated)."""
        out = LaurentScalar.__new__(LaurentScalar)
        out._terms = {-e: c for e, c in self._terms.items()}
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentScalar):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exp in sorted(self._terms, reverse=True):
            coeff = self._terms[exp]
            mag = abs(coeff)
            if exp == 0:
                body = str(mag)
            else:
                qexp = Fraction(exp, 4)
                power = "q" if qexp == 1 else f"q^{{{qexp}}}"
                body = power if mag == 1 else f"{mag}{power}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentScalar({self._terms!r})"

    def to_json_terms(self) -> list[list]:
        """Render as [[t_exponent, coefficient_string], ...], ascending exponent."""
        return [[e, str(self._terms[e])] for e in sorted(self._terms)]

    @staticmethod
    def from_json_terms(data: Iterable) -> LaurentScalar:
        """The inverse of to_json_terms; repeated exponents are summed."""
        return LaurentScalar((int(exp), int(coeff)) for exp, coeff in data)


_ZERO = LaurentScalar()
_ONE = LaurentScalar.monomial(1, 0)

#: q = t^4 and its fractional powers on the t-lattice.
ONE = _ONE
ZERO = _ZERO
Q = LaurentScalar.monomial(1, 4)


def q_power(numerator: int, denominator: int = 1) -> LaurentScalar:
    """The monomial q^(numerator/denominator); the exponent must land on the
    quarter lattice (denominator dividing 4 after reduction)."""
    t_exp = Fraction(4 * numerator, denominator)
    if t_exp.denominator != 1:
        raise ValueError(f"q^({numerator}/{denominator}) is not on the t = q^(1/4) lattice")
    return LaurentScalar.monomial(1, int(t_exp))


def quantum_integer(n: int) -> LaurentScalar:
    """The balanced q-integer [n] = (q^n - q^-n)/(q - q^-1) = sum q^(n-1-2i).

    Constructed directly as a polynomial; [0] = 0, [1] = 1, [2] = q + q^-1.
    """
    if n < 0:
        raise ValueError("quantum_integer requires n >= 0")
    return LaurentScalar({4 * (n - 1 - 2 * i): 1 for i in range(n)})


def quantum_factorial(n: int) -> LaurentScalar:
    """[n]! = [1][2]...[n]."""
    out = _ONE
    for k in range(2, n + 1):
        out = out * quantum_integer(k)
    return out


def quantum_binomial(n: int, k: int) -> LaurentScalar:
    """The balanced Gaussian binomial [n]! / ([k]! [n-k]!) as a polynomial.

    Built row by row from the balanced Pascal rule
    [m, j] = q^j [m-1, j] + q^(j-m) [m-1, j-1], each power of q an exponent
    shift, over the columns j <= min(k, n-k); no division is performed.
    """
    if k < 0 or k > n:
        return _ZERO
    k = min(k, n - k)
    row = [_ONE]  # [m-1, j] for j = 0 ... min(m-1, k)
    for m in range(1, n + 1):
        row = [_ONE] + [
            row[j - 1].shift(4 * (j - m)) + (row[j].shift(4 * j) if j < len(row) else _ZERO)
            for j in range(1, min(m, k) + 1)]
    return row[k]


def divide_exact(numerator: LaurentScalar, denominator: LaurentScalar) -> LaurentScalar:
    """Exact division in Z[t, t^-1]; raises ValueError if it does not divide.

    General division is deliberately not part of the ring interface; this
    helper exists for internal constructions whose quotients are exact by
    theorems (intertwiner normalisations, state-sum totals).
    """
    if denominator.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if numerator.is_zero():
        return _ZERO
    # Shift both operands to ordinary polynomials (min exponent 0); the unit
    # monomial difference is restored on the quotient afterwards.
    num_shift = numerator.min_exponent()
    den_shift = denominator.min_exponent()
    num = {e - num_shift: c for e, c in numerator._terms.items()}
    den = {e - den_shift: c for e, c in denominator._terms.items()}
    den_top = max(den)
    den_lead = den[den_top]
    quotient: dict[int, int] = {}
    while num and max(num) >= den_top:
        top = max(num)
        lead = num[top]
        if lead % den_lead:
            raise ValueError("not exactly divisible (leading coefficient)")
        qc = lead // den_lead
        qe = top - den_top
        quotient[qe] = qc
        for e, c in den.items():
            ne = e + qe
            nc = num.get(ne, 0) - qc * c
            if nc:
                num[ne] = nc
            else:
                num.pop(ne, None)
    if num:
        raise ValueError("not exactly divisible (remainder)")
    return LaurentScalar({e + num_shift - den_shift: c for e, c in quotient.items()})


def _content(terms: dict[int, int]) -> int:
    return math.gcd(*terms.values()) if terms else 0


def gcd(a: LaurentScalar, b: LaurentScalar) -> LaurentScalar:
    """A gcd in Z[t, t^-1], normalised to minimum exponent 0, positive leading
    coefficient, primitive integer content.  gcd(0, 0) = 0."""
    f, g = a, b
    if f.is_zero():
        return _normalize_assoc(g)
    if g.is_zero():
        return _normalize_assoc(f)
    cf, cg = _content(f._terms), _content(g._terms)
    f, g = _normalize_assoc(f), _normalize_assoc(g)
    # Primitive pseudo-remainder sequence on polynomials shifted to t >= 0.
    while not g.is_zero():
        f, g = g, _normalize_assoc(_pseudo_rem(f, g))
    scale = math.gcd(cf, cg)
    return f * LaurentScalar.from_int(scale) if scale != 1 else f


def _normalize_assoc(p: LaurentScalar) -> LaurentScalar:
    """Strip unit factors: shift min exponent to 0, divide out integer content,
    make the leading coefficient positive."""
    if p.is_zero():
        return _ZERO
    terms = p._terms
    shift = min(terms)
    content = _content(terms)
    if terms[max(terms)] < 0:
        content = -content
    out = LaurentScalar.__new__(LaurentScalar)
    out._terms = {e - shift: c // content for e, c in terms.items()}
    return out


def _pseudo_rem(f: LaurentScalar, g: LaurentScalar) -> LaurentScalar:
    """Pseudo-remainder of f by g for the gcd loop (both with min exponent 0)."""
    ft = dict(f._terms)
    gt = g._terms
    dg = max(gt)
    lg = gt[dg]
    while ft and max(ft) >= dg:
        top = max(ft)
        lead = ft[top]
        # Scale f so the leading term cancels exactly.
        if lead % lg:
            scale = lg // math.gcd(lead, lg)
            for e in ft:
                ft[e] *= scale
            lead = ft[top]
        qc = lead // lg
        for e, c in gt.items():
            ne = e + top - dg
            nc = ft.get(ne, 0) - qc * c
            if nc:
                ft[ne] = nc
            else:
                ft.pop(ne, None)
    return LaurentScalar(ft)
