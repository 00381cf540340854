"""Representation data of U_q(sl2) at generic q, over exact Laurent scalars.

Fixed conventions (everything downstream depends on these):

    * V_j has basis e_m, m = j, j-1, ..., -j, stored by twice-weight
      M = 2m in descending order.
    * Generator actions:  K e_m = q^(2m) e_m,  E e_m = [j-m] e_(m+1),
      F e_m = [j+m] e_(m-1).  All matrix entries are q-integers, so every
      representation matrix is integral.
    * Coproduct:  D(E) = E (x) K + 1 (x) E,  D(F) = F (x) 1 + K^-1 (x) F,
      D(K) = K (x) K.
    * Universal R-matrix on V_a (x) V_b:
          R = q^(H(x)H/2) * sum_n  c_n E^n (x) F^n,
          c_n = (q - q^-1)^n q^(n(n-1)/2) / [n]!
      whose fundamental block is the standard matrix
          q^(-1/2) (q E11(x)E11 + q E22(x)E22 + E11(x)E22 + E22(x)E11
                     + (q - q^-1) E12(x)E21).
      The positive braiding is Rhat = P o R; on the spin-(1/2) square it has
      channel eigenvalues q^(1/2) (spin 1) and -q^(-3/2) (spin 0).
    * Inverse R-matrix, again a closed series (no linear algebra):
          R^-1 = (sum_n  (-1)^n c'_n E^n (x) F^n) * q^(-H(x)H/2),
          c'_n = (q - q^-1)^n q^(-n(n-1)/2) / [n]!
      The negative braiding V_a (x) V_b -> V_b (x) V_a is R^-1 o P, with
      R^-1 acting on V_b (x) V_a: the inverse of the positive braiding of
      V_b (x) V_a.
    * mu = diag(q^(2m)); quantum traces weight basis vectors by q^(2 sum m).
    * ribbon_scalar(j) = q^(-2j(j+1)); the fundamental value is q^(-3/2).

On this convention set the positive braiding satisfies the skein identity
q^(1/2) Rhat - q^(-1/2) Rhat^-1 = (q - q^-1) id, and closing a positive kink
multiplies a quantum trace by ribbon_scalar(j)^(-1).

Both braidings, and so every operator of the rt pipeline, have Laurent
entries.  Clebsch-Gordan maps phi: V_c -> V_a (x) V_b are built integrally
from the highest-weight vector of the c-isotypic component.  The projection
psi is the q-adjoint of phi: E -> F K, F -> K^-1 E, K -> K is an algebra
anti-automorphism and a coalgebra map for the coproduct above, so the
contravariant form (e_M, e_M) = t^(E_j(M)) / qbinom(2j, k) on each V_j
(k = (M + 2j)/2, E_j(M) = 4k(k + 1 - 2j)) multiplies to a contravariant form
on V_a (x) V_b, and the adjoint of an intertwiner is an intertwiner.
Hom(V_a (x) V_b, V_c) is one-dimensional, so psi_raw o phi = norm * id for
the integral psi_raw of cg_integral; evaluation works on these Laurent data.
FractionScalar, an exact fraction layer over the Laurent ring, is made only
at the boundary: cg_pair's psi = psi_raw / norm, and each shadow coefficient
as one numerator over its two psi norms.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Union

from .laurent import (
    ONE,
    ZERO,
    LaurentScalar,
    divide_exact,
    gcd,
    quantum_binomial,
    quantum_factorial,
    quantum_integer,
)

# ---------------------------------------------------------------------------
# Spins
# ---------------------------------------------------------------------------


class Spin(int):
    """Label of an irreducible representation: a non-negative half-integer j,
    stored as the int twice_j to stay integral.  Being an int, a Spin hashes
    and compares in C (chain tuples of spins are the shadow state's keys),
    and Spin(1) == 1."""

    __slots__ = ()

    def __new__(cls, twice_j: int) -> Spin:
        if twice_j < 0:
            raise ValueError("spin must be a non-negative half-integer")
        return int.__new__(cls, twice_j)

    twice_j = int.real

    @property
    def dimension(self) -> int:
        return self.twice_j + 1

    def weights(self) -> range:
        """Twice-weights 2m in the fixed descending basis order."""
        return range(self.twice_j, -self.twice_j - 2, -2)

    @staticmethod
    def from_string(text: str) -> Spin:
        text = text.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            if den.strip() != "2":
                raise ValueError(f"spin {text!r} is not a half-integer")
            return Spin(int(num))
        return Spin(2 * int(text))

    def __str__(self) -> str:
        return str(self.twice_j // 2) if self.twice_j % 2 == 0 else f"{self.twice_j}/2"

    def __repr__(self) -> str:
        return f"Spin(twice_j={self.twice_j})"


SPIN_ZERO = Spin(0)
SPIN_HALF = Spin(1)
SPIN_ONE = Spin(2)


def fusion_range(a: Spin, b: Spin) -> tuple[Spin, ...]:
    """Admissible fusion products of a and b: |a-b|, |a-b|+1, ..., a+b."""
    lo = abs(a.twice_j - b.twice_j)
    hi = a.twice_j + b.twice_j
    return tuple(Spin(t) for t in range(lo, hi + 1, 2))


def qdim(j: Spin) -> LaurentScalar:
    """Quantum dimension [2j+1] = tr(mu on V_j)."""
    return quantum_integer(j.dimension)


def ribbon_scalar(j: Spin) -> LaurentScalar:
    """The ribbon monomial v_j = q^(-2j(j+1)); v_(1/2) = q^(-3/2)."""
    m = j.twice_j
    return LaurentScalar.monomial(1, -2 * m * (m + 2))


# ---------------------------------------------------------------------------
# Exact fractions over the Laurent ring (internal to intertwiner arithmetic)
# ---------------------------------------------------------------------------

ScalarLike = Union["FractionScalar", LaurentScalar]


class FractionScalar:
    """num / den with both parts in Z[t, t^-1], kept gcd-reduced with a
    canonical denominator (min exponent 0, positive leading coefficient)."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentScalar, den: LaurentScalar = ONE):
        if den.is_zero():
            raise ZeroDivisionError("fraction with zero denominator")
        if num.is_zero():
            num, den = ZERO, ONE
        elif not den.is_one():
            g = gcd(num, den)
            if not g.is_one():
                num, den = divide_exact(num, g), divide_exact(den, g)
            # Normalise the denominator to min exponent 0 and positive lead;
            # the compensating unit monomial moves into the numerator.
            if not den.is_one():
                shift = den.min_exponent()
                sign = 1 if den.terms()[den.max_exponent()] > 0 else -1
                unit = LaurentScalar.monomial(sign, -shift)
                num, den = num * unit, den * unit
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_laurent(self) -> bool:
        return self.den.is_one()

    def to_laurent(self) -> LaurentScalar:
        """The value as a Laurent polynomial; raises if the denominator is
        nontrivial (exactness is a theorem at every call site)."""
        if self.den.is_one():
            return self.num
        return divide_exact(self.num, self.den)

    def __add__(self, other: ScalarLike) -> FractionScalar:
        o = other if isinstance(other, FractionScalar) else FractionScalar(other)
        return FractionScalar(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> FractionScalar:
        o = other if isinstance(other, FractionScalar) else FractionScalar(other)
        return FractionScalar(self.num * o.den - o.num * self.den, self.den * o.den)

    def __mul__(self, other: ScalarLike) -> FractionScalar:
        o = other if isinstance(other, FractionScalar) else FractionScalar(other)
        return FractionScalar(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FractionScalar):
            return self.num * other.den == other.num * self.den
        if isinstance(other, LaurentScalar):
            return self.num == other * self.den
        if isinstance(other, int):
            return self.num == LaurentScalar.from_int(other) * self.den
        return NotImplemented

    def __str__(self) -> str:
        return str(self.num) if self.den.is_one() else f"({self.num}) / ({self.den})"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Tensor operators
# ---------------------------------------------------------------------------

WeightKey = tuple[int, ...]


class TensorOperator:
    """A sparse exact matrix between tensor products of irreducibles.

    Rows and columns are indexed by tuples of twice-weights, one per tensor
    factor.  Entries are Laurent scalars, or exact fractions where
    intertwiner normalisation forces them.  Instances are immutable by
    convention: no method mutates ``rows`` after construction.
    """

    __slots__ = ("row_spins", "col_spins", "rows")

    def __init__(self, row_spins: Iterable[Spin], col_spins: Iterable[Spin]):
        self.row_spins = tuple(row_spins)
        self.col_spins = tuple(col_spins)
        self.rows: dict[WeightKey, dict[WeightKey, ScalarLike]] = {}

    # -- construction --------------------------------------------------------

    @staticmethod
    def identity(spins: Iterable[Spin]) -> TensorOperator:
        spins = tuple(spins)
        op = TensorOperator(spins, spins)
        for key in weight_keys(spins):
            op.rows[key] = {key: ONE}
        return op

    # -- accessors ------------------------------------------------------------

    def entry(self, row: WeightKey, col: WeightKey) -> ScalarLike:
        return self.rows.get(row, {}).get(col, ZERO)

    def is_square(self) -> bool:
        return self.row_spins == self.col_spins

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorOperator):
            return NotImplemented
        if self.row_spins != other.row_spins or self.col_spins != other.col_spins:
            return False
        keys = set(self.rows) | set(other.rows)
        for r in keys:
            a, b = self.rows.get(r, {}), other.rows.get(r, {})
            for c in set(a) | set(b):
                if a.get(c, ZERO) != b.get(c, ZERO):
                    return False
        return True

    def __repr__(self) -> str:
        return (f"TensorOperator({'x'.join(map(str, self.row_spins))} <- "
                f"{'x'.join(map(str, self.col_spins))}, {sum(map(len, self.rows.values()))} entries)")

    # -- arithmetic -----------------------------------------------------------

    def compose(self, other: TensorOperator) -> TensorOperator:
        """self o other (other is applied first)."""
        if other.row_spins != self.col_spins:
            raise ValueError("inner index tuples do not match factor-for-factor")
        out = TensorOperator(self.row_spins, other.col_spins)
        orows = other.rows
        for r, row in self.rows.items():
            acc: dict[WeightKey, ScalarLike] = {}
            for m, v in row.items():
                orow = orows.get(m)
                if not orow:
                    continue
                for c, w in orow.items():
                    prod = v * w
                    cur = acc.get(c)
                    acc[c] = prod if cur is None else cur + prod
            acc = {c: s for c, s in acc.items() if not s.is_zero()}
            if acc:
                out.rows[r] = acc
        return out

    def __add__(self, other: TensorOperator) -> TensorOperator:
        if self.row_spins != other.row_spins or self.col_spins != other.col_spins:
            raise ValueError("shape mismatch")
        out = TensorOperator(self.row_spins, self.col_spins)
        for r in set(self.rows) | set(other.rows):
            acc: dict[WeightKey, ScalarLike] = dict(self.rows.get(r, {}))
            for c, v in other.rows.get(r, {}).items():
                cur = acc.get(c)
                s = v if cur is None else cur + v
                if s.is_zero():
                    acc.pop(c, None)
                else:
                    acc[c] = s
            if acc:
                out.rows[r] = acc
        return out

    def scale(self, scalar: ScalarLike) -> TensorOperator:
        out = TensorOperator(self.row_spins, self.col_spins)
        if scalar.is_zero():
            return out
        for r, row in self.rows.items():
            out.rows[r] = {c: scalar * v for c, v in row.items()}
        return out

    def tensor(self, other: TensorOperator) -> TensorOperator:
        """Kronecker product; index tuples concatenate."""
        out = TensorOperator(self.row_spins + other.row_spins,
                             self.col_spins + other.col_spins)
        for r1, row1 in self.rows.items():
            for r2, row2 in other.rows.items():
                target = out.rows.setdefault(r1 + r2, {})
                for c1, v1 in row1.items():
                    for c2, v2 in row2.items():
                        target[c1 + c2] = v1 * v2
        return out

    def proportionality_scalar(self) -> ScalarLike:
        """The scalar s with self = s * id; raises if self is not a multiple
        of the identity (used to read off Schur scalars)."""
        if not self.is_square():
            raise ValueError("not an endomorphism")
        keys = list(weight_keys(self.row_spins))
        s: ScalarLike | None = None
        for r in keys:
            diag = self.rows.get(r, {}).get(r, ZERO)
            if s is None:
                s = diag
            elif not s == diag:
                raise ValueError("operator is not a multiple of the identity")
        for r, row in self.rows.items():
            for c, v in row.items():
                if r != c and not v.is_zero():
                    raise ValueError("operator is not a multiple of the identity")
        return s if s is not None else ZERO


def weight_keys(spins: Iterable[Spin]) -> Iterator[WeightKey]:
    """All basis labels of the tensor product, factor-wise descending."""
    return (tuple(k) for k in itertools.product(*(s.weights() for s in spins)))


def quantum_trace(op: TensorOperator) -> LaurentScalar:
    """tr((mu (x) ... (x) mu) o op); the closed Wilson-loop trace.

    The operator must be square with Laurent entries, as every operator of
    the rt pipeline is.
    """
    if not op.is_square():
        raise ValueError("quantum_trace requires identical row and column index tuples")
    total = ZERO
    for r, row in op.rows.items():
        v = row.get(r)
        if v is None:
            continue
        weight = LaurentScalar.monomial(1, 4 * sum(r))  # q^(2m) per factor
        total = total + v * weight
    return total


def mu_operator(j: Spin) -> TensorOperator:
    """Diagonal operator q^(2m) on V_j; its trace is the quantum dimension."""
    op = TensorOperator((j,), (j,))
    for m in j.weights():
        op.rows[(m,)] = {(m,): LaurentScalar.monomial(1, 4 * m)}
    return op


# ---------------------------------------------------------------------------
# Braiding
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def braiding(a: Spin, b: Spin, sign: int = 1) -> TensorOperator:
    """The braiding Rhat^(sign): V_a (x) V_b -> V_b (x) V_a, in closed form.

    sign=+1 is P o R with R = q^(H(x)H/2) X the universal R-matrix above;
    sign=-1 is the inverse of the positive braiding of V_b (x) V_a, that is
    R^-1 o P with R^-1 = X^-1 q^(-H(x)H/2) and

        X^-1 = sum_n (-1)^n q^(-n(n-1)/2) (q - q^-1)^n / [n]!  E^n (x) F^n.

    With s = sign, the column e_M1 (x) e_M2 (twice-weights) has its n-th term
    in the row (M2', M1') = (M2 - 2sn, M1 + 2sn), with coefficient

        s^n qbinom(k_E, n) [k_F][k_F - 1]...[k_F - n + 1] (q - q^-1)^n
            * q^(s n(n-1)/2 + h/2),

    where for s=+1 E^n raises V_a (k_E = (2a - M1)/2), F^n lowers V_b
    (k_F = (2b + M2)/2) and h = M1' M2' is read on the output weights, and
    for s=-1 E^n raises V_b (k_E = (2b - M2)/2), F^n lowers V_a
    (k_F = (2a + M1)/2) and h = -M1 M2 is read on the input weights, because
    q^(-H(x)H/2) acts before X^-1.  Every coefficient is a nonzero Laurent
    polynomial and every entry is written once.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    step = LaurentScalar({4: sign, -4: -sign})  # s (q - q^-1)
    op = TensorOperator((b, a), (a, b))
    for m1 in a.weights():
        for m2 in b.weights():
            if sign == 1:
                k_e, k_f = (a.twice_j - m1) // 2, (b.twice_j + m2) // 2
            else:
                k_e, k_f = (b.twice_j - m2) // 2, (a.twice_j + m1) // 2
            for n in range(min(k_e, k_f) + 1):
                m1o, m2o = m1 + 2 * sign * n, m2 - 2 * sign * n
                h = m1o * m2o if sign == 1 else -m1 * m2
                coeff = quantum_binomial(k_e, n) * step ** n
                for i in range(n):
                    coeff = coeff * quantum_integer(k_f - i)
                coeff = coeff * LaurentScalar.monomial(1, 2 * sign * n * (n - 1) + 2 * h)
                op.rows.setdefault((m2o, m1o), {})[(m1, m2)] = coeff
    return op


# ---------------------------------------------------------------------------
# Clebsch-Gordan intertwiners
# ---------------------------------------------------------------------------


def _delta_F_apply(a: Spin, b: Spin, vec: dict[WeightKey, LaurentScalar]) -> dict:
    """Apply D(F) = F (x) 1 + K^-1 (x) F to a vector in V_a (x) V_b."""
    out: dict[WeightKey, LaurentScalar] = {}
    for (m1, m2), c in vec.items():
        if m1 > -a.twice_j:
            coeff = quantum_integer((a.twice_j + m1) // 2) * c
            key = (m1 - 2, m2)
            out[key] = out.get(key, ZERO) + coeff
        if m2 > -b.twice_j:
            coeff = quantum_integer((b.twice_j + m2) // 2) * LaurentScalar.monomial(1, -4 * m1) * c
            key = (m1, m2 - 2)
            out[key] = out.get(key, ZERO) + coeff
    return {k: v for k, v in out.items() if not v.is_zero()}


def _highest_weight_vector(a: Spin, b: Spin, c: Spin) -> dict[WeightKey, LaurentScalar]:
    """The canonical highest-weight vector of the V_c component of
    V_a (x) V_b:  sum_k (-1)^k q^(-k(2(c-a)+k+1)) qbinom(a+b-c, k)
    e_(a-k) (x) e_(c-a+k), an integral vector with leading term
    e_a (x) e_(c-a)."""
    n_abc = (a.twice_j + b.twice_j - c.twice_j) // 2
    vec: dict[WeightKey, LaurentScalar] = {}
    for k in range(n_abc + 1):
        m1 = a.twice_j - 2 * k
        m2 = c.twice_j - a.twice_j + 2 * k
        qexp = -k * ((c.twice_j - a.twice_j) + k + 1)
        coeff = quantum_binomial(n_abc, k) * LaurentScalar.monomial(
            -1 if k % 2 else 1, 4 * qexp)
        if not coeff.is_zero():
            vec[(m1, m2)] = coeff
    return vec


def _primitive(op: TensorOperator) -> TensorOperator:
    """Divide all entries by their common polynomial factor and normalise the
    residual unit so the lexicographically largest entry has minimum exponent
    zero and positive leading coefficient (canonical rescaling; any scalar
    multiple of an intertwiner is an intertwiner)."""
    content = ZERO
    anchor_entry = None
    for r in sorted(op.rows):
        row = op.rows[r]
        for c in sorted(row):
            content = gcd(content, row[c])
            anchor_entry = (r, c)
    if content.is_zero():
        return op
    divided = {
        r: {c: divide_exact(v, content) for c, v in row.items()}
        for r, row in op.rows.items()
    }
    lead = divided[anchor_entry[0]][anchor_entry[1]]
    sign = 1 if lead.terms()[lead.max_exponent()] > 0 else -1
    unit = LaurentScalar.monomial(sign, -lead.min_exponent())
    out = TensorOperator(op.row_spins, op.col_spins)
    for r, row in divided.items():
        out.rows[r] = {c: v * unit for c, v in row.items()}
    return out


def _phi_integral(a: Spin, b: Spin, c: Spin) -> TensorOperator:
    """Integral injection V_c -> V_a (x) V_b: the column for e_(c, c-k) is
    [2c-k]! * D(F)^k (highest-weight vector), rescaled to primitive form.
    For (a, 0, a) and (0, a, a) this is exactly the identity reindexing.
    Only the cached cg_integral calls it, after checking c in fusion_range(a, b)."""
    op = TensorOperator((a, b), (c,))
    vec = _highest_weight_vector(a, b, c)
    for k in range(c.dimension):
        m_c = c.twice_j - 2 * k
        fact = quantum_factorial(c.twice_j - k)
        for key, coeff in vec.items():
            val = coeff * fact
            if not val.is_zero():
                op.rows.setdefault(key, {})[(m_c,)] = val
        if k < c.twice_j:
            vec = _delta_F_apply(a, b, vec)
    return _primitive(op)


@lru_cache(maxsize=None)
def cg_integral(a: Spin, b: Spin, c: Spin) -> tuple[TensorOperator, TensorOperator, LaurentScalar]:
    """The integral Clebsch-Gordan data (phi: V_c -> V_a (x) V_b,
    psi_raw: V_a (x) V_b -> V_c, norm) with psi_raw o phi = norm * id_(V_c).

    psi = psi_raw / norm is the adjoint of phi for the contravariant forms
    (module docstring); cleared of the constant [2a]! [2b]! and of norm,

        psi_raw[Mc, (M1, M2)] = phi[(M1, M2), Mc] * [k1]! [2a-k1]! [k2]! [2b-k2]!
                                * qbinom(2c, kc) * t^(E_a(M1) + E_b(M2) - E_c(Mc)),

    made primitive; norm is read on the highest weight (Schur).  Over all c
    in the fusion range, sum_c phi_c psi_c = id (completeness).
    """
    if c not in fusion_range(a, b):
        raise ValueError(f"spin {c} is not in the fusion range of {a} and {b}")
    phi = _phi_integral(a, b, c)
    form_a, form_b = _forms(a), _forms(b)
    factorial_c = quantum_factorial(c.twice_j)
    inverse_c = {m: divide_exact(factorial_c, f) for m, f in _forms(c).items()}  # 1 / (e_M, e_M)
    psi_raw = TensorOperator((c,), (a, b))
    for (m1, m2), row in phi.rows.items():
        for (mc,), v in row.items():
            psi_raw.rows.setdefault((mc,), {})[(m1, m2)] = (
                v * form_a[m1] * form_b[m2] * inverse_c[mc])
    psi_raw = _primitive(psi_raw)
    top = (c.twice_j,)
    norm = sum((v * phi.rows[key][top] for key, v in psi_raw.rows[top].items()), ZERO)
    return phi, psi_raw, norm


@lru_cache(maxsize=None)
def cg_pair(a: Spin, b: Spin, c: Spin) -> tuple[TensorOperator, TensorOperator]:
    """(phi, psi) with psi = psi_raw / norm of cg_integral, so psi o phi = id_(V_c)."""
    phi, psi_raw, norm = cg_integral(a, b, c)
    return phi, psi_raw.scale(FractionScalar(ONE, norm))


def _forms(j: Spin) -> dict[int, LaurentScalar]:
    """[2j]! (e_M, e_M) = [k]! [2j-k]! t^(E_j(M)) for each weight M of V_j;
    with k = (M + 2j)/2, E_j(M) = 4k(k + 1 - 2j) = (M + 2j)(M - 2j + 2)."""
    return {m: quantum_factorial((j.twice_j + m) // 2) * quantum_factorial((j.twice_j - m) // 2)
            * LaurentScalar.monomial(1, (m + j.twice_j) * (m - j.twice_j + 2)) for m in j.weights()}
