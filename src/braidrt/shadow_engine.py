"""Pipeline B: braid evaluation in the coupled (fusion-path) basis.

Instead of multiplying tensor operators, the braid is evaluated through
scalar recoupling coefficients.  A coupling path for external colors
(c_1 ... c_n) is an admissible chain

    gamma_0 --c_1--> gamma_1 --c_2--> ... --c_n--> gamma_n,

i.e. gamma_k in fusion_range(gamma_(k-1), c_k), kept as the bare chain tuple.
Expanding identity (x) A in the path bases and using that the mu-weighted
trace of phi_g psi_h is delta_(g,h) [d_(gamma_n)] gives the closed formula

    w  =  sum over paths g from gamma_0 = 0 of [d_(gamma_n(g))] * M[g, g],

where M is the matrix of the braid in the coupled basis.  Each elementary
crossing acts locally on one chain entry, so its matrix elements depend only
on the chain triple around it; they are the shadow coefficients below, each
read as one entry <e_2a| ... |e_2a> of the Clebsch-Gordan maps contracted
with the braiding, and cached.

In the fraction-free manner of Bareiss (Math. Comp. 22, 1968), a shadow
coefficient is one Laurent contraction of the integral Clebsch-Gordan data
over its two psi norms, and every amplitude is a Laurent numerator over one
denominator D of the whole state.  Each crossing is one table cached on the
strand colors, the slot and the sign alone: over every admissible path of
the colors, the lcm L of its coefficient denominators and each path's
targets, with the coefficients scaled by L to Laurent polynomials.  It sets
D <- D L, so amplitudes only multiply and add Laurent polynomials; the
closed trace is one exact division by D.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .braid import ColoredBraidWord, closure_components
from .laurent import ONE, ZERO, LaurentScalar, divide_exact, gcd
# unused here, but bench/tracer.py patches shadow_engine.cg_pair
from .uqsl2 import (  # noqa: F401
    SPIN_ZERO,
    FractionScalar,
    Spin,
    braiding,
    cg_integral,
    cg_pair,
    fusion_range,
    qdim,
)

_ZERO_FRACTION = FractionScalar(ZERO)


class CouplingPath(tuple):
    """The chain (gamma_0, ..., gamma_n) of a coupling path.  It is not
    checked: admissible_paths and _crossing build only admissible chains."""

    __slots__ = ()

    @property
    def top(self) -> Spin:
        return self[-1]


@lru_cache(maxsize=None)
def admissible_paths(colors: tuple[Spin, ...]) -> tuple[CouplingPath, ...]:
    """All coupling paths over the colors from gamma_0 = 0 (top end free)."""
    chains = [(SPIN_ZERO,)]
    for color in colors:
        chains = [chain + (nxt,) for chain in chains for nxt in fusion_range(chain[-1], color)]
    return tuple(map(CouplingPath, chains))


@lru_cache(maxsize=None)
def shadow_coefficient(
    p: Spin, q_color: Spin, c: Spin, b: Spin, a: Spin, b_prime: Spin, sign: int = 1
) -> FractionScalar:
    """Matrix element of the braiding in the coupled basis.

    With p, q_color the two strand colors read left to right before the
    crossing, c the chain color below, a the chain color above, b / b_prime
    the intermediate chain colors before / after, this is the Schur scalar of

        psi(b',p -> a) (psi(c,q -> b') (x) 1) (1 (x) Rhat_pq^sign)
            (phi(b -> c,p) (x) 1) phi(a -> b,q),

    read as its one entry <e_2a| ... |e_2a>.  With psi = psi_raw / norm, the
    entry sum over the cached Laurent operators phi, psi_raw and Rhat is one
    Laurent numerator, returned over norm(c,q -> b') norm(b',p -> a).

    Inadmissible inputs give 0.  A trivial strand (p = 0) is transparent:
    the coefficient is 1 exactly when b = c and a = b_prime.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if (b not in fusion_range(c, p) or b_prime not in fusion_range(c, q_color)
            or a not in fusion_range(b, q_color) or a not in fusion_range(b_prime, p)):
        return _ZERO_FRACTION
    phi_bq = cg_integral(b, q_color, a)[0].rows        # V_a -> V_b V_q
    phi_cp = cg_integral(c, p, b)[0].rows              # V_b -> V_c V_p
    rhat = braiding(p, q_color, sign).rows             # V_p V_q -> V_q V_p
    _, psi_cq, norm_cq = cg_integral(c, q_color, b_prime)  # V_c V_q -> V_b'
    _, psi_bp, norm_bp = cg_integral(b_prime, p, a)        # V_b' V_p -> V_a
    top = (a.twice_j,)
    total = ZERO
    for (m_bp, m_p), x in psi_bp.rows[top].items():
        acc = ZERO
        for (m_c, m_q), y in psi_cq.rows[(m_bp,)].items():
            # the entry ((1 x Rhat)(phi_cp x 1) phi_bq)[(m_c, m_q, m_p), top]
            inner = ZERO
            for (m_p0, m_q0), r in rhat[(m_q, m_p)].items():
                for (m_b,), w in phi_cp.get((m_c, m_p0), {}).items():
                    inner = inner + r * w * phi_bq[(m_b, m_q0)][top]
            acc = acc + y * inner
        total = total + x * acc
    return FractionScalar(total, norm_cq * norm_bp)


@dataclass(frozen=True)
class ShadowState:
    """Amplitudes of the partially evaluated braid in the coupled basis:
    a map (outgoing path, incoming path) -> numerator, over one denominator
    shared by every amplitude.  Outgoing paths live on colors_out (tracking
    the strand permutation so far), incoming paths on the colors the state
    started from.  Only admissible pairs with equal endpoints carry
    amplitude; support is finite."""

    colors_out: tuple[Spin, ...]
    numerators: dict[tuple[CouplingPath, CouplingPath], LaurentScalar]
    denominator: LaurentScalar = ONE

    @property
    def amplitudes(self) -> Mapping[tuple[CouplingPath, CouplingPath], FractionScalar]:
        """The true amplitudes, as a read-only view that makes the fraction
        numerator / denominator only when a value is read."""
        return _Amplitudes(self.numerators, self.denominator)


class _Amplitudes(Mapping):
    __slots__ = ("_numerators", "_denominator")

    def __init__(self, numerators: dict, denominator: LaurentScalar):
        self._numerators, self._denominator = numerators, denominator

    def __getitem__(self, key) -> FractionScalar:
        return FractionScalar(self._numerators[key], self._denominator)

    def __iter__(self):
        return iter(self._numerators)

    def __len__(self) -> int:
        return len(self._numerators)


def initial_state(colors: Iterable[Spin]) -> ShadowState:
    """The identity state: amplitude 1 on (p, p) for every admissible path.
    A crossing is invertible on each (below, above) block of the chain, so
    every state folded from here keeps all admissible outgoing paths."""
    colors = tuple(colors)
    return ShadowState(colors, {(path, path): ONE for path in admissible_paths(colors)})


@lru_cache(maxsize=None)
def _crossing(colors_out: tuple[Spin, ...], slot: int,
              sign: int) -> tuple[tuple[Spin, ...], LaurentScalar, dict]:
    """The crossing at (slot, slot+1) over every admissible path of
    colors_out: the new colors, the lcm L of the denominators of its nonzero
    coefficients, and for each path its targets (new path, coefficient * L).
    Each chain triple (below, mid, above) at the slot looks its coefficients
    up once.  Keyed on the colors alone, it is exactly the table over a
    folded state's outgoing paths, since those are all admissible paths."""
    p, q_color = colors_out[slot - 1], colors_out[slot]
    paths = admissible_paths(colors_out)
    rows = {}
    for below, mid, above in {path[slot - 1:slot + 2] for path in paths}:
        coeffs = ((m, shadow_coefficient(p, q_color, below, mid, above, m, sign))
                  for m in fusion_range(below, q_color))
        rows[below, mid, above] = [(m, c) for m, c in coeffs if not c.is_zero()]
    dens = {c.den for row in rows.values() for _, c in row}
    lcm = ONE
    for den in dens:
        lcm = lcm * divide_exact(den, gcd(lcm, den))
    scale = {den: divide_exact(lcm, den) for den in dens}
    rows = {triple: [(m, c.num * scale[c.den]) for m, c in row] for triple, row in rows.items()}
    targets = {path: [(CouplingPath(path[:slot] + (m,) + path[slot + 1:]), coeff)
                      for m, coeff in rows[path[slot - 1:slot + 2]]] for path in paths}
    return colors_out[:slot - 1] + (q_color, p) + colors_out[slot + 1:], lcm, targets


def apply_crossing(state: ShadowState, slot: int, sign: int) -> ShadowState:
    """Compose the state with one crossing of the strands at positions
    (slot, slot+1), 1-based, of the current outgoing colors.

    The _crossing table of (colors_out, slot, sign) holds L and the scaled
    coefficients, so a warm crossing only multiplies and sums the amplitude
    numerators with them; the state denominator becomes D L."""
    n = len(state.colors_out)
    if not 1 <= slot <= n - 1:
        raise ValueError(f"slot {slot} out of range for {n} strands")
    new_colors, lcm, targets = _crossing(state.colors_out, slot, sign)
    numerators: dict[tuple[CouplingPath, CouplingPath], LaurentScalar] = {}
    for (out_path, in_path), amp in state.numerators.items():
        for new_path, coeff in targets[out_path]:
            key = (new_path, in_path)
            cur = numerators.get(key)
            term = coeff * amp
            total = term if cur is None else cur + term
            if total.is_zero():
                numerators.pop(key, None)
            else:
                numerators[key] = total
    return ShadowState(new_colors, numerators, state.denominator * lcm)


def _fold(state: ShadowState, word: Iterable[int]) -> ShadowState:
    for g in word:
        state = apply_crossing(state, abs(g), 1 if g > 0 else -1)
    return state


def evaluate_shadow(b: ColoredBraidWord) -> LaurentScalar:
    """The closed-braid invariant w via the path state sum.

    With k = len(word) // 2, the word's first k letters are folded through
    apply_crossing into the state L from initial_state(b.colors), and the
    rest into R from initial_state(L.colors_out).  The trace of R o L pairs
    the two halves:

        w D_L D_R  =  sum over (g, h) in R of  R[(g, h)] L[(h, g)] [d_(top g)],

    one join instead of a product, closed by one exact division by the two
    state denominators.  Each half's denominator grows over its own letters
    only.

    Agrees exactly with the tensor-trace pipeline on every braid.
    """
    closure_components(b)  # raises ColorMismatch for inconsistent colorings
    k = len(b.word) // 2
    left = _fold(initial_state(b.colors), b.word[:k])
    right = _fold(initial_state(left.colors_out), b.word[k:])
    back = left.numerators
    by_top: dict[Spin, LaurentScalar] = {}
    for (out_path, in_path), amp in right.numerators.items():
        other = back.get((in_path, out_path))
        if other is not None:
            top = out_path.top
            cur = by_top.get(top)
            by_top[top] = amp * other if cur is None else cur + amp * other
    total = sum((trace * qdim(top) for top, trace in by_top.items()), ZERO)
    return divide_exact(total, left.denominator * right.denominator)
