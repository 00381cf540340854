"""Representation data: braiding conventions, CG pairs, traces.

The anchor for every sign and exponent convention is the explicit fundamental
R-matrix (and the derived facts that follow from it): channel eigenvalues
q^(1/2) / -q^(-3/2) on the spin-1 / spin-0 channels, the skein identity, and
the kink value of the quantum trace.
"""

import itertools

import pytest

from braidrt.laurent import ONE, ZERO, LaurentScalar, q_power, quantum_integer
from braidrt.uqsl2 import (
    SPIN_HALF,
    SPIN_ZERO,
    FractionScalar,
    Spin,
    TensorOperator,
    braiding,
    cg_integral,
    cg_pair,
    fusion_range,
    mu_operator,
    qdim,
    quantum_trace,
    ribbon_scalar,
    weight_keys,
)

H = SPIN_HALF
I = TensorOperator.identity
SMALL_SPINS = [Spin(0), Spin(1), Spin(2), Spin(3)]  # 0, 1/2, 1, 3/2


def test_spin_basics():
    assert Spin.from_string("1/2") == H and Spin.from_string("2") == Spin(4)
    assert str(Spin(3)) == "3/2" and str(Spin(4)) == "2"
    assert Spin(2).dimension == 3
    assert list(Spin(2).weights()) == [2, 0, -2]
    with pytest.raises(ValueError):
        Spin(-1)
    with pytest.raises(ValueError):
        Spin.from_string("1/3")


def test_fusion_range():
    assert fusion_range(H, H) == (Spin(0), Spin(2))
    assert fusion_range(SPIN_ZERO, Spin(5)) == (Spin(5),)
    assert fusion_range(Spin(2), H) == (Spin(1), Spin(3))


def test_qdim():
    assert qdim(SPIN_ZERO) == ONE
    assert qdim(H) == q_power(1) + q_power(-1)
    assert qdim(Spin(2)) == q_power(2) + ONE + q_power(-2)
    for j in SMALL_SPINS + [Spin(5), Spin(8)]:  # up to j = 4
        plain_trace = ZERO
        for key, row in mu_operator(j).rows.items():
            plain_trace = plain_trace + row.get(key, ZERO)
        assert plain_trace == qdim(j) == quantum_integer(j.dimension)
        assert quantum_trace(I((j,))) == qdim(j)


def test_ribbon_scalar_values():
    assert ribbon_scalar(SPIN_ZERO) == ONE
    assert ribbon_scalar(H) == q_power(-3, 2)
    assert ribbon_scalar(Spin(2)) == q_power(-4)


def test_ribbon_scalar_against_double_braiding():
    # Rhat^2 restricted to the channel c equals (v_a v_b / v_c) id, which
    # pins v_1 = q^-4 from v_(1/2) = q^(-3/2).
    for a, b in itertools.product([H, Spin(2)], repeat=2):
        double = braiding(b, a, 1).compose(braiding(a, b, 1))
        for c in fusion_range(a, b):
            phi, psi = cg_pair(a, b, c)
            s = psi.compose(double).compose(phi).proportionality_scalar()
            assert s == ribbon_scalar(a) * ribbon_scalar(b) * ribbon_scalar(c) ** -1


def test_mu_operator_matrix():
    m = mu_operator(H)
    assert m.entry((1,), (1,)) == q_power(1)
    assert m.entry((-1,), (-1,)) == q_power(-1)
    m1 = mu_operator(Spin(2))
    assert [m1.entry((w,), (w,)) for w in (2, 0, -2)] == [q_power(2), ONE, q_power(-2)]


FUNDAMENTAL_RHAT = {
    ((1, 1), (1, 1)): q_power(1, 2),
    ((-1, -1), (-1, -1)): q_power(1, 2),
    ((-1, 1), (1, -1)): q_power(-1, 2),
    ((1, -1), (-1, 1)): q_power(-1, 2),
    ((-1, 1), (-1, 1)): q_power(1, 2) - q_power(-3, 2),
}


def test_fundamental_braiding_is_flip_of_standard_r_matrix():
    # P o R with R = q^(-1/2)(q E11 E11 + q E22 E22 + E11 E22 + E22 E11
    #                          + (q - q^-1) E12 E21)
    rhat = braiding(H, H, 1)
    got = {(r, c): v for r, row in rhat.rows.items() for c, v in row.items()}
    assert got == FUNDAMENTAL_RHAT


def test_braiding_inverse_pair():
    # The oracle for the closed-form inverse series: every spin pair up to j=3.
    for a, b in itertools.product(map(Spin, range(7)), repeat=2):
        pos, neg = braiding(a, b, 1), braiding(b, a, -1)
        assert neg.compose(pos) == I((a, b))
        assert pos.compose(neg) == I((b, a))
    with pytest.raises(ValueError):
        braiding(H, H, 2)


def test_braiding_with_trivial_strand_is_reindexing():
    for j in SMALL_SPINS:
        for pair in [(SPIN_ZERO, j), (j, SPIN_ZERO)]:
            op = braiding(*pair, 1)
            assert all(v == ONE for row in op.rows.values() for v in row.values())
            assert sum(len(r) for r in op.rows.values()) == j.dimension


def test_skein_identity_of_fundamental_braiding():
    pos, neg = braiding(H, H, 1), braiding(H, H, -1)
    lhs = pos.scale(q_power(1, 2)) + neg.scale(-q_power(-1, 2))
    rhs = I((H, H)).scale(q_power(1) - q_power(-1))
    assert lhs == rhs


def test_yang_baxter_all_spins_up_to_three_halves():
    for a, b, c in itertools.product(SMALL_SPINS, repeat=3):
        r_ab = braiding(a, b, 1).tensor(I((c,)))
        r_ac = I((b,)).tensor(braiding(a, c, 1))
        r_bc = braiding(b, c, 1).tensor(I((a,)))
        lhs = r_bc.compose(r_ac).compose(r_ab)
        s_bc = I((a,)).tensor(braiding(b, c, 1))
        s_ac = braiding(a, c, 1).tensor(I((b,)))
        s_ab = I((c,)).tensor(braiding(a, b, 1))
        rhs = s_ab.compose(s_ac).compose(s_bc)
        assert lhs == rhs, (a, b, c)


def test_mu_is_grouplike_across_braiding():
    for a, b in itertools.product(SMALL_SPINS, repeat=2):
        lhs = mu_operator(b).tensor(mu_operator(a)).compose(braiding(a, b, 1))
        rhs = braiding(a, b, 1).compose(mu_operator(a).tensor(mu_operator(b)))
        assert lhs == rhs


def test_cg_pair_with_trivial_factor_is_identity():
    for a in SMALL_SPINS:
        for args in [(a, SPIN_ZERO, a), (SPIN_ZERO, a, a)]:
            phi, psi = cg_pair(*args)
            assert all(v == ONE for row in phi.rows.values() for v in row.values())
            assert all(v == ONE for row in psi.rows.values() for v in row.values())


def test_cg_singlet_of_two_fundamentals():
    # The singlet injection must be the -q^(-3/2) eigenvector of the braiding:
    # e_+ (x) e_-  -  q^-1 e_- (x) e_+ in canonical normalisation.
    phi, psi = cg_pair(H, H, SPIN_ZERO)
    assert phi.entry((1, -1), (0,)) == ONE
    assert phi.entry((-1, 1), (0,)) == LaurentScalar.monomial(-1, -4)
    image = braiding(H, H, 1).compose(phi)
    assert image == phi.scale(-q_power(-3, 2))


def test_cg_orthogonality_and_completeness():
    for a, b in itertools.product(map(Spin, range(5)), repeat=2):  # up to j = 2
        total = None
        for c in fusion_range(a, b):
            phi, psi = cg_pair(a, b, c)
            assert psi.compose(phi) == I((c,)), ("cg2", a, b, c)
            for c2 in fusion_range(a, b):
                if c2 != c:
                    psi2 = cg_pair(a, b, c2)[1]
                    prod = psi2.compose(phi)
                    assert not prod.rows, ("cg2 off-diagonal", a, b, c, c2)
            term = phi.compose(psi)
            total = term if total is None else total + term
        assert total == I((a, b)), ("cg1", a, b)
    with pytest.raises(ValueError):
        cg_pair(H, H, Spin(1))


def test_cg_integral_contract():
    # psi_raw and phi are Laurent, psi_raw o phi = norm * id, and cg_pair's
    # psi is psi_raw / norm entry by entry
    for a, b in itertools.product(SMALL_SPINS, repeat=2):
        for c in fusion_range(a, b):
            phi, psi_raw, norm = cg_integral(a, b, c)
            entries = [v for op in (phi, psi_raw) for row in op.rows.values() for v in row.values()]
            assert all(isinstance(v, LaurentScalar) for v in entries + [norm]), (a, b, c)
            assert psi_raw.compose(phi) == I((c,)).scale(norm), (a, b, c)
            assert cg_pair(a, b, c)[0] is phi
            psi = cg_pair(a, b, c)[1]
            assert set(psi.rows) == set(psi_raw.rows)
            for key, row in psi_raw.rows.items():
                assert set(psi.rows[key]) == set(row)
                for col, v in row.items():
                    assert psi.rows[key][col] == FractionScalar(v, norm), (a, b, c, key, col)
    with pytest.raises(ValueError):
        cg_integral(H, H, Spin(1))


def test_channel_eigenvalues():
    # psi_c o Rhat o phi_c = (-1)^(2a - c) (v_a v_a / v_c)^(1/2) for a = b;
    # for a != b the square of the transport is the full twist v_a v_b / v_c.
    for a in SMALL_SPINS[1:]:
        for c in fusion_range(a, a):
            phi, psi = cg_pair(a, a, c)
            s = psi.compose(braiding(a, a, 1)).compose(phi).proportionality_scalar()
            n = (2 * a.twice_j - c.twice_j) // 2
            texp = -2 * a.twice_j * (a.twice_j + 2) + c.twice_j * (c.twice_j + 2)
            assert s == LaurentScalar.monomial(-1 if n % 2 else 1, texp), (a, c)
    for a, b in itertools.product(SMALL_SPINS[1:], repeat=2):
        if a == b:
            continue
        for c in fusion_range(a, b):
            phi_ab, psi_ab = cg_pair(a, b, c)
            full_twist = psi_ab.compose(braiding(b, a, 1)).compose(
                braiding(a, b, 1)).compose(phi_ab).proportionality_scalar()
            expected = ribbon_scalar(a) * ribbon_scalar(b) * ribbon_scalar(c) ** -1
            assert full_twist == expected, (a, b, c)


def test_quantum_trace_examples():
    assert quantum_trace(I((H,))) == qdim(H)
    assert quantum_trace(I((H, H))) == qdim(H) * qdim(H)
    # Closing a positive kink multiplies by the inverse ribbon scalar.
    assert quantum_trace(braiding(H, H, 1)) == ribbon_scalar(H) ** -1 * qdim(H)
    assert quantum_trace(braiding(H, H, -1)) == ribbon_scalar(H) * qdim(H)
    with pytest.raises(ValueError):
        quantum_trace(cg_pair(H, H, SPIN_ZERO)[0])


def partial_quantum_trace_last(op: TensorOperator) -> TensorOperator:
    """Partial quantum trace over the last tensor factor: contract the final
    leg of a square operator with a mu insertion.  Closing one strand of a
    braiding this way produces the ribbon scalar (the kink identity)."""
    if not op.is_square() or not op.row_spins:
        raise ValueError("partial trace needs a square operator with at least one factor")
    rest = op.row_spins[:-1]
    out = TensorOperator(rest, rest)
    for r, row in op.rows.items():
        for c, v in row.items():
            if r[-1] != c[-1]:
                continue
            weight = LaurentScalar.monomial(1, 4 * r[-1])
            target = out.rows.setdefault(r[:-1], {})
            key = c[:-1]
            cur = target.get(key)
            s = v * weight if cur is None else cur + v * weight
            if s.is_zero():
                target.pop(key, None)
            else:
                target[key] = s
    out.rows = {r: row for r, row in out.rows.items() if row}
    return out


def test_ribbon_consistency_partial_trace():
    # Closing the second strand of Rhat^(eps) with a mu insertion yields
    # ribbon_scalar^(-eps) times the identity, for every colour <= 3/2.
    for j in SMALL_SPINS:
        for eps in (1, -1):
            closed = partial_quantum_trace_last(braiding(j, j, eps))
            expected = I((j,)).scale(ribbon_scalar(j) ** -eps)
            assert closed == expected, (j, eps)


def test_tensor_operator_shape_checks():
    with pytest.raises(ValueError):
        I((H,)).compose(I((Spin(2),)))
    with pytest.raises(ValueError):
        I((H,)) + I((Spin(2),))
    op = I((H,)).tensor(I((Spin(2),)))
    assert op == I((H, Spin(2)))
    assert len(list(weight_keys((H, Spin(2))))) == 6


def test_fraction_scalar_arithmetic():
    two = quantum_integer(2)
    half = FractionScalar(ONE, two)
    assert half + half == FractionScalar(LaurentScalar.from_int(2), two)
    assert half * two == ONE
    assert (half - half).is_zero()
    assert FractionScalar(two) == two
    assert (FractionScalar(ONE, two) * FractionScalar(two, ONE)).is_laurent()
    with pytest.raises(ZeroDivisionError):
        FractionScalar(ONE, ZERO)
    with pytest.raises(ValueError):
        FractionScalar(ONE, two).to_laurent()
    assert FractionScalar(two * two, two).to_laurent() == two
