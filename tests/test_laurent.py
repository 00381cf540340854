"""Ring axioms, q-integer identities, and rendering of the exact scalar type."""

import random

import pytest

from braidrt.laurent import (
    ONE,
    Q,
    ZERO,
    LaurentScalar,
    divide_exact,
    gcd,
    q_power,
    quantum_binomial,
    quantum_factorial,
    quantum_integer,
)


def rand_poly(rng, max_terms=6, max_exp=12, max_coeff=9):
    return LaurentScalar(
        {rng.randint(-max_exp, max_exp): rng.randint(-max_coeff, max_coeff)
         for _ in range(rng.randint(0, max_terms))}
    )


def test_zero_annihilates():
    two = quantum_integer(2)  # q + q^-1
    assert two * ZERO == ZERO
    assert ZERO * two == ZERO


def test_half_exponent_product():
    half = q_power(1, 2)
    assert half * half == Q
    assert q_power(-3, 2) == LaurentScalar.monomial(1, -6)


def test_difference_of_squares():
    plus = q_power(1) + q_power(-1)
    minus = q_power(1) - q_power(-1)
    assert minus * plus == q_power(2) - q_power(-2)


def test_quantum_integer_small_values():
    assert quantum_integer(0) == ZERO
    assert quantum_integer(1) == ONE
    assert quantum_integer(2) == q_power(1) + q_power(-1)
    assert quantum_integer(3) == q_power(2) + ONE + q_power(-2)


def test_quantum_integer_defining_identity():
    # [n] (q - q^-1) = q^n - q^-n
    diff = q_power(1) - q_power(-1)
    for n in range(12):
        assert quantum_integer(n) * diff == q_power(n) - q_power(-n)


def test_quantum_integer_recursion():
    two = quantum_integer(2)
    for n in range(1, 14):
        assert quantum_integer(n) * two == quantum_integer(n + 1) + quantum_integer(n - 1)


def test_ring_axioms_randomised():
    rng = random.Random(11)
    for _ in range(120):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert a + b - b == a
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * ONE == a and a + ZERO == a


def test_pow():
    a = quantum_integer(2)
    assert a ** 0 == ONE
    assert a ** 3 == a * a * a
    assert Q ** -2 == q_power(-2)
    m = LaurentScalar.monomial(-1, 3)
    assert m ** -3 == LaurentScalar.monomial(-1, -9)
    with pytest.raises(ValueError):
        (a + ONE) ** -1


def test_pow_multiplication_count(monkeypatch):
    # square-and-multiply: one squaring per bit after the first, one product
    # per set bit, and no squaring after the last bit
    calls = []
    mul = LaurentScalar.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    x = quantum_integer(2)
    monkeypatch.setattr(LaurentScalar, "__mul__", counted)
    for n in range(1, 9):
        calls.clear()
        x ** n
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1"), n


def test_quantum_binomial_matches_factorial_ratio():
    for n in range(17):
        assert quantum_binomial(n, -1) == ZERO and quantum_binomial(n, n + 1) == ZERO
        for k in range(n + 1):
            lhs = quantum_binomial(n, k) * quantum_factorial(k) * quantum_factorial(n - k)
            assert lhs == quantum_factorial(n), (n, k)
            assert quantum_binomial(n, k) == quantum_binomial(n, n - k), (n, k)


def test_divide_exact_roundtrip():
    rng = random.Random(3)
    for _ in range(80):
        a, b = rand_poly(rng), rand_poly(rng)
        if b.is_zero():
            continue
        assert divide_exact(a * b, b) == a
    with pytest.raises(ValueError):
        divide_exact(Q + ONE, quantum_integer(2))


def test_gcd_normalised():
    a = quantum_integer(2) * quantum_integer(3)
    b = quantum_integer(2) * quantum_integer(4)
    g = gcd(a, b)
    # [3] and [4] are coprime, so the gcd is [2] up to units; normalised form
    # has min exponent 0 and positive leading coefficient.
    assert g == LaurentScalar({0: 1, 8: 1})
    divide_exact(a, g)
    divide_exact(b, g)
    rng = random.Random(17)
    for _ in range(40):
        x, y, z = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        u, v = x * z, y * z
        if u.is_zero() or v.is_zero():
            continue
        g2 = gcd(u, v)
        # the gcd divides both arguments and is divisible by the planted factor
        divide_exact(u, g2)
        divide_exact(v, g2)
        divide_exact(g2, gcd(z, g2))


def test_mirror():
    a = q_power(3, 2) + LaurentScalar.monomial(-2, -1)
    assert a.mirror().mirror() == a
    assert quantum_integer(5).mirror() == quantum_integer(5)


def test_shift_is_a_unit_monomial_product():
    rng = random.Random(3)
    for _ in range(20):
        a, k = rand_poly(rng), rng.randint(-9, 9)
        assert a.shift(k) == LaurentScalar.monomial(1, k) * a
    a = quantum_integer(3)
    assert a.shift(0) is a and ZERO.shift(5) == ZERO


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(q_power(-3, 2)) == "q^{-3/2}"
    assert str(q_power(1) + q_power(-1)) == "q + q^{-1}"
    assert str(q_power(2) - LaurentScalar.monomial(2, 0)) == "q^{2} - 2"
    assert str(LaurentScalar.monomial(-1, 1)) == "-q^{1/4}"


def test_json_roundtrip():
    rng = random.Random(5)
    for _ in range(40):
        a = rand_poly(rng)
        assert LaurentScalar.from_json_terms(a.to_json_terms()) == a
    assert (q_power(1) + q_power(-1)).to_json_terms() == [[-4, "1"], [4, "1"]]
