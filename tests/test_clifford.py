import pytest

from spindual.ring import ONE, TWO, QQ, I
from spindual.linalg import SparseMatrix
from spindual.clifford import (bit, prefix, creat, annih, omega, Omega,
                               parity, clifford_generator)

K = 3
D = 1 << K
Z = SparseMatrix(D, D)
ID = SparseMatrix.identity(D)


def test_bit_and_prefix_conventions():
    # slot 1 is the most significant bit
    assert bit(0b100, 1, 3) == 1 and bit(0b100, 3, 3) == 0
    assert prefix(0b110, 2, 3) == 2 and prefix(0b110, 1, 3) == 1
    assert prefix(0b110, 0, 3) == 0


def test_car_relations():
    for i in range(1, K + 1):
        for j in range(1, K + 1):
            assert (annih(i, K) * annih(j, K) + annih(j, K) * annih(i, K)).is_zero()
            ac = annih(i, K) * creat(j, K) + creat(j, K) * annih(i, K)
            assert ac == (ID if i == j else Z)


def test_creat_sign_example():
    # creating in slot 2 over an occupied slot 1 picks up one sign
    m = creat(2, 2)
    assert m.data[(0b11, 0b10)] == -ONE
    assert m.data[(0b01, 0b00)] == ONE


def test_omega_exchange():
    for j in range(1, K + 1):
        assert omega(j, K) * annih(j, K) == annih(j, K) * omega(j, K).scale(QQ)
        assert omega(j, K) * creat(j, K) == creat(j, K) * omega(j, K).scale(QQ.inv())
        for i in range(1, K + 1):
            if i != j:
                assert omega(i, K) * creat(j, K) == creat(j, K) * omega(i, K)


def test_omega_as_idempotent_combination():
    # omega_j = psi_j psi+_j + q^-1 psi+_j psi_j
    for j in range(1, K + 1):
        lhs = annih(j, K) * creat(j, K) + (creat(j, K) * annih(j, K)).scale(QQ.inv())
        assert lhs == omega(j, K)


def test_parity_closed_form_equals_commutator_product():
    prod = ID
    for j in range(1, K + 1):
        prod = prod * (annih(j, K) * creat(j, K) - creat(j, K) * annih(j, K))
    assert prod == parity(K, K)


def test_Omega_is_product_of_squares():
    prod = ID
    for j in range(1, K + 1):
        prod = prod * omega(j, K, 2)
    assert prod == Omega(K, K)


def test_clifford_generators_anticommute():
    for a in range(1, 2 * K + 2):
        for b in range(1, 2 * K + 2):
            ea, eb = clifford_generator(a, K), clifford_generator(b, K)
            s = ea * eb + eb * ea
            assert s == (ID.scale(TWO) if a == b else Z), (a, b)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_clifford_generator_indices(k):
    # e_{2i-1} = psi_i + psi^dag_i, with entries +-1, and
    # e_{2i} = -i(psi_i - psi^dag_i), which sends x(0) to i x(slot i filled)
    for i in range(1, k + 1):
        odd = clifford_generator(2 * i - 1, k)
        even = clifford_generator(2 * i, k)
        assert odd == annih(i, k) + creat(i, k), i
        assert even == (annih(i, k) - creat(i, k)).scale(-I), i
        assert set(odd.data.values()) <= {ONE, -ONE}
        assert odd.data[(1 << (k - i), 0)] == ONE
        assert even.data[(1 << (k - i), 0)] == I


def test_last_generator_sign_choice():
    plus = clifford_generator(2 * K + 1, K, 1)
    minus = clifford_generator(2 * K + 1, K, -1)
    assert plus == -minus
    assert plus == parity(K, K)
