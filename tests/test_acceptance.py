"""End-to-end acceptance checks.  Each test is one headline claim; run with
`pytest tests/test_acceptance.py -v` to get one pass/fail line per claim.
Everything here is exact (zero tolerance): residuals must be identically
zero, multiplicities must match integer for integer.
"""

import random
from math import comb

import pytest

from spindual.ring import GaussRat, QQ, Scalar, Q
from spindual.linalg import random_point, commutant_dimension, residuals_zero
from spindual import qgroup, intertwiner, coideal, combinat
from spindual.cli import fft_counts


def _point(seed):
    return random_point(random.Random(seed))


def test_01_defining_relations():
    for N in range(3, 8):
        assert qgroup.verify_relations(N), N


def test_02_intertwiner_commutes_with_coproduct():
    for N in range(3, 8):
        res = intertwiner.check_commutation(N)
        assert all(m.is_zero() for m in res.values()), N


def test_03_cubic_relation():
    for N in (3, 4, 5):
        assert residuals_zero(intertwiner.check_cubic(N)), N
    for N in (6, 7):
        for seed in (1, 2, 3):
            res = intertwiner.check_cubic_specialized(N, _point(seed))
            assert residuals_zero(res), (N, seed)


def test_04_classical_spectrum_multiplicities():
    def half(p):
        return Scalar.from_gauss(GaussRat(Q(p, 2)))

    expected = {
        3: {half(1): 3, half(-3): 1},
        4: {half(-4): 1, half(-2): 4, half(0): 6, half(2): 4, half(4): 1},
        5: {half(5): 1, half(-3): 5, half(1): 10},
        6: {half(2 * j): comb(6, 3 - j) for j in range(-3, 4)},
    }
    for N, mults in expected.items():
        rep = intertwiner.spectrum_of_C(N, classical=True)
        assert rep.annihilates and rep.complete, N
        assert rep.multiplicities == mults, N
        assert sum(mults.values()) == rep.dim == 2 ** (2 * qgroup.rank_of(N))


def test_05_quantum_spectrum_annihilating_product():
    # the eigenvalue multiplicities are the binomials comb(N, j), j <= k for
    # N odd and j <= 2k for N even, in the order of the candidates
    for N in (3, 4, 5):
        rep = intertwiner.spectrum_of_C(N)
        assert rep.annihilates and rep.complete, N
        top = N // 2 if N % 2 else N
        assert list(rep.multiplicities.values()) == [
            comb(N, j) for j in range(top + 1)], N


DUALITY_GRID = ([(3, n) for n in range(1, 7)] + [(5, n) for n in range(1, 6)]
                + [(N, n) for N in (4, 6) for n in range(1, 5)])


def test_06_multiplicity_duality_tables():
    for N, n in DUALITY_GRID:
        assert residuals_zero(combinat.duality_residuals(N, n)), (N, n)


# sum of m_lambda^2 over S^(x)n, hard-coded so that a regression in
# combinat cannot hide one in the closure
CENTRALIZER_DIM = {(3, 4): 14, (3, 5): 42, (5, 3): 14, (5, 4): 84,
                   (4, 3): 70, (4, 4): 588, (3, 6): 132}


def test_07_centralizer_dimension_counts():
    for (N, n), want in CENTRALIZER_DIM.items():
        for seed in (11, 23):
            closure, sm, com, ok = fft_counts(N, n, seed)
            assert ok, (N, n, seed, closure, sm, com)
            assert closure == sm == want
            if n <= 3:
                assert com == sm


@pytest.mark.slow
@pytest.mark.parametrize("N,n,want", [(3, 7, 429), (5, 5, 594),
                                      (4, 5, 5544)])
def test_07_centralizer_frontier(N, n, want):
    # the largest points certified block by block, at seed 11
    assert fft_counts(N, n, 11) == (want, want, None, True)


def test_08_temperley_lieb_coideal_action():
    for n in (3, 4, 5):
        es = coideal.tl_generators(n)
        for e in es:
            assert (e * e - e).is_zero()
        res = coideal.check_coideal_relations(coideal.tl_braid_rep(n))
        assert residuals_zero(res), n
    c = coideal.tl_measured_constant()
    assert c == ((QQ + QQ.inv()) ** 2).inv()


def test_09_so3_reps_and_twists():
    for Np in range(1, 8):
        r = coideal.so3_classical_rep(Np)
        assert residuals_zero(coideal.check_coideal_relations(r)), Np
        if Np % 2:
            for sign in (1, -1):
                r2 = coideal.so3_nonclassical_rep(Np, sign)
                assert residuals_zero(
                    coideal.check_coideal_relations(r2)), (Np, sign)
    v0 = _point(17)
    for Np in range(2, 8):
        r = coideal.twist_so3(coideal.so3_classical_rep(Np))
        assert residuals_zero(coideal.check_coideal_relations(r)), Np
        bs = [b.specialize(v0) for b in r.B]
        dim = commutant_dimension(bs, r.dim)
        assert dim == (2 if Np % 2 else 1), Np


def test_10_matrix_entry_integrality():
    for N in (3, 4, 5, 6, 7):
        assert intertwiner.integrality_check(intertwiner.build_C_quantum(N),
                                             N), N


def test_11_fusion_level_truncation():
    N = 5
    for lev in (5, 7, 9):
        for n in range(1, 7):
            gen = combinat.spinor_table(N, n)
            tr = combinat.spinor_table(N, n, lev)
            for w, m in tr.items():
                assert m >= 1
                assert w in gen and m <= gen[w], (lev, n, w)
            assert (tr == gen) == (lev >= n + N - 2), (lev, n)
