import random
from math import comb

import pytest

from spindual.ring import GaussRat, GR_ONE, LP_ONE, ONE, QQ, V, qint
from spindual.linalg import (SparseMatrix, algebra_closure_dim, _one,
                             commutant_dimension, random_point,
                             residuals_zero, verify_spectrum)
from spindual.coideal import (CoidealRep, check_coideal_relations,
                              so3_classical_rep,
                              so3_nonclassical_rep, twist_so3, tl_generators,
                              tl_braid_rep, tl_measured_constant, duality_rep)
from spindual.intertwiner import quantum_spectrum_candidates
from spindual.qgroup import spin_rep


@pytest.mark.parametrize("N", range(1, 8))
def test_so3_classical(N):
    rep = so3_classical_rep(N)
    assert rep.dim == N + 1
    assert residuals_zero(check_coideal_relations(rep))


def test_so3_classical_B1_spectrum():
    rep = so3_classical_rep(1)
    assert rep.B[0] == SparseMatrix.diagonal([qint((1, 2)), qint((-1, 2))])


@pytest.mark.parametrize("N", [1, 3, 5, 7])
@pytest.mark.parametrize("sign", [1, -1])
def test_so3_nonclassical(N, sign):
    rep = so3_nonclassical_rep(N, sign)
    assert rep.dim == (N + 1) // 2
    assert residuals_zero(check_coideal_relations(rep))


def test_nonclassical_needs_odd_N():
    with pytest.raises(ValueError):
        so3_nonclassical_rep(4)


def test_twist_relations_and_involution():
    for N in (2, 3, 4, 5):
        rep = so3_classical_rep(N)
        tw = twist_so3(rep)
        assert tw.param == -rep.param
        assert residuals_zero(check_coideal_relations(tw))
        assert twist_so3(tw).B[0] == rep.B[0]
        # squares agree: the signs cancel
        assert tw.B[0] * tw.B[0] == rep.B[0] * rep.B[0]


@pytest.mark.parametrize("N,expect", [(2, 1), (3, 2), (4, 1), (5, 2)])
def test_twist_commutant_dimension(N, expect):
    tw = twist_so3(so3_classical_rep(N))
    v0 = random_point(random.Random(17))
    gens = [b.specialize(v0) for b in tw.B]
    assert commutant_dimension(gens, tw.dim) == expect


def test_tl_idempotents_and_far_commutation():
    es = tl_generators(4)
    for e in es:
        assert (e * e - e).is_zero()
    assert es[0] * es[2] == es[2] * es[0]


def test_n3_spin_rep_is_sl2_with_E_and_F_negated():
    # Temperley-Lieb takes its coproduct from the spin representation of
    # N = 3: K = diag(q, q^-1) and E, F the negated matrix units, so the
    # joint kernels, and with them the e_i, are those of the plain ones
    rep = spin_rep(3)
    assert rep.K(1) == SparseMatrix.diagonal([QQ, QQ.inv()])
    assert rep.Khalf(1) == SparseMatrix.diagonal([V, V.inv()])
    assert rep.E(1) == -SparseMatrix(2, 2, {(0, 1): ONE})
    assert rep.F(1) == -SparseMatrix(2, 2, {(1, 0): ONE})


def test_tl_measured_constant():
    c = tl_measured_constant()
    assert c == (qint(2) ** 2).inv()    # 1/(q+q^-1)^2
    # and explicitly not the two displayed conventions
    assert c != (QQ ** 2 + QQ ** -2).inv()
    assert c != ((QQ ** 2 + QQ ** -2) ** 2).inv()


@pytest.mark.parametrize("n", [3, 4])
def test_tl_coideal_images(n):
    assert residuals_zero(check_coideal_relations(tl_braid_rep(n)))


def test_tl_closure_is_catalan():
    for n in (2, 3, 4):
        dim = algebra_closure_dim(tl_generators(n), 2 ** n)
        assert dim == comb(2 * n, n) // (n + 1)


@pytest.mark.parametrize("N,n", [(3, 3), (3, 4), (5, 3), (4, 3), (4, 4)])
def test_duality_rep_relations(N, n):
    rep = duality_rep(N, n)
    assert residuals_zero(check_coideal_relations(rep))
    assert (rep.F is not None) == (N % 2 == 0)


@pytest.mark.parametrize("N,n", [(3, 3), (4, 3)])
def test_duality_rep_at_a_point_keeps_the_relations(N, n):
    # C, F and the parameter specialized before they are embedded
    rep = duality_rep(N, n, random_point(random.Random(11)))
    assert isinstance(rep.param, GaussRat)
    assert residuals_zero(check_coideal_relations(rep))
    assert (rep.F is not None) == (N % 2 == 0)


def test_duality_rep_eigenvalues_in_candidate_set():
    rep = duality_rep(5, 3)
    cands = [v for v, _ in quantum_spectrum_candidates(5)]
    for B in rep.B:
        assert verify_spectrum(B, cands).annihilates


def test_classical_duality_rep():
    # q = 1 is the point v0 = 1 of the one duality builder: parameter -1
    for N, n in ((3, 3), (4, 3), (5, 3)):
        rep = duality_rep(N, n, GR_ONE)
        assert rep.param == -GR_ONE
        assert residuals_zero(check_coideal_relations(rep))


def test_f_conjugation_flips_C():
    # (f (x) 1) C (f (x) 1) = -C is what makes the F-relations work
    from spindual import clifford as cl
    from spindual.intertwiner import build_C_quantum
    k = 2
    f1 = cl.parity(k, k).kron(SparseMatrix.identity(1 << k))
    C = build_C_quantum(4)
    assert f1 * C * f1 == -C


def test_n2_relations_vacuous():
    rep = CoidealRep(2, QQ, [SparseMatrix.identity(2)])
    assert residuals_zero(check_coideal_relations(rep))


# -- the cleared denominators give the plain residuals ---------------------------

def plain_relations(rep: CoidealRep) -> dict:
    """The residual dict by plain products of the B_i themselves."""
    out = {}
    B = rep.B
    mid = rep.param + rep.param.inv()
    for i in range(len(B)):
        for j in range(len(B)):
            if abs(i - j) > 1:
                out[f"far {i+1},{j+1}"] = B[i] * B[j] - B[j] * B[i]
            elif abs(i - j) == 1:
                out[f"cubic {i+1},{j+1}"] = (
                    B[i] * B[i] * B[j] - (B[i] * B[j] * B[i]).scale(mid)
                    + B[j] * B[i] * B[i] - B[j])
    if rep.F is not None:
        d = rep.F.nrows
        out["F^2"] = rep.F * rep.F - SparseMatrix.identity(
            d, _one([rep.F]))
        if B:
            out["FB1"] = rep.F * B[0] + B[0] * rep.F
        for i in range(1, len(B)):
            out[f"FB{i+1}"] = rep.F * B[i] - B[i] * rep.F
    return out


def plus_identity(rep: CoidealRep, i: int) -> CoidealRep:
    B = list(rep.B)
    B[i] = B[i] + SparseMatrix.identity(B[i].nrows, _one(B))
    return CoidealRep(rep.n, rep.param, B, rep.F)


CLEARED_REPS = {
    "duality (3,4)": lambda: duality_rep(3, 4),
    "duality (4,3)": lambda: duality_rep(4, 3),
    "duality (5,3)": lambda: duality_rep(5, 3),
    "duality (3,4) at a point": lambda: duality_rep(
        3, 4, random_point(random.Random(11))),
    "TL n=4": lambda: tl_braid_rep(4),
    "so3 Nparam=5": lambda: so3_classical_rep(5),
    "so3 nonclassical Nparam=5": lambda: so3_nonclassical_rep(5, -1),
    "classical duality (4,4)": lambda: duality_rep(4, 4, GR_ONE),
}


@pytest.mark.parametrize("name", list(CLEARED_REPS))
@pytest.mark.parametrize("perturb", [None, 0, 1])
def test_cleared_relations_match_plain_products(name, perturb):
    # the B_i scaled by the lcm d of their denominators, the residuals by
    # d^-2 or d^-3: keys, order and entries as from the B_i themselves,
    # also where B_1 + I or B_2 + I makes them nonzero
    rep = CLEARED_REPS[name]()
    if perturb is not None:
        rep = plus_identity(rep, perturb)
    got, want = check_coideal_relations(rep), plain_relations(rep)
    assert list(got) == list(want)
    assert got == want
    assert residuals_zero(got) == (perturb is None)
    assert all((x.den is LP_ONE) == (x.den == LP_ONE)
               for m in got.values() for x in m.entries()
               if hasattr(x, "den"))


def test_duality_rep_denominators_are_cleared():
    # the case the clearing is for: N odd has 1/[2] = v^2/(1 + v^4)
    B = duality_rep(3, 4).B
    assert {x.den for m in B for x in m.entries()} == {
        LP_ONE, (ONE + QQ ** 2).num}
