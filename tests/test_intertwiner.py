import pickle
import random

import pytest

from spindual.ring import (GaussRat, ONE, TWO, V, QQ, Scalar,
                           Q, GR_ONE, GR_I, P, PoleError, LP_ONE)
from spindual.linalg import (SparseMatrix, commutator, embed, first_nonzero,
                             random_point, residuals_zero)
from spindual.qgroup import (column_weight, dominant_columns, rank_of,
                             spin_rep, coproduct_generators,
                             _balanced_coproduct)
from spindual import clifford as cl, intertwiner, linalg
from spindual.coideal import check_coideal_relations, duality_rep
from spindual.intertwiner import (c_op, d_op, build_C_quantum,
                                  build_C_classical,
                                  check_commutation, check_cubic,
                                  check_cubic_specialized,
                                  spectrum_of_C,
                                  integrality_check,
                                  _commutators, _cubic_residuals, _f_term)


def pair_generators(N: int, v0=None) -> list:
    """(label, g) for the Delta(K_i), Delta(E_i), Delta(F_i) = Delta(E_i)^T
    on S (x) S, in the order and with the labels of `_commutators`."""
    K, E = coproduct_generators(N, 2, v0)
    return [(f"{x}{i}", g) for i, (dK, dE) in enumerate(zip(K, E), 1)
            for x, g in (("K", dK), ("E", dE), ("F", dE.transpose()))]


def specialized(gens, v0):
    """The (K, E) of `coproduct_generators`, specialized at v0."""
    return tuple([m.specialize(v0) for m in ms] for ms in gens)


HALF = Scalar.from_gauss(GaussRat(Q(1, 2)))


def clifford_C(N: int, sign: int = 1) -> SparseMatrix:
    """The classical C = (1/2) sum_{j=1}^N e_j (x) e_j from the Clifford
    generators, with `sign` the sign choice in e_N for N odd."""
    k = rank_of(N)
    acc = None
    for j in range(1, N + 1):
        e = cl.clifford_generator(j, k, sign)
        acc = e.kron(e) if acc is None else acc + e.kron(e)
    return acc.scale(HALF)


def C_embedded(N: int, i: int, n: int) -> SparseMatrix:
    """C_i = 1 (x) ... (x) C (x) ... (x) 1 acting on slots (i, i+1) of S^(x)n."""
    d = 1 << rank_of(N)
    return embed(build_C_quantum(N), d ** (i - 1), d ** (n - i - 1))


def apply(m: SparseMatrix, vec: dict) -> dict:
    """m times the sparse column vector {index: entry}."""
    col = SparseMatrix(m.ncols, 1, {(i, 0): x for i, x in vec.items()})
    return {r: x for (r, _), x in (m * col).data.items()}


def restrict_columns(m: SparseMatrix, cols) -> SparseMatrix:
    """m with every column outside `cols` set to zero."""
    keep = set(cols)
    return SparseMatrix(m.nrows, m.ncols,
                        {rc: v for rc, v in m.data.items() if rc[1] in keep})


def check_cd_relations(N: int) -> dict:
    """All cases of the d c = -q^{...} c d exchange rule and of the
    three-term relation that follows from it, including the extended
    index k+1 for N odd.  Returns {case-label: residual matrix}."""
    k = rank_of(N)
    top = k + 1 if N % 2 else k
    coef = QQ ** 2 + QQ ** (-2)
    out = {}
    for i in range(1, top + 1):
        for j in range(1, top + 1):
            if i == j:
                continue
            for e in (+1, -1):
                for kap in (+1, -1):
                    d, c = d_op(i, e, N), c_op(j, kap, N)
                    pw = 2 * e if i < j else 2 * kap
                    out[f"dc i={i} j={j} e={e} k={kap}"] = \
                        d * c + (c * d).scale(QQ ** pw)
                    # d_{i,e} d_{i,-e} c + (q^2+q^-2) d_{i,e} c d_{i,-e}
                    # + c d_{i,e} d_{i,-e}
                    dm = d_op(i, -e, N)
                    lhs = (d * dm * c + (d * c * dm).scale(coef) + c * d * dm)
                    if i < j:
                        lhs = lhs - (d * dm * c).scale(ONE - QQ ** (4 * e))
                    out[f"ii i={i} j={j} e={e} k={kap}"] = lhs
    return out


def principal_eigenvector(N: int):
    """The vector sum_m (-1)^(m, rho) x(m) (x) x(mbar) with eigenvalue
    (-1)^(k-1) k for the classical C (N even)."""
    k = rank_of(N)
    d = 1 << k
    vec = {}
    for m in range(d):
        mbar = (d - 1) ^ m
        sign = sum((k - i - 1) for i in range(k) if (m >> (k - 1 - i)) & 1)
        vec[m * d + mbar] = ONE if sign % 2 == 0 else -ONE
    return vec, Scalar.from_gauss(GaussRat((-1) ** (k - 1) * k))


def test_pair_action_coefficient():
    # (Om^-1 (x) Om)(psi (x) psi+ + psi+ (x) psi) sends x(m)(x)x(n) to
    # (-q^2)^(m{j-1} - n{j-1}) x(mbar^j)(x)x(nbar^j) when m_j + n_j = 1
    N, k = 5, 2
    for j in (1, 2):
        raw = (cl.annih(j, k).kron(cl.creat(j, k))
               + cl.creat(j, k).kron(cl.annih(j, k)))
        term = cl.Omega(j - 1, k, -1).kron(cl.Omega(j - 1, k, 1)) * raw
        hi = k - j
        for m in range(1 << k):
            for n in range(1 << k):
                col = m * (1 << k) + n
                colvals = {r: v for (r, c), v in term.data.items() if c == col}
                if ((m >> hi) & 1) + ((n >> hi) & 1) != 1:
                    assert colvals == {}
                    continue
                mb, nb = m ^ (1 << hi), n ^ (1 << hi)
                e = cl.prefix(m, j - 1, k) - cl.prefix(n, j - 1, k)
                want = (-(QQ ** 2)) ** e
                assert colvals == {mb * (1 << k) + nb: want}


def test_classical_N3_entries():
    C = build_C_classical(3)
    # C|00> = 1/2 |00>, C|01> = -1/2 |01> + |10>
    assert C.data[(0b00 * 2 + 0b0, 0)] == HALF
    col = {r: v for (r, c), v in C.data.items() if c == 1}   # |01> = index 1
    assert col == {1: -HALF, 2: ONE}


def test_classical_N2_spectrum():
    C = build_C_classical(2)
    rep = spectrum_of_C(2, classical=True)
    assert rep.annihilates and rep.complete
    assert rep.multiplicities == {Scalar.from_int(-1): 1,
                                  Scalar.from_int(0): 2,
                                  Scalar.from_int(1): 1}


def test_two_presentations_agree():
    # e_i-sum vs the psi/psi+ + f(x)f form for N = 5
    k = 2
    acc = None
    for j in range(1, k + 1):
        t = (cl.annih(j, k).kron(cl.creat(j, k))
             + cl.creat(j, k).kron(cl.annih(j, k)))
        acc = t if acc is None else acc + t
    f = cl.parity(k, k)
    acc = acc + f.kron(f).scale(HALF)
    assert acc == build_C_classical(5)


def test_quantum_degenerates_to_classical():
    # C at q = 1 is the quantum C at v0 = 1: built there, and specialized
    # there from the symbolic one, it is the Clifford half-sum of squares
    for N in range(2, 11):
        ref = clifford_C(N)
        assert build_C_classical(N) == ref, N
        assert build_C_quantum(N, GR_ONE) == ref.specialize(GR_ONE), N
        if N <= 6:
            assert build_C_quantum(N).specialize(GR_ONE) == \
                ref.specialize(GR_ONE), N


@pytest.mark.parametrize("N,n", [(3, 4), (4, 3), (5, 3), (6, 3)])
def test_duality_rep_at_q_one_is_the_clifford_form(N, n):
    # the B_i and F of the one duality builder at v0 = 1 (and at 1 mod P)
    # are the Clifford-form C_i and f (x) 1 embedded, with parameter -1
    k = rank_of(N)
    d = 1 << k
    C = clifford_C(N)
    B = [embed(C, d ** (i - 1), d ** (n - i - 1)) for i in range(1, n)]
    F = None if N % 2 else embed(cl.parity(k, k), 1, d ** (n - 1))
    for v0, p, param in ((GR_ONE, None, -GR_ONE), (1, P, P - 1)):
        rep = duality_rep(N, n, v0, p)
        assert rep.B == [b.specialize(v0, p) for b in B]
        assert rep.F == (None if F is None else F.specialize(v0, p))
        assert rep.param == param


def test_C_is_symmetric():
    for N in (3, 4):
        C = build_C_quantum(N)
        assert C.transpose() == C


@pytest.mark.parametrize("N", [3, 4, 5])
def test_commutation(N):
    assert all(m.is_zero() for m in check_commutation(N).values())


def test_commutation_negative_control():
    res = check_commutation(5, drop_f_term=True)
    k = 2
    assert not res[f"E{k}"].is_zero()
    # the i < k generators never see the f-term
    assert res["E1"].is_zero()


def test_commutation_negative_control_names_the_same_entry():
    # the diagonal K commutators take one product per entry: the
    # dict is the plain g C - C g one, and its first nonzero entry is the
    # one named before that change
    C = build_C_quantum(5) - _f_term(5)
    res = check_commutation(5, drop_f_term=True)
    assert res == {g: m * C - C * m for g, m in pair_generators(5)}
    assert first_nonzero(res) == ("E2", (0, 1))
    assert res["E2"].data[(0, 1)] == -V.inv()
    assert [g for g, m in res.items() if not m.is_zero()] == ["E2", "F2"]


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_commutation_matches_plain_products(N):
    C = build_C_quantum(N)
    assert check_commutation(N) == {g: m * C - C * m
                                    for g, m in pair_generators(N)}


def test_far_commutation_of_embeddings():
    C1 = C_embedded(3, 1, 4)
    C3 = C_embedded(3, 3, 4)
    assert C1 * C3 == C3 * C1


@pytest.mark.parametrize("N", [3, 4])
def test_cubic_symbolic(N):
    assert residuals_zero(check_cubic(N))


def test_cubic_classical():
    # the cubic relation at q = 1 (what `verify cubic --q one` runs): the
    # coideal relations of the three-strand duality representation at
    # v0 = 1, with parameter -1
    assert residuals_zero(check_coideal_relations(duality_rep(5, 3, GR_ONE)))
    # for N even the three-strand check also covers the relations of F
    res = check_coideal_relations(duality_rep(4, 3, GR_ONE))
    assert residuals_zero(res)
    assert {"cubic 1,2", "cubic 2,1", "F^2", "FB1", "FB2"} <= set(res)


def test_cubic_specialized():
    v0 = random_point(random.Random(2))
    assert residuals_zero(check_cubic_specialized(6, v0))


MID = QQ ** 2 + QQ ** (-2)
PARAM = -(QQ ** 2)      # the coideal parameter p, with -(p + p^-1) = MID


@pytest.mark.parametrize("N", [4, 5])
def test_quantum_cubic_returns_commutators(N):
    # the restriction to dominant columns is sound only with C equivariant:
    # both quantum checks lead with the commutators [Delta(g), C]
    k = N // 2
    v0 = random_point(random.Random(11))
    comm = check_commutation(N)
    sym = check_cubic(N)
    spec = check_cubic_specialized(N, v0)
    # for N even also [e (x) e, C], which lets the cubic run on D+ only
    tau = [f"[e{N - 1} (x) e{N - 1}, C]"] if N % 2 == 0 else []
    cubic = ["cubic C1;C2", "cubic C2;C1"]
    assert list(sym) == list(spec) == list(comm) + tau + cubic
    assert len(comm) == 3 * k
    assert {g: sym[g] for g in comm} == comm
    assert {g: spec[g] for g in comm} == {g: m.specialize(v0)
                                          for g, m in comm.items()}
    assert all(sym[t].is_zero() and spec[t].is_zero() for t in tau)


@pytest.mark.parametrize("N", [5, 6])
def test_cubic_restriction_matches_full_space(N):
    # with the right and a wrong middle coefficient, the restricted
    # residuals are the full-space residuals on the dominant columns, for
    # N even on their half D+ with lambda_k > 0; with the right one the
    # full-space residuals vanish on the other half D- too
    d = 1 << (N // 2)
    ident = SparseMatrix.identity(d, GR_ONE)
    cols = intertwiner.cubic_columns(N)
    minus = sorted(set(dominant_columns(N, 3)) - set(cols))
    assert len(minus) == (len(cols) if N % 2 == 0 else 0)
    for seed in (11, 23):
        v0 = random_point(random.Random(seed))
        C = build_C_quantum(N).specialize(v0)
        gens = specialized(coproduct_generators(N, 2), v0)
        C1, C2 = C.kron(ident), ident.kron(C)
        for mid, p in ((MID.specialize(v0), PARAM.specialize(v0)),
                       (GaussRat(2), GaussRat(-1))):
            full = [a * a * b + (a * b * a).scale(mid) + b * a * a - b
                    for a, b in ((C1, C2), (C2, C1))]
            res = _cubic_residuals(N, C, gens, p, v0)
            got = [res["cubic C1;C2"], res["cubic C2;C1"]]
            assert got == [restrict_columns(m, cols) for m in full], (seed, mid)
            if mid != GaussRat(2):
                assert all(restrict_columns(m, minus).is_zero()
                           for m in full), seed


def test_cubic_wrong_coefficient_fails():
    # p = -1 (middle coefficient 2) instead of -q^2: C still commutes, but
    # the restricted cubic residuals do not vanish, for N = 6 on D+ alone
    for N in (5, 6):
        res = _cubic_residuals(N, build_C_quantum(N),
                               coproduct_generators(N, 2), -ONE)
        assert [g for g, m in res.items() if not m.is_zero()] == [
            "cubic C1;C2", "cubic C2;C1"], N


@pytest.mark.parametrize("N", [4, 6, 8])
def test_last_mode_e_tensor_e_commutes_with_C(N):
    # [e_j (x) e_j, C] = 0 exactly for the two Clifford generators of the
    # last mode k: the tau = e_{N-1}^(x)3 of the N-even cubic check
    k, C = N // 2, build_C_quantum(N)
    zero = []
    for j in range(1, N + 1):
        e = cl.clifford_generator(j, k)
        if commutator(e.kron(e), C).is_zero():
            zero.append(j)
    assert zero == [N - 1, N]


def test_cubic_tau_key_fails_on_a_diagonal_entry():
    # negative control for the D+ half: one more diagonal entry of C keeps
    # it weight-preserving (the K_i commutators stay zero), but e (x) e
    # maps that basis vector to another, and the tau key names the entries
    N, k = 6, 3
    v0 = random_point(random.Random(11))
    C = build_C_quantum(N, v0)
    assert (0, 0) not in C.data
    bad = C + SparseMatrix(C.nrows, C.ncols, {(0, 0): GR_ONE})
    res = _cubic_residuals(N, bad, coproduct_generators(N, 2, v0),
                           PARAM.specialize(v0), v0)
    assert all(res[f"K{i}"].is_zero() for i in range(1, k + 1))
    tau = res["[e5 (x) e5, C]"]
    # e_5 flips slot 3 of each factor: x(000) (x) x(000) <-> x(001) (x) x(001)
    flip = (1 << k) + 1
    assert set(tau.data) == {(0, flip), (flip, 0)}
    assert first_nonzero({"tau": tau}) == ("tau", (0, flip))


def test_cubic_dropped_f_term_fails_equivariance():
    # without the f-term C still satisfies the cubic relation, but it is no
    # intertwiner: the check must fail on the commutators with E_2, F_2
    C = build_C_quantum(5) - _f_term(5)
    res = _cubic_residuals(5, C, coproduct_generators(5, 2), PARAM)
    assert len(res) == 3 * 2 + 2
    assert [g for g, m in res.items() if not m.is_zero()] == ["E2", "F2"]


@pytest.mark.parametrize("N", range(3, 9))
def test_builders_at_a_point_match_specialized_symbolic(N):
    # C and the Delta(g) on S (x) S, specialized on S and then tensored
    # (over Q(i) and mod P), against the symbolic operators specialized
    # entry by entry
    C, gens = build_C_quantum(N), coproduct_generators(N, 2)
    for seed in (11, 23):
        v0 = random_point(random.Random(seed))
        assert build_C_quantum(N, v0) == C.specialize(v0), seed
        vp = v0.mod_p(P)
        assert build_C_quantum(N, vp, P) == C.specialize(vp, P), seed
        assert coproduct_generators(N, 2, v0) == specialized(gens, v0), seed


def test_cubic_block_rejects_an_entry_between_weights():
    # negative control for the D x D block: C with one more entry, joining
    # two basis vectors of S (x) S of different weights, no longer keeps
    # the weight spaces, and a K_i commutator says so
    N = 5
    v0 = random_point(random.Random(11))
    C = build_C_quantum(N, v0)
    r, c = 0, 1
    assert column_weight(N, 2, r) != column_weight(N, 2, c)
    assert (r, c) not in C.data
    bad = C + SparseMatrix(C.nrows, C.ncols, {(r, c): GR_ONE})
    res = _cubic_residuals(N, bad, coproduct_generators(N, 2, v0),
                           PARAM.specialize(v0))
    assert not residuals_zero(res)
    assert any(not res[f"K{i}"].is_zero() for i in range(1, N // 2 + 1))


@pytest.mark.parametrize("v0", [GR_ONE, -GR_ONE, GR_I, -GR_I])
def test_cubic_specialized_rejects_root_of_unity(v0):
    with pytest.raises(PoleError):
        check_cubic_specialized(5, v0)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_cd_relations(N):
    res = check_cd_relations(N)
    bad = [lbl for lbl, m in res.items() if not m.is_zero()]
    assert bad == []


def test_extended_index_only_for_odd_N():
    with pytest.raises(ValueError):
        c_op(3, 1, 4)


@pytest.mark.parametrize("N", range(3, 8))
def test_classical_C_is_blind_to_the_sign_of_e_N(N):
    # e_N enters C only as e_N (x) e_N = f (x) f, so either sign of e_N
    # gives the same C
    assert clifford_C(N, -1) == clifford_C(N) == build_C_classical(N)


def test_classical_spectra():
    for N in (3, 4, 5, 6):
        rep = spectrum_of_C(N, classical=True)
        assert rep.annihilates and rep.complete, N
    pairs = spectrum_of_C(3, classical=True).multiplicities
    assert pairs == {Scalar.from_gauss(GaussRat(Q(1, 2))): 3,
                     Scalar.from_gauss(GaussRat(Q(-3, 2))): 1}


@pytest.mark.parametrize("classical,name",
                         [(False, "quantum_spectrum_candidates"),
                          (True, "quantum_spectrum_candidates")])
def test_spectrum_counts_decide_complete_not_annihilates(monkeypatch,
                                                         classical, name):
    # the first two eigenvalues swapped, each count left in place: the
    # product still vanishes and the counts still fill the space, but the
    # two eigenvalues no longer have their expected counts
    candidates = getattr(intertwiner, name)

    def swapped(N):
        (a, ma), (b, mb), *rest = candidates(N)
        return [(b, ma), (a, mb)] + rest
    monkeypatch.setattr(intertwiner, name, swapped)
    rep = spectrum_of_C(5, classical)
    assert rep.annihilates and not rep.complete
    assert sum(rep.multiplicities.values()) == rep.dim


def test_quantum_spectra():
    for N in (3, 4, 5):
        rep = spectrum_of_C(N)
        assert rep.annihilates and rep.complete, N


def test_integrality_of_a_reloaded_C():
    # pickling keeps the canonical form the integrality test reads
    for N in (4, 5):
        C = pickle.loads(pickle.dumps(build_C_quantum(N)))
        assert C == build_C_quantum(N) and integrality_check(C, N), N


def test_principal_eigenvector():
    for N in (4, 6):
        vec, lam = principal_eigenvector(N)
        C = build_C_classical(N)
        assert apply(C, vec) == {i: lam * v for i, v in vec.items()}


def test_integrality():
    for N in (3, 4, 5, 6):
        assert integrality_check(build_C_quantum(N), N)
    # N = 4 entries are monomials +-q^(2t)
    for s in build_C_quantum(4).entries():
        assert s.den is LP_ONE and s.num.is_monomial()
    # for N odd only the f-term rows carry the [2] denominator
    C5 = build_C_quantum(5)
    assert not all(s.den is LP_ONE for s in C5.entries())


# -- [Delta(F_i), C] by transposition, and the cubic on cleared C ----------------

def plain_commutators(pairs, C):
    return {g: m * C - C * m for g, m in pairs}


def count_commutator_calls(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(a)
        return linalg.commutator(a, b)
    monkeypatch.setattr(intertwiner, "commutator", counted)
    return calls


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_transposed_commutators_for_symmetric_C(monkeypatch, N):
    # C = C^T and Delta(F_i) = Delta(E_i)^T: each [Delta(F_i), C] comes
    # from [Delta(E_i), C] with no product, equal to the plain one
    C, pairs = build_C_quantum(N), pair_generators(N)
    assert C.transpose() == C
    calls = count_commutator_calls(monkeypatch)
    got = _commutators(coproduct_generators(N, 2), C)
    assert len(calls) == 2 * rank_of(N)
    assert list(got) == [g for g, _ in pairs]
    assert got == plain_commutators(pairs, C)


@pytest.mark.parametrize("N", [4, 5])
def test_commutators_general_path(monkeypatch, N):
    # C with an entry (r, c) whose (c, r) is absent is not symmetric: each
    # [Delta(F_i), C] takes the plain commutator of Delta(E_i)^T, one more
    # product per F_i, and the dict equals the plain one
    C, pairs = build_C_quantum(N), pair_generators(N)
    r, c = 0, 1
    assert (r, c) not in C.data and (c, r) not in C.data
    bad_C = C + SparseMatrix(C.nrows, C.ncols, {(r, c): ONE})
    calls = count_commutator_calls(monkeypatch)
    got = _commutators(coproduct_generators(N, 2), bad_C)
    assert list(got) == [g for g, _ in pairs]
    assert got == plain_commutators(pairs, bad_C)
    assert len(calls) == len(pairs) == 3 * rank_of(N)


@pytest.mark.parametrize("N", [3, 5])
def test_symbolic_cubic_matches_full_space(N):
    # over Q(i)(v), with C's denominator 1 + v^4 cleared before the block
    # products: the residuals are the full-space ones on the dominant
    # columns, with the right and a wrong middle coefficient
    d = 1 << (N // 2)
    ident = SparseMatrix.identity(d)
    C, gens = build_C_quantum(N), coproduct_generators(N, 2)
    C1, C2 = C.kron(ident), ident.kron(C)
    cols = dominant_columns(N, 3)
    for mid, p in ((MID, PARAM), (TWO, -ONE)):
        full = [a * a * b + (a * b * a).scale(mid) + b * a * a - b
                for a, b in ((C1, C2), (C2, C1))]
        res = _cubic_residuals(N, C, gens, p)
        got = [res["cubic C1;C2"], res["cubic C2;C1"]]
        assert got == [restrict_columns(m, cols) for m in full], mid
        assert residuals_zero(res) == (mid is MID)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_pair_generators_F_is_the_built_coproduct(N):
    # Delta(F_i) = Delta(E_i)^T on S (x) S against kh (x) F_i + F_i (x)
    # khi, over Q(i)(v) and at two points
    rep = spin_rep(N)
    for v0 in (None, *(random_point(random.Random(s)) for s in (11, 23))):
        pairs = dict(pair_generators(N, v0))
        for i in range(1, rep.k + 1):
            kh, khi, F = rep.Khalf(i), rep.Khalf(i, -1), rep.F(i)
            if v0 is not None:
                kh, khi, F = (m.specialize(v0) for m in (kh, khi, F))
            assert pairs[f"F{i}"] == _balanced_coproduct(F, kh, khi, 2), v0


def test_commutator_compares_before_it_subtracts():
    # the non-diagonal path returns the empty matrix when ab = ba and
    # ab - ba otherwise: both are the plain a*b - b*a
    for drop in (False, True):
        C = build_C_quantum(5) - _f_term(5) if drop else build_C_quantum(5)
        for g, m in pair_generators(5):
            if m.is_diagonal():
                continue
            got = linalg.commutator(m, C)
            assert got == m * C - C * m, (drop, g)
            assert got.is_zero() == (not drop or g not in ("E2", "F2"))
