import random
from functools import reduce
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from spindual.ring import GaussRat, I, ONE, TWO, V, QQ, P, q_power
from spindual.linalg import SparseMatrix, commutator, random_point
from spindual.intertwiner import cubic_residuals
from spindual.qgroup import (SpinRep, rank_of, simple_roots, root_pairing,
                             cartan_entry, verify_relations, dominant_columns,
                             column_weight, relation_residuals, spin_rep)
from spindual import qgroup
from spindual.combinat import is_dominant
from spindual.cli import main


def kron_all(mats) -> SparseMatrix:
    out = mats[0]
    for m in mats[1:]:
        out = out.kron(m)
    return out


def test_rank_and_roots():
    assert rank_of(7) == 3 and rank_of(6) == 3
    # short root only at the end for N odd
    assert root_pairing(7, 3, 3) == 2
    assert root_pairing(7, 1, 1) == 4
    assert all(root_pairing(6, i, i) == 4 for i in (1, 2, 3))


def test_cartan_matrices():
    # B_2: a_{12} = -1, a_{21} = -2
    assert cartan_entry(5, 1, 2) == -1
    assert cartan_entry(5, 2, 1) == -2
    # D_3: node 3 attaches to node 1 in our labeling (alpha_3 = e_2 + e_3)
    assert cartan_entry(6, 1, 3) == -1
    assert cartan_entry(6, 2, 3) == 0


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_defining_relations(N):
    assert verify_relations(N)


class DoubledE1(SpinRep):
    """A wrong spin representation: E_1 is doubled."""

    def E(self, i):
        e = super().E(i)
        return e.scale(TWO) if i == 1 else e


def test_relations_name_the_broken_one(monkeypatch, capsys):
    # every relation but [E1, F1] is homogeneous in E_1, so doubling E_1
    # breaks that one alone, and the CLI's FAIL line names it
    monkeypatch.setattr(qgroup, "spin_rep", DoubledE1)
    res = relation_residuals(4)
    assert [g for g, m in res.items() if not m.is_zero()] == ["[E1, F1]"]
    assert {"K1 E2 K1^-1", "Serre E 1,2", "Serre F 2,1"} <= set(res)
    assert not verify_relations(4)
    assert main(["verify", "relations", "--N", "4"]) == 1
    fail = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("FAIL")]
    assert len(fail) == 1 and "[nonzero: [E1, F1] at (" in fail[0]


def qbinom(m: int, s: int, base):
    """The q-binomial [m choose s] in `base`, from quantum factorials."""
    def factorial(n):
        out = base ** 0
        for j in range(2, n + 1):
            out = out * (base ** j - base ** -j) / (base - base.inv())
        return out
    return factorial(m) / (factorial(s) * factorial(m - s))


def product_relation_residuals(N: int) -> dict:
    """`relation_residuals` by matrix products throughout, with the Serre
    relations as q-binomial sums: the reference for the entrywise K X -
    q^e X K, the diagonal commutators and the nested q-commutators."""
    rep = qgroup.spin_rep(N)
    k, d = rep.k, rep.dim
    ident = SparseMatrix.identity(d)
    out = {}
    for i in range(1, k + 1):
        K, Ki = rep.K(i), rep.K(i, -1)
        out[f"K{i} K{i}^-1"] = K * Ki - ident
        out[f"K{i}^1/2 K{i}^1/2"] = rep.Khalf(i) * rep.Khalf(i) - K
        for j in range(1, k + 1):
            out[f"[K{i}, K{j}]"] = K * rep.K(j) - rep.K(j) * K
            pw = 2 * root_pairing(N, i, j)
            for name, X, e in (("E", rep.E(j), pw), ("F", rep.F(j), -pw)):
                out[f"K{i} {name}{j} K{i}^-1"] = (
                    K * X - (X * K).scale(q_power(e)))
            comm = rep.E(i) * rep.F(j) - rep.F(j) * rep.E(i)
            if i == j:
                qi = rep.qi(i)
                comm = comm - (K - Ki).scale((qi - qi.inv()).inv())
            out[f"[E{i}, F{j}]"] = comm
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i == j:
                continue
            m = 1 - cartan_entry(N, i, j)
            coefs = [qbinom(m, s, rep.qi(i)) for s in range(m + 1)]
            for name, X in (("E", rep.E), ("F", rep.F)):
                pows = [ident]
                for _ in range(m):
                    pows.append(pows[-1] * X(i))
                acc = SparseMatrix(d, d)
                for s, coef in enumerate(coefs):
                    piece = (pows[m - s] * X(j) * pows[s]).scale(coef)
                    acc = acc + (piece if s % 2 == 0 else -piece)
                out[f"Serre {name} {i},{j}"] = acc
    return out


# -- the nested q-commutators against the expanded relations -------------------

# entries of one ring, and q in it
RINGS = {"Scalar": (st.sampled_from([ONE, -ONE, TWO, V, QQ, I * V ** -3,
                                     V + TWO, ONE / (QQ + ONE)]), QQ),
         "GaussRat": (st.builds(GaussRat, st.integers(-2, 2),
                                st.integers(-1, 1)),
                      QQ.specialize(GaussRat(1, 1)))}


@st.composite
def relation_operands(draw):
    """(a, b, q, p, d): random sparse square a and b over one ring, its q,
    and nonzero scalars p and d of it."""
    entry, q = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    n = draw(st.integers(1, 4))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    a, b = (SparseMatrix(n, n, {rc: x for rc, x in draw(
        st.dictionaries(cells, entry, max_size=8)).items() if x})
        for _ in range(2))
    nonzero = entry.filter(bool)
    return a, b, q, draw(nonzero), draw(nonzero)


@settings(max_examples=50, deadline=None)
@given(relation_operands())
@example((SparseMatrix(2, 2, {(0, 1): V, (1, 1): QQ}),
          SparseMatrix(2, 2, {(0, 0): TWO, (1, 0): ONE}), QQ, -(QQ ** 2),
          ONE + V ** 4))
def test_nested_q_commutators_equal_the_expanded_relations(ops):
    # (ad X)^m Y by nested q-commutators against the q-binomial sum for
    # m = 1, 2, 3 and q_i = q, q^2, and `cubic_residuals` against a^2 b -
    # (p + p^-1) aba + b a^2 - b in eight products, with and without a
    # cleared denominator d: on random matrices, nonzero residuals included
    a, b, q, p, d = ops
    n = a.nrows
    for qi in (q, q ** 2):
        for m in (1, 2, 3):
            got = b
            for s in range(m):
                got = commutator(a, got, qi ** (m - 1 - 2 * s))
            want = SparseMatrix(n, n)
            for s in range(m + 1):
                piece = reduce(mul, [a] * (m - s) + [b] + [a] * s).scale(
                    qbinom(m, s, qi))
                want = want + (piece if s % 2 == 0 else -piece)
            assert got == want, (qi, m)
    mid = -(p + p.inv())
    aa, ab, ba, bb = a * a, a * b, b * a, b * b
    want = (a * (ab + ba.scale(mid)) + b * aa - b,
            b * (ba + ab.scale(mid)) + a * bb - a)
    assert cubic_residuals(a, b, p) == want
    assert cubic_residuals(a.scale(d), b.scale(d), p, d) == want


def same_residuals(got: dict, want: dict) -> bool:
    return got == want and list(got) == list(want)


@pytest.mark.parametrize("N", range(3, 11))
def test_relation_residuals_match_matrix_products(N):
    assert same_residuals(relation_residuals(N),
                          product_relation_residuals(N))


class MovedE1(SpinRep):
    """A wrong spin representation: E_1 has one more entry, on the
    diagonal, where K_1 E_1 K_1^-1 = q^(a_1, a_1) E_1 cannot hold."""

    def E(self, i):
        e = super().E(i)
        if i != 1:
            return e
        assert (0, 0) not in e.data
        return e + SparseMatrix(e.nrows, e.ncols, {(0, 0): ONE})


class ScaledE1(SpinRep):
    """E_1 with one entry scaled by v: every weight is unchanged."""

    def E(self, i):
        e = super().E(i)
        if i != 1:
            return e
        rc = min(e.data)
        return e + SparseMatrix(e.nrows, e.ncols,
                                {rc: e.data[rc] * V - e.data[rc]})


def test_weight_relation_negative_controls(monkeypatch):
    # an entry of E_1 at the wrong weight breaks K1 E1 K1^-1 there and
    # only there; one scaled by v keeps every weight, so that relation
    # holds and [E1, F1] fails instead; both dicts are the products' ones
    monkeypatch.setattr(qgroup, "spin_rep", MovedE1)
    res = relation_residuals(4)
    assert list(res["K1 E1 K1^-1"].data) == [(0, 0)]
    assert res["K1 E1 K1^-1"].data[(0, 0)] == (
        ONE - q_power(2 * root_pairing(4, 1, 1)))
    assert same_residuals(res, product_relation_residuals(4))
    monkeypatch.setattr(qgroup, "spin_rep", ScaledE1)
    res = relation_residuals(4)
    assert res["K1 E1 K1^-1"].is_zero() and res["K1 F1 K1^-1"].is_zero()
    assert not res["[E1, F1]"].is_zero()
    assert same_residuals(res, product_relation_residuals(4))


class OffDiagonalK1(SpinRep):
    """K_1^{+-1} with one more entry, off the diagonal, where the per-entry
    K X K^-1 does not apply."""

    def K(self, i, power=1):
        k = super().K(i, power)
        if i != 1:
            return k
        return k + SparseMatrix(k.nrows, k.ncols, {(0, 1): ONE})


def test_conjugation_residual_off_the_diagonal(monkeypatch):
    # a K that is not diagonal takes commutator's product path, as the
    # products
    monkeypatch.setattr(qgroup, "spin_rep", OffDiagonalK1)
    res = relation_residuals(4)
    assert not res["K1 E1 K1^-1"].is_zero()
    assert same_residuals(res, product_relation_residuals(4))


@pytest.mark.parametrize("N,n", [(3, 3), (4, 2), (5, 2), (6, 2)])
def test_coproduct_of_F_is_the_transpose(N, n):
    # Delta(F_i) = Delta(E_i)^T against the balanced coproduct of F_i, over
    # Q(i)(v), at two points and mod P
    rep = spin_rep(N)
    points = [(None, None)]
    for seed in (11, 23):
        v0 = random_point(random.Random(seed))
        points += [(v0, None), (v0.mod_p(P), P)]
    for v0, p in points:
        _, E = qgroup.coproduct_generators(N, n, v0, p)
        for i in range(1, rep.k + 1):
            kh, khi, F = rep.Khalf(i), rep.Khalf(i, -1), rep.F(i)
            if v0 is not None:
                kh, khi, F = (m.specialize(v0, p) for m in (kh, khi, F))
            want = qgroup._balanced_coproduct(F, kh, khi, n)
            assert E[i - 1].transpose() == want, (v0, i)


def test_khalf_squares_to_K():
    rep = SpinRep(7)
    for i in range(1, rep.k + 1):
        assert rep.Khalf(i) * rep.Khalf(i) == rep.K(i)
        assert rep.Khalf(i) * rep.Khalf(i, -1) == SparseMatrix.identity(rep.dim)


def test_qi_values():
    repB = SpinRep(5)
    assert repB.qi(1) == QQ ** 2 and repB.qi(2) == QQ
    repD = SpinRep(6)
    assert all(repD.qi(i) == QQ ** 2 for i in (1, 2, 3))


@pytest.mark.parametrize("N,n", [(3, 2), (3, 3), (4, 2), (5, 2)])
def test_coproduct_preserves_EF_commutator(N, n):
    # [delta(E_i), delta(F_i)] = (delta(K_i) - delta(K_i^-1)) / (q_i - q_i^-1)
    rep = SpinRep(N)
    K, E = qgroup.coproduct_generators(N, n)
    for i in range(1, rep.k + 1):
        dK, dE, dF = K[i - 1], E[i - 1], E[i - 1].transpose()
        qi = rep.qi(i)
        tgt = (dK - kron_all([rep.K(i, -1)] * n)).scale((qi - qi.inv()).inv())
        assert dE * dF - dF * dE == tgt


@pytest.mark.parametrize("n", [1, 3, 4])
def test_balanced_coproduct_is_the_sum_of_krons(n):
    # the one-factor-at-a-time recurrence against the defining sum
    # sum_j K^{1/2}^(x)j (x) x (x) K^{-1/2}^(x)(n-1-j)
    rep = SpinRep(4)
    kh, khi = rep.Khalf(2), rep.Khalf(2, -1)
    for x in (rep.E(2), rep.F(2)):
        terms = [kron_all([kh] * j + [x] + [khi] * (n - 1 - j))
                 for j in range(n)]
        want = terms[0]
        for t in terms[1:]:
            want = want + t
        assert qgroup._balanced_coproduct(x, kh, khi, n) == want


def test_transpose_antiautomorphism():
    # E_i^T = F_i in the spin representation
    rep = SpinRep(6)
    for i in range(1, rep.k + 1):
        assert rep.E(i).transpose() == rep.F(i)
        assert rep.K(i).transpose() == rep.K(i)


@pytest.mark.parametrize("N,count", [(5, 13), (6, 80), (7, 40), (8, 242)])
def test_dominant_columns(N, count):
    # {column: weight} in ascending column order, each weight the one
    # column_weight gives
    cols = dominant_columns(N, 3)
    assert len(cols) == count and list(cols) == sorted(cols)
    assert all(w == column_weight(N, 3, j) for j, w in cols.items())


@pytest.mark.parametrize("N,n", [(3, 4), (4, 3), (6, 3), (8, 3), (3, 10)])
def test_dominant_columns_match_enumeration(N, n):
    # grouped by the weight of the first n - 1 factors, against the weight
    # of every column: the same dict, in the same key order
    d = 1 << rank_of(N)
    want = {j: w for j in range(d ** n)
            if is_dominant(w := column_weight(N, n, j), N)}
    assert list(dominant_columns(N, n).items()) == list(want.items())


@pytest.mark.parametrize("N", range(3, 10))
def test_coproduct_of_K_is_v_to_twice_the_weight(N):
    # what the dominant block of the cubic check rests on: Delta(K_i) is
    # diagonal with v^{2 (w.alpha_i)} at column j, w = column_weight(N, n, j)
    roots = simple_roots(N)
    for n in (1, 2, 3):
        K, _ = qgroup.coproduct_generators(N, n)
        for i, a in enumerate(roots):
            dK = K[i]
            want = {(j, j): q_power(2 * sum(
                        x * y for x, y in zip(column_weight(N, n, j), a)))
                    for j in range(dK.nrows)}
            assert dK.data == want, (N, n, i + 1)
