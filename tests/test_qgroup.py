from itertools import product

import pytest

from spindual.ring import ONE, TWO, QQ, q_power
from spindual.linalg import SparseMatrix, kron_all
from spindual.combinat import is_dominant
from spindual.qgroup import (SpinRep, rank_of, simple_roots, root_pairing,
                             cartan_entry, verify_relations, dominant_columns,
                             relation_residuals)
from spindual import qgroup
from spindual.cli import main


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
    gens = qgroup.coproduct_generators(N, n)
    for i in range(1, rep.k + 1):
        dK, dE, dF = gens[3 * i - 3:3 * i]
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
    # x(m) has doubled weight (1 - 2 m_j)_j: E_i empties slot i, raising
    # coordinate i; a basis vector of S^(x)3 has the sum of its factors'
    k = rank_of(N)
    weights = [tuple(1 - 2 * ((m >> (k - j)) & 1) for j in range(1, k + 1))
               for m in range(1 << k)]
    want = [j for j, ws in enumerate(product(weights, repeat=3))
            if is_dominant(tuple(map(sum, zip(*ws))), N)]
    cols = dominant_columns(N, 3)
    assert cols == want and len(cols) == count
