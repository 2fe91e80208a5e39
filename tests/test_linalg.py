import random

from spindual.ring import GaussRat, ONE, TWO, QQ, sc
from spindual.linalg import (SparseMatrix, EchelonBasis, matrix_rank,
                             nullspace, algebra_closure_dim,
                             commutant_dimension, verify_spectrum, kron_all,
                             embed_factor, random_point)


def swap2():
    return SparseMatrix(2, 2, {(0, 1): ONE, (1, 0): ONE})


def test_mul_and_kron_shapes():
    a = swap2()
    ident = SparseMatrix.identity(2)
    assert a * a == ident
    k = a.kron(a)
    assert k.nrows == 4
    # leftmost factor is the slow index: (a (x) I) swaps the high bit
    ai = a.kron(ident)
    v = {0: ONE}   # |00>
    assert ai.apply(v) == {2: ONE}


def test_embed_factor():
    a = swap2()
    m = embed_factor(a, 1, 3)
    v = {0b000: ONE}
    assert m.apply(v) == {0b010: ONE}


def test_rank_and_nullspace():
    m = SparseMatrix(2, 3, {(0, 0): ONE, (0, 1): ONE, (1, 2): ONE})
    assert matrix_rank(m) == 2
    ns = nullspace(m)
    assert len(ns) == 1
    assert m.apply(ns[0]) == {}


def test_echelon_detects_dependence():
    b = EchelonBasis()
    assert b.insert({0: ONE, 1: TWO})
    assert b.insert({1: ONE})
    assert not b.insert({0: TWO, 1: ONE})  # combination of the two


def test_closure_dim_full_matrix_algebra():
    a = swap2()
    d = SparseMatrix.diagonal([QQ, QQ.inv()])
    assert algebra_closure_dim([a, d], 2) == 4
    assert commutant_dimension([a, d], 2) == 1


def test_commutant_of_diagonal_only():
    d = SparseMatrix.diagonal([QQ, QQ, QQ.inv()])
    # commutant of a single diagonal with a repeated eigenvalue: 2x2 block + 1
    assert commutant_dimension([d], 3) == 5


def test_commutant_stored_zero_joins_missing_diagonal():
    # a zero kept on the diagonal is the same eigenvalue as an absent entry
    for zero, one in ((sc(0), ONE), (GaussRat(0), GaussRat(1))):
        d = SparseMatrix(3, 3, {(0, 0): zero, (2, 2): one})
        assert commutant_dimension([d], 3) == 5


def test_verify_spectrum():
    a = swap2()
    rep = verify_spectrum(a, [ONE, -ONE])
    assert rep.annihilates and rep.complete
    assert rep.multiplicities == {ONE: 1, -ONE: 1}
    bad = verify_spectrum(a, [ONE, TWO])
    assert not bad.annihilates


def test_specialize_matrix():
    d = SparseMatrix.diagonal([QQ, QQ.inv()])
    pt = GaussRat(2)
    s = d.specialize(pt)
    assert s.data[(0, 0)] == GaussRat(4)


def test_random_point_respects_seed():
    assert random_point(random.Random(5)) == random_point(random.Random(5))
