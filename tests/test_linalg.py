import operator
import random

import pytest
from hypothesis import example, given, strategies as st

from spindual.ring import (GaussRat, ONE, TWO, I, V, QQ, P, LP_ONE, Q, sc,
                           PoleError, Scalar, GR_ONE)
from spindual.linalg import (SparseMatrix, EchelonBasis, commutator,
                             matrix_rank,
                             nullspace, algebra_closure_dim,
                             commutant_dimension, verify_spectrum,
                             embed, random_point, residuals_zero,
                             first_nonzero, certify_blocks, vstack,
                             highest_weight_restriction, SPECTRUM_POINT)
from spindual.intertwiner import (build_C_quantum, build_C_classical,
                                  quantum_spectrum_candidates)
from spindual import cli, coideal, linalg, qgroup


def apply(m: SparseMatrix, vec: dict) -> dict:
    """m times the sparse column vector {index: entry}."""
    col = SparseMatrix(m.ncols, 1, {(i, 0): x for i, x in vec.items()})
    return {r: x for (r, _), x in (m * col).data.items()}


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
    assert apply(ai, v) == {2: ONE}


def test_rank_and_nullspace():
    m = SparseMatrix(2, 3, {(0, 0): ONE, (0, 1): ONE, (1, 2): ONE})
    assert matrix_rank(m) == 2
    ns = nullspace(m)
    assert len(ns) == 1
    assert apply(m, ns[0]) == {}


def test_rank_stops_inserting_at_full_column_rank(monkeypatch):
    # once the rank is the column count, the later rows are not inserted:
    # they cannot raise it, and every column is already a pivot
    inserted = []
    insert = EchelonBasis.insert
    monkeypatch.setattr(EchelonBasis, "insert", lambda self, row: (
        inserted.append(row), insert(self, row))[1])
    m = SparseMatrix(4, 2, {(0, 0): 1, (1, 1): 2, (2, 0): 3, (3, 1): 1}, P)
    assert matrix_rank(m) == 2 and len(inserted) == 2
    assert nullspace(m) == [] and len(inserted) == 4


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


def test_specialize_drops_vanishing_entries():
    m = SparseMatrix(2, 2, {(0, 0): V - TWO, (1, 1): V})
    s = m.specialize(GaussRat(2))
    assert s.data == {(1, 1): GaussRat(2)}
    assert matrix_rank(s) == 1
    sp = m.specialize(GaussRat(2).mod_p(P), P)
    assert sp.data == {(1, 1): 2} and matrix_rank(sp) == 1


def _reduced_coproduct(N, n, v0):
    vp = v0.mod_p(P)
    _, E = qgroup.coproduct_generators(N, n, vp, P)
    return (vp, E, qgroup.dominant_columns(N, n),
            [e.transpose() for e in E])


def _generators(r):
    return r.B + ([r.F] if r.F is not None else [])


@pytest.mark.parametrize("N,n", [(3, 4), (4, 3), (5, 3)])
def test_hw_closure_matches_full_space_closure(N, n):
    # the F_p closure on the highest-weight space against the Q(i) closure
    # on all of S^(x)n at the same point
    for seed in (11, 23):
        gens = _generators(coideal.duality_rep(N, n, cli._point(seed)))
        full = algebra_closure_dim(gens, (1 << qgroup.rank_of(N)) ** n)
        assert cli.fft_counts(N, n, seed)[0] == full, (N, n, seed)


def test_hw_restriction_rejects_non_invariant_generators():
    # Delta(F_1) lowers weights, so it maps highest-weight vectors out of
    # the kernel of Delta(E_1): no count may come back
    N, n = 3, 3
    vp, raising, weights, lowering = _reduced_coproduct(N, n, cli._point(11))
    gens = coideal.duality_rep(N, n, vp, P).B
    blocks, W = highest_weight_restriction(gens, raising, weights)
    assert [(w, len(cols)) for w, cols, _ in blocks] == [((3,), 1), ((1,), 2)]
    assert all(len(ms) == len(gens) for _, _, ms in blocks)
    # W holds the kernel vectors, one column per free column of a block
    assert W.ncols == 3 and all((e * W).is_zero() for e in raising)
    with pytest.raises(ArithmeticError, match="does not preserve"):
        highest_weight_restriction(gens + lowering[:1], raising, weights)


def test_hw_restriction_rejects_a_relabelled_column():
    # move one column r of weight (2,) into the block of (0,): the kernel
    # left on the other columns of (2,) is a proper subspace of the
    # irreducible block M_(2,), so some B_i maps it onto column r, which
    # the map now gives another weight
    N, n = 3, 4
    vp, raising, weights, _ = _reduced_coproduct(N, n, cli._point(11))
    gens = coideal.duality_rep(N, n, vp, P).B
    highest_weight_restriction(gens, raising, weights)
    r = min(c for c, w in weights.items() if w == (2,))
    bad = dict(weights)
    bad[r] = (0,)
    with pytest.raises(ArithmeticError,
                       match=rf"generator \d maps the highest-weight vector "
                             rf"at column \d+ to column {r}, not of its "
                             rf"weight \(2,\)"):
        highest_weight_restriction(gens, raising, bad)


BLOCKS = {
    (3, 4): [((4,), 1), ((2,), 3), ((0,), 2)],
    (4, 3): [((3, 3), 1), ((3, 1), 3), ((3, -1), 3), ((3, -3), 1),
             ((1, 1), 5), ((1, -1), 5)],
    (5, 3): [((3, 3), 1), ((3, 1), 2), ((1, 1), 3)],
    (4, 4): [((4, 4), 1), ((4, 2), 4), ((4, 0), 6), ((4, -2), 4),
             ((4, -4), 1), ((2, 2), 9), ((2, 0), 16), ((2, -2), 9),
             ((0, 0), 10)],
}


@pytest.mark.parametrize("N,n", sorted(BLOCKS))
def test_hw_restriction_blocks(N, n):
    # the (doubled weight, m_lambda) of each block, highest weight first,
    # one kernel per dominant weight
    for seed in (11, 23):
        _, _, found = _blocks(N, n, seed)
        assert [(w, len(cols)) for w, cols, _ in found] == BLOCKS[(N, n)]


@pytest.mark.parametrize("N,n", [(3, 4), (4, 3), (5, 3)])
def test_reduced_operators_match_specialized_symbolic(N, n):
    # C_i, F and Delta(K_i), Delta(E_i) specialized on S and S (x) S and
    # then tensored (mod P, and over Q(i)), against the symbolic
    # operators on S^(x)n specialized entry by entry
    duality = _generators(coideal.duality_rep(N, n))
    K, E = qgroup.coproduct_generators(N, n)
    for seed in (11, 23):
        v0 = cli._point(seed)
        for point, p in ((v0.mod_p(P), P), (v0, None)):
            assert (_generators(coideal.duality_rep(N, n, point, p))
                    == [g.specialize(point, p) for g in duality]), (N, n, seed)
            assert (qgroup.coproduct_generators(N, n, point, p)
                    == tuple([g.specialize(point, p) for g in ms]
                             for ms in (K, E))), (N, n, seed)


def _blocks(N, n, seed=11):
    """The labelled highest-weight blocks `cli.fft_counts` certifies."""
    vp = cli._point(seed).mod_p(P)
    gens = _generators(coideal.duality_rep(N, n, vp, P))
    _, E = qgroup.coproduct_generators(N, n, vp, P)
    return gens, E, highest_weight_restriction(
        gens, E, qgroup.dominant_columns(N, n))[0]


def test_certify_blocks_separates_the_pairs():
    # (4,3): blocks 1, 1, 3, 3, 5, 5, each pair told apart by the trace of F
    _, _, found = _blocks(4, 3)
    blocks = [(str(cols[0]), len(cols), ms) for _, cols, ms in found]
    closures, seps = certify_blocks(blocks)
    assert closures == [m * m for _, m, _ in blocks]
    assert sorted(m for _, m, _ in blocks) == [1, 1, 3, 3, 5, 5]
    assert len(seps) == 3
    assert all(word == (2,) and tb == P - ta for _, _, word, (ta, tb) in seps)


def _fft_sizes():
    """Every (N, n) with n >= 2 that `cli._check_config` accepts for fft."""
    out = []
    for N in range(3, cli.MAX_OPERATOR_BITS + 2):
        for n in range(2, cli.MAX_OPERATOR_BITS // (N // 2) + 1):
            try:
                cli._check_config({"fft": "spec"}, N, n)
            except ValueError:
                continue
            out.append((N, n))
    return out


def test_trace_words_separate_every_accepted_pair():
    # at every accepted size and both seeds of the CLI tests, each pair of
    # equal-size blocks has a word of up to WORD_LENGTH generators with
    # different traces on the two, so certify_blocks never raises for an
    # unseparated pair there (the closures are not run)
    sizes = _fft_sizes()
    assert len(sizes) == 29 and (3, 8) in sizes and (13, 2) in sizes
    pairs = 0
    for N, n in sizes:
        for seed in (11, 23):
            _, _, found = _blocks(N, n, seed)
            for a, (wa, cols, ga) in enumerate(found):
                for wb, cb, gb in found[a + 1:]:
                    if len(cb) != len(cols):
                        continue
                    pairs += 1
                    assert any(ta != tb for (_, ta), (_, tb) in zip(
                        linalg._word_traces(ga),
                        linalg._word_traces(gb))), (N, n, seed, wa, wb)
    assert pairs == 262


def test_certify_blocks_rejects_an_unseparated_pair(monkeypatch):
    # with no words to try, the first equal-size pair of (4,3) is not
    # told apart: a failure naming both blocks, never a pass
    monkeypatch.setattr(linalg, "WORD_LENGTH", 0)
    _, _, found = _blocks(4, 3)
    blocks = [(str(cols[0]), len(cols), ms) for _, cols, ms in found]
    a, b = next((la, lb) for i, (la, m, _) in enumerate(blocks)
                for lb, mb, _ in blocks[i + 1:] if mb == m)
    with pytest.raises(ArithmeticError,
                       match=rf"blocks {a} and {b} are not certified "
                             rf"non-isomorphic: no word of up to 0 "):
        certify_blocks(blocks)


def test_certify_blocks_rejects_a_duplicated_block():
    # a module summed with itself: every word has one trace on both copies
    _, _, found = _blocks(4, 3)
    _, cols, ms = max(found, key=lambda b: len(b[1]))
    m = len(cols)
    with pytest.raises(ArithmeticError,
                       match=r"blocks a and b are not certified "
                             r"non-isomorphic: no word of up to 3 generators "
                             r"has different traces on them"):
        certify_blocks([("a", m, ms), ("b", m, ms)])


def test_hw_restriction_rejects_an_entry_between_blocks():
    # add to B_1 the map w_a -> w_b from a highest-weight vector of weight
    # (2,) to the one of (4,), the basis vector of column 0 (zero on every
    # other w_f): it keeps W, couples two weights
    gens, raising, found = _blocks(3, 4)
    assert found[0][:2] == ((4,), [0])
    fa = found[1][1][0]
    g = gens[0]
    bad = g + SparseMatrix(g.nrows, g.ncols, {(0, fa): 1}, P)
    weights = qgroup.dominant_columns(3, 4)
    highest_weight_restriction([g], raising, weights)
    with pytest.raises(ArithmeticError,
                       match=rf"generator 0 maps the highest-weight vector at "
                             rf"column {fa} to column 0, not of its weight "
                             rf"\(2,\)"):
        highest_weight_restriction([bad], raising, weights)


def test_certify_blocks_dropped_generator_falls_short():
    # without B_2 the B_1 and B_3 of (3,4) commute: the block of size 3
    # spans at most 3 < 9 dimensions, and no pair is certified
    _, _, found = _blocks(3, 4)
    blocks = [(str(cols[0]), len(cols), [ms[0], ms[2]])
              for _, cols, ms in found]
    closures, seps = certify_blocks(blocks)
    short = [(m, c) for (_, m, _), c in zip(blocks, closures) if c < m * m]
    assert short and all(c <= m for m, c in short) and seps == []


def test_random_point_respects_seed():
    assert random_point(random.Random(5)) == random_point(random.Random(5))


@pytest.mark.parametrize("left,right", [(1, 1), (1, 4), (4, 1), (2, 3),
                                        (2, 2)])
def test_embed_matches_kron_and_reuses_entries(left, right):
    m = SparseMatrix(2, 3, {(0, 0): V, (0, 2): -TWO, (1, 1): QQ + ONE})
    got = embed(m, left, right)
    want = SparseMatrix.identity(left).kron(m).kron(
        SparseMatrix.identity(right))
    assert got == want
    # no scalar products: every entry is one of m's own objects
    ids = {id(x) for x in m.data.values()}
    assert all(id(x) in ids for x in got.data.values())


def test_residuals_zero_on_matrices_and_ints():
    zero = SparseMatrix(2, 2)
    bad = SparseMatrix(2, 2, {(1, 0): ONE, (0, 1): TWO})
    assert residuals_zero({"a": zero, "n": 0}) and residuals_zero({})
    assert first_nonzero({"a": zero, "b": bad, "n": 1}) == ("b", (0, 1))
    assert first_nonzero({"a": zero, "n": -1, "b": bad}) == ("n", None)
    assert not residuals_zero({"a": zero, "n": 1})


def test_sparse_matrix_eq_foreign_operand():
    ident = SparseMatrix.identity(2)
    assert ident.__eq__(None) is NotImplemented
    assert not (ident == None) and ident != "I"    # noqa: E711


def _quantum(N):
    """The quantum candidate eigenvalues, without their multiplicities."""
    return [v for v, _ in quantum_spectrum_candidates(N)]


def _classical(N):
    """C at q = 1 and its candidate pairs, as `spectrum_of_C` takes them:
    the quantum ones at v = 1, as constant Scalars."""
    return build_C_classical(N), [
        (Scalar.from_gauss(v.specialize(GR_ONE)), m)
        for v, m in quantum_spectrum_candidates(N)]


def _symbolic_mults(m, candidates):
    ident = SparseMatrix.identity(m.nrows)
    return {c: m.nrows - matrix_rank(m - ident.scale(c)) for c in candidates}


@pytest.mark.parametrize("N,classical", [(3, False), (4, False), (5, False),
                                         (3, True), (4, True), (5, True),
                                         (6, True)])
def test_spectrum_counts_mod_p_match_symbolic_rank(N, classical):
    if classical:
        C, pairs = _classical(N)
    else:
        C, pairs = build_C_quantum(N), quantum_spectrum_candidates(N)
    cands = [v for v, _ in pairs]
    rep = verify_spectrum(C, cands)
    assert rep.annihilates and rep.complete
    assert list(rep.multiplicities) == cands
    assert rep.multiplicities == dict(pairs) == _symbolic_mults(C, cands)


def test_verify_spectrum_negative_controls():
    # a Jordan block is not diagonalizable: (J - 1) != 0
    jordan = SparseMatrix(2, 2, {(0, 0): ONE, (0, 1): ONE, (1, 1): ONE})
    rep = verify_spectrum(jordan, [ONE])
    assert not rep.annihilates and not rep.complete
    # a wrong candidate list: the last quantum eigenvalue with its sign flipped
    cands = _quantum(5)
    rep = verify_spectrum(build_C_quantum(5), cands[:-1] + [-cands[-1]])
    assert not rep.annihilates and not rep.complete
    # two candidates with one image at the point, and a candidate with a
    # pole there: no count can be certified
    at = f"at v = {SPECTRUM_POINT} mod {P}"
    with pytest.raises(ArithmeticError, match="same image " + at):
        verify_spectrum(swap2(), [ONE, sc(P + 1)])
    with pytest.raises(ArithmeticError, match=at):
        verify_spectrum(swap2(), [ONE, ONE / (V - TWO)])


# -- the F_p paths against the Q(i) ones --------------------------------------

@pytest.mark.parametrize("N,n,want", [(3, 3, 5), (4, 2, 10), (5, 2, 3),
                                      (4, 3, 70)])
def test_commutant_mod_p_matches_gaussian(N, n, want):
    # the commutant of the coproduct image at v0, over Q(i) and over F_P,
    # is sum m^2: the independent solver's check of what `fft` bounds by
    # its lowering span
    K, E = qgroup.coproduct_generators(N, n)
    gens = K + E + [e.transpose() for e in E]
    dim = (1 << qgroup.rank_of(N)) ** n
    for seed in (11, 23):
        v0 = cli._point(seed)
        vp = v0.mod_p(P)
        exact = commutant_dimension([g.specialize(v0) for g in gens], dim)
        mod_p = commutant_dimension([g.specialize(vp, P) for g in gens], dim)
        assert exact == mod_p == want, (N, n, seed)


@pytest.mark.parametrize("N,n,want", [(3, 3, 5), (4, 2, 10), (5, 2, 3),
                                      (4, 3, 70), (5, 3, 14)])
def test_commutant_of_the_borel_half(N, n, want):
    # the commutant of the Delta(K_i) and Delta(E_i) only, counted by the
    # independent solver, reaches the full commutant and sum m^2 over F_P
    # (and over Q(i) at the three smallest sizes), while the Delta(K_i)
    # alone leave it above sum m^2
    for seed in (11, 23):
        v0 = cli._point(seed)
        K, E = qgroup.coproduct_generators(N, n, v0.mod_p(P), P)
        dim = K[0].nrows
        borel = commutant_dimension(K + E, dim)
        full = K + E + [e.transpose() for e in E]
        assert borel == commutant_dimension(full, dim) == want, (N, n, seed)
        assert commutant_dimension(K, dim) > want, (N, n, seed)
        if dim <= 16:
            K, E = qgroup.coproduct_generators(N, n, v0)
            assert commutant_dimension(K + E, dim) == want


def test_closure_of_a_1x1_block_takes_no_product(monkeypatch):
    # the identity fills a 1 x 1 block: no generator is inserted and no
    # product formed; on larger blocks no product g 1 = g is formed
    def no_product(a, b):
        raise AssertionError("a product was formed")
    monkeypatch.setattr(SparseMatrix, "__mul__", no_product)
    one = SparseMatrix(1, 1, {(0, 0): 5}, P)
    assert algebra_closure_dim([one, one], 1) == 1
    monkeypatch.undo()
    products = []
    mul = SparseMatrix.__mul__
    monkeypatch.setattr(SparseMatrix, "__mul__", lambda a, b: products.append(
        b.data) or mul(a, b))
    ident = SparseMatrix.identity(2, 1).data
    swap = SparseMatrix(2, 2, {(0, 1): 1, (1, 0): 1}, P)
    diag = SparseMatrix(2, 2, {(0, 0): 2, (1, 1): 3}, P)
    assert algebra_closure_dim([swap, diag], 2) == 4
    assert ident not in products


small_matrices = st.integers(1, 6).flatmap(lambda c: st.lists(
    st.lists(st.integers(-3, 3), min_size=c, max_size=c),
    min_size=1, max_size=6))


@given(small_matrices)
@example([[2, 1, 0, 0], [0, 0, 1, 0], [2, 1, 1, 1]])
def test_rank_mod_p_matches_gaussian_rank(rows):
    # every minor is at most 3^6 * 6! < P in absolute value, so no nonzero
    # minor vanishes mod P and the two ranks agree.  In the example, row 3
    # minus row 1 leaves -P at column 1 (1 - 2 * (P + 1)/2), zero only mod
    # P, ahead of the pivot column 2 of row 2
    ints = {(r, c): x for r, row in enumerate(rows)
            for c, x in enumerate(row) if x}
    nr, nc = len(rows), len(rows[0])
    exact = SparseMatrix(nr, nc, {rc: GaussRat(x) for rc, x in ints.items()})
    assert matrix_rank(SparseMatrix(nr, nc, ints, P)) == matrix_rank(exact)


# -- the commutator, one product per entry for a diagonal a ---------------------

ENTRIES = {
    "Scalar": st.sampled_from([ONE, -ONE, TWO, V, QQ, I * V ** -3, V + TWO,
                               ONE / (QQ + ONE), QQ / (ONE + QQ ** 2)]),
    "GaussRat": st.builds(GaussRat, st.integers(-2, 2),
                          st.sampled_from([0, 1, Q(1, 3)])),
    "int mod P": st.sampled_from([1, 2, P - 1]) | st.integers(0, P - 1),
}


@st.composite
def commutator_operands(draw):
    kind = draw(st.sampled_from(sorted(ENTRIES)))
    entry, p = ENTRIES[kind], P if kind == "int mod P" else None
    n = draw(st.integers(1, 4))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if draw(st.booleans()):
        # few distinct values, so that a_r = c a_c happens
        diag = draw(st.lists(st.none() | entry, min_size=n, max_size=n))
        a = {(r, r): x for r, x in enumerate(diag) if x}
    else:
        a = draw(st.dictionaries(cells, entry, max_size=6))
    b = draw(st.dictionaries(cells, entry, max_size=8))
    return (SparseMatrix(n, n, {rc: x for rc, x in a.items() if x}, p),
            SparseMatrix(n, n, {rc: x for rc, x in b.items() if x}, p),
            draw(st.none() | entry))


@given(commutator_operands())
@example((SparseMatrix.diagonal([V, V, QQ]),
          SparseMatrix(3, 3, {(0, 1): ONE / (QQ + ONE), (1, 2): V,
                              (2, 0): TWO}), None))
@example((SparseMatrix(2, 2, {(1, 1): P - 1}, P),
          SparseMatrix(2, 2, {(0, 1): 2, (1, 0): P - 1}, P), None))
# a_0 = c a_1 for a unit c and for a GaussRat c
@example((SparseMatrix.diagonal([QQ, V, ONE]),
          SparseMatrix(3, 3, {(0, 1): TWO, (1, 0): V, (2, 1): ONE}), V))
@example((SparseMatrix.diagonal([GaussRat(2), GaussRat(1), GaussRat(0, 1)]),
          SparseMatrix(3, 3, {(0, 1): GaussRat(3), (1, 2): GaussRat(1, 1),
                              (2, 2): GaussRat(5)}), GaussRat(2)))
# c = -1 mod P against entries that negate mod P: a b = -b a
@example((SparseMatrix(2, 2, {(0, 0): 1, (1, 1): P - 1}, P),
          SparseMatrix(2, 2, {(0, 1): 2, (1, 0): P - 1}, P), P - 1))
def test_commutator_is_ab_minus_ba(abc):
    a, b, c = abc
    got = commutator(a, b, c)
    assert got == a * b - (b * a if c is None else (b * a).scale(c))
    assert all(x for x in got.entries())
    assert all((x.den is LP_ONE) == (x.den == LP_ONE)
               for x in got.entries() if hasattr(x, "den"))


class CountedInt(int):
    """An int that counts the products it is a factor of."""
    products = 0

    def __mul__(self, other):
        CountedInt.products += 1
        return int(self) * other

    __rmul__ = __mul__


def test_diagonal_commutator_compares_c_a_s_as_a_residue(monkeypatch):
    # a_r = c a_s mod P, but not as ints: the entry takes no product
    monkeypatch.setattr(CountedInt, "products", 0)
    a = SparseMatrix(2, 2, {(0, 0): 1, (1, 1): P - 1}, P)
    b = SparseMatrix(2, 2, {(0, 1): CountedInt(2), (1, 0): CountedInt(3)}, P)
    assert commutator(a, b, P - 1).is_zero()
    assert CountedInt.products == 0


def test_commutator_shapes():
    a = SparseMatrix.diagonal([V, QQ])
    assert commutator(a, SparseMatrix.identity(2)).is_zero()
    with pytest.raises(ValueError):
        commutator(a, SparseMatrix.identity(3))


# -- F_p matrices carry their prime ---------------------------------------------

def test_operations_keep_the_prime_and_reduce():
    # every new matrix carries P and stores residues in [1, P): P - 1 + 1
    # at (0, 1) of a + b is dropped as zero, and -a stores P - 1 for 1
    a = SparseMatrix(2, 2, {(0, 0): 1, (0, 1): P - 1, (1, 1): 2}, P)
    b = SparseMatrix(2, 2, {(0, 1): 1, (1, 0): P - 2}, P)
    assert (a + b).data == {(0, 0): 1, (1, 0): P - 2, (1, 1): 2}
    assert (-a).data == {(0, 0): P - 1, (0, 1): 1, (1, 1): P - 2}
    for m in (a + b, a - b, -a, a * b, a.kron(b), a.scale(P + 3),
              a.transpose(), commutator(a, b), commutator(b, a),
              commutator(SparseMatrix(2, 2, {(0, 0): 1, (1, 1): 3}, P), b),
              embed(a, 2, 1), vstack([a, b]), SparseMatrix.identity(2, 1, P)):
        assert m.p == P and all(0 < x < P for x in m.entries()), m


@pytest.mark.parametrize("op", [operator.add, operator.mul, SparseMatrix.kron,
                                commutator])
def test_matrices_of_different_rings_do_not_mix(op):
    # P against another prime, and against None (exact ints), either way
    # round and with a diagonal left operand (commutator's one-product path)
    a = SparseMatrix(2, 2, {(0, 1): 3, (1, 1): 2}, P)
    d = SparseMatrix(2, 2, {(0, 0): 1, (1, 1): 2}, P)
    for p in (13, None):
        b = SparseMatrix(2, 2, {(1, 0): 1, (1, 1): 5}, p)
        for x, y in ((a, b), (b, a), (d, b)):
            with pytest.raises(ValueError, match="different rings"):
                op(x, y)


@pytest.mark.parametrize("N,n", [(3, 4), (4, 3)])
def test_builders_carry_the_prime_of_their_point(N, n):
    # at (v0 mod P, P) every operator carries P with entries in [0, P); at
    # the Gaussian-rational point v0 and symbolically, None
    for seed in (11, 23):
        v0 = cli._point(seed)
        for point, p in ((v0.mod_p(P), P), (v0, None), (None, None)):
            r = coideal.duality_rep(N, n, point, p)
            K, E = qgroup.coproduct_generators(N, n, point, p)
            mats = (K + E + [e.transpose() for e in E] + r.B
                    + ([r.F] if r.F is not None else [])
                    + [build_C_quantum(N) if point is None
                       else build_C_quantum(N, point, p)])
            assert len(mats) == 3 * (N // 2) + n - 1 + (N + 1) % 2 + 1
            for m in mats:
                assert m.p == p, (N, n, seed, p)
                if p is not None:
                    assert all(0 <= x < P for x in m.entries()), (N, n, seed)


def test_closure_without_generators_is_the_identity():
    for dim in (1, 2, 5):
        assert algebra_closure_dim([], dim) == 1


# -- the spectrum block by block against the whole matrix -----------------------

def whole_spectrum(m, candidates):
    """`verify_spectrum` on the whole matrix: the full product over every
    candidate, and each count as dim - rank(m - c) mod P."""
    n = m.nrows
    ident = SparseMatrix.identity(n)
    prod = ident
    for c in candidates:
        prod = prod * (m - ident.scale(c))
    pt = f"{SPECTRUM_POINT} mod {P}"
    try:
        mp = m.specialize(SPECTRUM_POINT, P)
        images = [c.specialize(SPECTRUM_POINT, P) for c in candidates]
    except PoleError as exc:
        raise ArithmeticError(f"spectrum counts at v = {pt}: {exc}") from exc
    seen = {}
    for c, x in zip(candidates, images):
        if x in seen:
            raise ArithmeticError(f"spectrum candidates {seen[x]!r} and "
                                  f"{c!r} have the same image at v = {pt}")
        seen[x] = c
    mults = {c: n - matrix_rank(mp - SparseMatrix.identity(n, x, P))
             for c, x in zip(candidates, images)}
    return prod.is_zero(), mults, n


def assert_same_spectrum(m, candidates):
    rep = verify_spectrum(m, candidates)
    annihilates, mults, dim = whole_spectrum(m, candidates)
    assert rep.annihilates == annihilates
    assert list(rep.multiplicities.items()) == list(mults.items())
    assert rep.dim == dim == sum(rep.blocks)
    return rep


@pytest.mark.parametrize("N", range(3, 8))
def test_block_spectrum_matches_whole_matrix(N):
    for C, cands in ((build_C_quantum(N), _quantum(N)),
                     (_classical(N)[0], [v for v, _ in _classical(N)[1]])):
        rep = assert_same_spectrum(C, cands)
        assert rep.annihilates and rep.complete
        assert max(rep.blocks) < C.nrows


def test_block_spectrum_quantum_N6_blocks():
    rep = verify_spectrum(build_C_quantum(6), _quantum(6))
    assert len(rep.blocks) == 27 and max(rep.blocks) == 8


def test_block_spectrum_matches_whole_matrix_on_duality_generators():
    r = coideal.duality_rep(5, 3)
    for B in r.B:
        rep = assert_same_spectrum(B, _quantum(5))
        assert rep.complete


def test_block_spectrum_negative_controls_match_whole_matrix():
    C, cands = build_C_quantum(5), _quantum(5)
    # a dropped candidate, a sign-flipped one, and an entry joining the
    # blocks of the highest and the lowest weight vector into one on which
    # no product of the candidates vanishes
    blocks = verify_spectrum(C, cands).blocks
    r, c = 0, C.nrows - 1
    assert (r, c) not in C.data and (c, r) not in C.data
    joined = C + SparseMatrix(C.nrows, C.ncols, {(r, c): ONE})
    assert len(verify_spectrum(joined, cands).blocks) == len(blocks) - 1
    for m, cs in ((C, cands[:-1]), (C, cands[:-1] + [-cands[-1]]),
                  (joined, cands)):
        rep = assert_same_spectrum(m, cs)
        assert not rep.annihilates and not rep.complete


@pytest.mark.parametrize("cands", [[ONE, sc(P + 1)], [ONE, ONE / (V - TWO)],
                                   [ONE / (V - TWO), ONE, ONE]])
def test_block_spectrum_errors_match_whole_matrix(cands):
    with pytest.raises(ArithmeticError) as want:
        whole_spectrum(swap2(), cands)
    with pytest.raises(ArithmeticError) as got:
        verify_spectrum(swap2(), cands)
    assert str(got.value) == str(want.value)
