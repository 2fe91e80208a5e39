import pytest
from hypothesis import given, settings, strategies as st

from spindual.combinat import (is_admissible, tensor_with_spinor,
                               spinor_table, weyl_dim,
                               complement, branch_halfint,
                               gz_dimension, diagram_dimension,
                               valid_o_label, dual_dimension, duality_residuals,
                               conjugate)
from spindual.linalg import residuals_zero
from spindual import combinat


def old_new_split(table: dict, n: int):
    """Partition by whether lambda_1 = n/2 (the weights seen for the first
    time at step n) or lambda_1 < n/2."""
    old, new = {}, {}
    for w, m in table.items():
        (new if w[0] == n else old)[w] = m
    return old, new


def complement_inverse(label, N: int, n: int):
    """Recover the spinor-side weight from its complement label."""
    k = N // 2
    if N % 2:
        return tuple(n - 2 * sum(1 for d in label if d >= N + 2 - 2 * i)
                     for i in range(1, k + 1))
    # cols of the diagram, longest first; undo col_j = (n - w_{k+1-j})/2
    cols = [sum(1 for r in label if r >= j) for j in range(1, k + 1)]
    return tuple(n - 2 * cols[k - 1 - i] for i in range(k))


def sum_mult_squared(N: int, n: int) -> int:
    """Sum of squared multiplicities of S^(x)n: the dimension of the
    centralizer algebra."""
    return sum(m * m for m in spinor_table(N, n).values())


def test_tensor_steps_N5():
    t1 = spinor_table(5, 1)
    assert t1 == {(1, 1): 1}
    t2 = spinor_table(5, 2)
    assert t2 == {(2, 2): 1, (2, 0): 1, (0, 0): 1}


def test_old_new_split():
    old, new = old_new_split(spinor_table(5, 2), 2)
    assert new == {(2, 2): 1, (2, 0): 1}
    assert old == {(0, 0): 1}
    old, new = old_new_split(spinor_table(5, 1), 1)
    assert old == {} and new == {(1, 1): 1}


def test_weyl_dims():
    assert weyl_dim((1, 1), 5) == 4          # the spinor module itself
    assert weyl_dim((2, 0), 5) == 5
    assert weyl_dim((2, 2), 5) == 10
    assert weyl_dim((0, 0), 5) == 1
    assert weyl_dim((0,), 3) == 1
    # N even: sign of the last entry does not matter
    assert weyl_dim((2, 2), 4) == weyl_dim((2, -2), 4)


def test_weyl_dim_rejects_bad_weights():
    with pytest.raises(ValueError, match=r"\(1, 0\).*5/2"):
        weyl_dim((1, 0), 5)              # mixes integral and half-integral
    with pytest.raises(ValueError, match=r"\(0, 2\).*dimension 0"):
        weyl_dim((0, 2), 5)              # not dominant


def test_dimension_conservation_per_step():
    for N in (3, 4, 5, 6):
        k = N // 2
        prev = 1
        table = {(0,) * k: 1}
        for _ in range(4):
            table = tensor_with_spinor(table, N)
            total = sum(m * weyl_dim(w, N) for w, m in table.items())
            assert total == prev * (1 << k)
            prev = total


def test_complement_examples():
    assert complement((0,), 3, 2) == (3,)       # lambda^c = (3/2)
    assert complement((2,), 3, 2) == (1,)       # lambda^c = (1/2)
    # N = 4, n = 2 diagrams
    assert complement((0, 0), 4, 2) == (2,)
    assert complement((2, 0), 4, 2) == (1,)
    assert complement((2, 2), 4, 2) == ()
    assert complement((2, -2), 4, 2) == (1, 1)


def test_complement_involution():
    for N in (3, 5, 4, 6):
        for n in range(1, 5):
            for w in spinor_table(N, n):
                lab = complement(w, N, n)
                assert complement_inverse(lab, N, n) == w


def test_branching_nonclassical():
    # so_4 label (3/2,1/2) restricts to so_3 labels 3/2 >= mu >= 1/2
    assert set(branch_halfint((3, 1), 4)) == {(3,), (1,)}
    # so_3 label (3/2) restricts with mu >= 1/2 (non-strict at the top)
    assert set(branch_halfint((3,), 3)) == {(3,), (1,)}


def test_gz_dimensions():
    assert gz_dimension((3,), 3) == 2      # the nonclassical so_3 module V_{3/2}
    assert gz_dimension((1, 1), 5) == 1    # all-halves label: chain forced
    assert gz_dimension((3, 1), 5) == 4


def test_gz_ratio_to_weyl():
    # nonclassical dimension x 2^k (n odd) or 2^(k-1) (n even) = classical dim
    for n, lab in ((3, (3,)), (3, (5,)), (5, (3, 1)), (4, (3, 1)), (5, (5, 3))):
        k = n // 2
        ratio = 1 << (k if n % 2 else k - 1)
        assert gz_dimension(lab, n) * ratio == weyl_dim(lab, n)


def test_diagram_machinery():
    assert conjugate((2, 1)) == (2, 1)
    assert valid_o_label((1,), 1) and not valid_o_label((1, 1), 1)
    assert diagram_dimension((1,), 2) == 2
    assert diagram_dimension((2,), 2) == 2
    assert diagram_dimension((1, 1), 2) == 1
    assert diagram_dimension((), 5) == 1


@pytest.mark.parametrize("N,nmax", [(3, 6), (5, 5), (4, 4), (6, 4)])
def test_duality(N, nmax):
    for n in range(1, nmax + 1):
        assert residuals_zero(duality_residuals(N, n)), (N, n)


def test_duality_residuals_name_the_broken_weight(monkeypatch):
    # a dual dimension off by one at one weight: that weight's residual is
    # the only nonzero one (the total uses the multiplicities, not dual dims)
    real = combinat.dual_dimension
    monkeypatch.setattr(combinat, "dual_dimension",
                        lambda w, N, n: real(w, N, n) + (w == (3, 1)))
    res = duality_residuals(5, 3)
    assert {k: r for k, r in res.items() if r} == {"m(3/2,1/2) - dual dim": -1}
    assert res["total"] == 0


def test_sum_mult_squared_known_values():
    assert sum_mult_squared(3, 3) == 5
    assert sum_mult_squared(3, 4) == 14
    assert sum_mult_squared(3, 5) == 42
    assert sum_mult_squared(5, 3) == 14
    assert sum_mult_squared(4, 3) == 70
    assert sum_mult_squared(4, 4) == 588


def test_fusion_truncation():
    for lev in (5, 7, 9):
        for n in range(1, 7):
            gen = spinor_table(5, n)
            tr = spinor_table(5, n, level=lev)
            assert set(tr) <= set(gen)
            assert all(0 <= tr[w] <= gen[w] for w in tr)
            # stabilization exactly once lev >= n + N - 2
            assert (tr == gen) == (lev >= n + 3)


def test_admissibility_rule():
    # lambda_1 + lambda_2 + N - 2 <= level, doubled coordinates
    assert is_admissible((4, 2), 5, 6)
    assert not is_admissible((4, 4), 5, 6)


@given(st.integers(2, 4), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_multiplicities_match_gz_chains(half_N, n):
    # the duality statement as a property over a small random grid
    N = 2 * half_N - 1
    table = spinor_table(N, n)
    for w, m in table.items():
        assert m == dual_dimension(w, N, n)
