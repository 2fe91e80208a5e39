"""The spin representation of the quantized orthogonal algebra on the
2^k-dimensional fermionic space, for N = 2k+1 and N = 2k, together with
exact checkers for the defining relations and the balanced coproduct on
tensor powers.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import add

from .ring import Scalar, QQ, q_power
from .linalg import SparseMatrix, commutator, residuals_zero
from .combinat import is_dominant
from . import clifford as cl


def rank_of(N: int) -> int:
    if N < 2:
        raise ValueError("need N >= 2")
    return N // 2


def simple_roots(N: int):
    """Simple roots in the epsilon basis, with (eps_i, eps_j) = 2 delta_ij."""
    k = rank_of(N)
    roots = []
    for i in range(1, k):
        a = [0] * k
        a[i - 1], a[i] = 1, -1
        roots.append(tuple(a))
    last = [0] * k
    if N % 2:
        last[k - 1] = 1
    else:
        if k >= 2:
            last[k - 2] = 1
        last[k - 1] = 1
    roots.append(tuple(last))
    return roots


def root_pairing(N: int, i: int, j: int) -> int:
    a, b = simple_roots(N)[i - 1], simple_roots(N)[j - 1]
    return 2 * sum(x * y for x, y in zip(a, b))


def cartan_entry(N: int, i: int, j: int) -> int:
    return 2 * root_pairing(N, i, j) // root_pairing(N, i, i)


class SpinRep:
    """Generator images K_i^{±1}, K_i^{±1/2}, E_i, F_i on the spinor space.

    The images are cached per instance; library code gets its instance from
    `spin_rep(N)`, so each N builds them once."""

    def __init__(self, N: int):
        if N < 3:
            raise ValueError("need N >= 3")
        self.N = N
        self.k = rank_of(N)
        self.dim = 1 << self.k

    def qi(self, i: int) -> Scalar:
        """q_i = q^{(alpha_i, alpha_i)/2}: q^2 for long roots, q for short."""
        return QQ ** (root_pairing(self.N, i, i) // 2)

    @lru_cache(maxsize=None)
    def K(self, i: int, power: int = 1) -> SparseMatrix:
        k, N = self.k, self.N
        if i < k:
            return cl.omega(i, k, 2 * power) * cl.omega(i + 1, k, -2 * power)
        if N % 2:
            return cl.omega(k, k, 2 * power).scale(q_power(2 * power))
        return (cl.omega(k - 1, k, 2 * power) * cl.omega(k, k, 2 * power)
                ).scale(q_power(4 * power))

    @lru_cache(maxsize=None)
    def Khalf(self, i: int, power: int = 1) -> SparseMatrix:
        """K_i^{power/2} = diag(v^{power (w.alpha_i)}), w the doubled weight
        of each basis vector (`column_weight`) and w.alpha_i the plain dot
        product with the simple root: K_i, built from the omega's, is
        diag(v^{2 (w.alpha_i)}), which `relation_residuals` checks as
        (K_i^{1/2})^2 = K_i."""
        a = simple_roots(self.N)[i - 1]
        return SparseMatrix.diagonal(
            [q_power(power * sum(x * y for x, y in
                                 zip(column_weight(self.N, 1, m), a)))
             for m in range(self.dim)])

    @lru_cache(maxsize=None)
    def E(self, i: int) -> SparseMatrix:
        k, N = self.k, self.N
        if i < k:
            return cl.annih(i, k) * cl.creat(i + 1, k)
        if N % 2:
            return cl.annih(k, k) * cl.parity(k, k)
        return cl.annih(k - 1, k) * cl.annih(k, k)

    @lru_cache(maxsize=None)
    def F(self, i: int) -> SparseMatrix:
        """F_i = E_i^T: psi^dag_j = psi_j^T, and the parity is diagonal."""
        return self.E(i).transpose()


@lru_cache(maxsize=None)
def spin_rep(N: int) -> SpinRep:
    """The shared SpinRep of N."""
    return SpinRep(N)


@lru_cache(maxsize=None)
def dominant_columns(N: int, n: int) -> dict:
    """{column: weight} on the basis vectors of S^(x)n, in ascending column
    order, whose weight (`column_weight`, the sum of its factors' weights)
    is dominant (`combinat.is_dominant`).  The columns of the first n - 1
    factors are grouped by weight, so each such weight is added to each
    weight of the last factor, and tested, once.  The dict is cached per
    (N, n) and shared: do not mutate it."""
    k = rank_of(N)
    factors = [column_weight(N, 1, m) for m in range(1 << k)]
    # weight -> its columns of the factors so far, the last fastest (kron)
    heads = {(0,) * k: [0]}
    for step in range(n):
        nxt = {}
        for w, cols in heads.items():
            for m, f in enumerate(factors):
                u = tuple(map(add, w, f))
                if step < n - 1 or is_dominant(u, N):
                    nxt.setdefault(u, []).extend((j << k) + m for j in cols)
        heads = nxt
    return dict(sorted((j, w) for w, cols in heads.items() for j in cols))


def column_weight(N: int, n: int, j: int) -> tuple:
    """The weight of basis vector j of S^(x)n, in the doubled coordinates
    of `combinat.spinor_table`: slot r of a factor x(m) adds +1 if it is
    empty and -1 if it is filled (omega_r = diag(q^{-m_r})), so x(0..0)
    has the highest weight (1, ..., 1) and E_i adds the doubled root."""
    k = rank_of(N)
    w = [0] * k
    for _ in range(n):
        j, m = divmod(j, 1 << k)
        for r in range(k):
            w[r] += 1 - 2 * cl.bit(m, r + 1, k)
    return tuple(w)


def column_weights(N: int, n: int) -> list:
    """`column_weight` of every column of S^(x)n, in column order, as sums
    of the 2^k weights of S, one tensor factor at a time, the first factor
    slowest (kron)."""
    wt = one = [column_weight(N, 1, m) for m in range(1 << rank_of(N))]
    for _ in range(n - 1):
        wt = [tuple(map(add, u, w)) for u in wt for w in one]
    return wt


def relation_residuals(N: int) -> dict:
    """{relation: residual} for every defining relation of the quantized
    orthogonal algebra on the spin representation: K_i K_i^-1 = 1,
    (K_i^1/2)^2 = K_i, Cartan commutation, the weight scaling K_i X
    K_i^-1 = q^e X as [K_i, X]_{q^e} = K_i X - q^e X K_i, the commutator
    [E_i, F_j], and the quantum Serre relations as the nested
    q-commutators (ad X_i)^m X_j, m = 1 - a_ij, each residual a
    `linalg.commutator`.  The Serre one is [X_i, .]_{q_i^(m-1-2s)} for
    s = 0..m-1 applied to X_j, which is sum_s (-1)^s [m choose s]_{q_i}
    X_i^{m-s} X_j X_i^s by the q-binomial theorem prod_s (1 + q_i^(m-1-2s)
    t) = sum_s [m choose s]_{q_i} t^s.  Every residual is zero iff all
    hold."""
    rep = spin_rep(N)
    k, d = rep.k, rep.dim
    ident = SparseMatrix.identity(d)
    out = {}
    for i in range(1, k + 1):
        K, Ki = rep.K(i), rep.K(i, -1)
        out[f"K{i} K{i}^-1"] = K * Ki - ident
        out[f"K{i}^1/2 K{i}^1/2"] = rep.Khalf(i) * rep.Khalf(i) - K
        for j in range(1, k + 1):
            out[f"[K{i}, K{j}]"] = commutator(K, rep.K(j))
            pw = 2 * root_pairing(N, i, j)
            for name, X, e in (("E", rep.E(j), pw), ("F", rep.F(j), -pw)):
                out[f"K{i} {name}{j} K{i}^-1"] = commutator(K, X, q_power(e))
            comm = commutator(rep.E(i), rep.F(j))
            if i == j:
                qi = rep.qi(i)
                comm = comm - _divide(K - Ki, qi - qi.inv())
            out[f"[E{i}, F{j}]"] = comm
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i == j:
                continue
            m, qi = 1 - cartan_entry(N, i, j), rep.qi(i)
            for name, X in (("E", rep.E), ("F", rep.F)):
                acc = X(j)
                for s in range(m):
                    acc = commutator(X(i), acc, qi ** (m - 1 - 2 * s))
                out[f"Serre {name} {i},{j}"] = acc
    return out


def _divide(m: SparseMatrix, c: Scalar) -> SparseMatrix:
    """m scaled by c^-1, each distinct entry multiplied once: the entries of
    K_i - K_i^-1 take a few values many times."""
    ci, quot = c.inv(), {}
    out = {}
    for rc, x in m.data.items():
        y = quot.get(x)
        if y is None:
            y = quot[x] = x * ci
        out[rc] = y
    return SparseMatrix(m.nrows, m.ncols, out)


def verify_relations(N: int) -> bool:
    """Every residual of `relation_residuals(N)` is zero."""
    return residuals_zero(relation_residuals(N))


def _balanced_coproduct(x: SparseMatrix, kh: SparseMatrix, khi: SparseMatrix,
                        n: int) -> SparseMatrix:
    """n-fold balanced coproduct of x: sum_j kh^(x)j (x) x (x) khi^(x)(n-1-j),
    with kh = K^{1/2} and khi = K^{-1/2}, grown one factor at a time as
    Delta_{j+1}(x) = Delta_j(x) (x) khi + kh^(x)j (x) x.  Private, so that
    a tracer keyed on the public builders sees their whole time."""
    acc, khj = x, kh
    for j in range(1, n):
        acc = acc.kron(khi) + khj.kron(x)
        if j < n - 1:
            khj = khj.kron(kh)
    return acc


def coproduct_generators(N: int, n: int, v0=None, p: int = None):
    """(K, E), the lists of Delta(K_i) and Delta(E_i) on the n-fold tensor
    power at index i - 1, the one builder of them.  At a point v0 (a
    GaussRat, or an int mod a prime p) K_i^{+-1/2} and E_i are
    specialized once on S, K_i is (K_i^{1/2})^2 there, and all are then
    tensored (mod p, as the specialized matrices carry p), so no operator
    on S^(x)n is specialized.  Specialization is a ring map on entries
    with no pole at the point (they are powers of v and integers) and
    K_i^{1/2} = diag(v^{w.alpha_i}) squares to K_i (`SpinRep.Khalf`), so
    every operator equals the symbolic one specialized entry by entry.

    Delta(F_i) = Delta(E_i)^T, which a caller takes: F_i = E_i^T on S
    (`SpinRep.F`), K^{+-1/2} is diagonal, and (A (x) B)^T = A^T (x) B^T,
    so every term kh^(x)j (x) F_i (x) khi^(x)(n-1-j) of the balanced
    coproduct is the transpose of the E_i term; the entries are the same
    products, so this holds over Q(i)(v), at a point and mod p alike."""
    rep = spin_rep(N)
    dK, dE = [], []
    for i in range(1, rep.k + 1):
        kh, khi, E = (m.specialize(v0, p) for m in (
            rep.Khalf(i), rep.Khalf(i, -1), rep.E(i)))
        K = rep.K(i) if v0 is None else kh * kh
        dK.append(reduce(SparseMatrix.kron, [K] * n))
        dE.append(_balanced_coproduct(E, kh, khi, n))
    return dK, dE
