"""Nonstandard orthogonal coideal algebras as relation oracles, explicit
three-strand representations, the Temperley-Lieb quotient, and the duality
representation on spinor tensor powers.

The defining relations are B_i B_j = B_j B_i for |i-j| > 1 and
B_i^2 B_j - (p + p^-1) B_i B_j B_i + B_j B_i^2 = B_j for |i-j| = 1,
with deformation parameter p; the extended (full orthogonal) version adds
F with F^2 = 1, F B_1 = -B_1 F, F B_i = B_i F for i > 1.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from .ring import (CheckFailure, Scalar, ONE, I, V, QQ, qint, qint_plus,
                   q_power)
from .linalg import (SparseMatrix, commutator, embed, nullspace, vstack,
                     _one)
from . import clifford as cl
from .qgroup import rank_of, coproduct_generators
from .intertwiner import (build_C_quantum, clear_denominators,
                          cubic_residuals)


class CoidealRep:
    def __init__(self, n: int, param: Scalar, B: list, F: SparseMatrix = None):
        self.n = n
        self.param = param
        self.B = B
        self.F = F

    @property
    def dim(self):
        return self.B[0].nrows if self.B else (self.F.nrows if self.F else 0)


def check_coideal_relations(rep: CoidealRep) -> dict:
    """{relation: residual} for every defining relation, over Q(i)(v) or
    at a GaussRat point.

    Over Q(i)(v) the products run on B'_i = d B_i, for d the lcm of the
    entry denominators of the B_i (1 + v^4 for the duality representation
    at N odd; `intertwiner.clear_denominators`), whose entries are Laurent
    polynomials.  A far residual is homogeneous of degree 2 in the B's,
    so it equals d^-2 times the one of the B'_i; a cubic one comes from
    `intertwiner.cubic_residuals` with the parameter p of `rep`, and
    F B_1 + B_1 F is the q-commutator [F, B_1]_{-1} (`linalg.commutator`).
    d is nonzero and the entries are canonical, so the dict is the same,
    entry for entry, as the one of the B_i; the residual of (j, i) is
    computed with the one of (i, j), as -[B_i, B_j] for a far pair."""
    d, B = clear_denominators(rep.B)
    res = {}
    for i in range(len(B)):
        for j in range(i + 1, len(B)):
            if j - i > 1:
                r = commutator(B[i], B[j])
                r = r if d is None else r.scale((d * d).inv())
                res[i, j], res[j, i] = r, -r
            else:
                res[i, j], res[j, i] = cubic_residuals(
                    B[i], B[j], rep.param, d)
    out = {f"{'far' if abs(i - j) > 1 else 'cubic'} {i+1},{j+1}": r
           for (i, j), r in sorted(res.items())}
    F, B = rep.F, rep.B
    if F is not None:
        out["F^2"] = F * F - SparseMatrix.identity(F.nrows, _one([F]), F.p)
        if B:
            out["FB1"] = commutator(F, B[0], -_one([F]))
        for i in range(1, len(B)):
            out[f"FB{i+1}"] = commutator(F, B[i])
    return out


# -- explicit three-strand representations ---------------------------------

def so3_classical_rep(Nparam: int) -> CoidealRep:
    """(Nparam+1)-dimensional module with B_1 v_j = [Nparam/2 - j] v_j and
    B_2 v_j = v_{j+1} + a_{j-1,j} v_{j-1}, where
    a_{j-1,j} = [N+1-j][j] / ((q^{N/2-j} + q^{j-N/2})(q^{N/2-j+1} + q^{j-N/2-1}))."""
    N = Nparam
    d = N + 1
    B1 = SparseMatrix(d, d, {(j, j): qint((N - 2 * j, 2)) for j in range(d)
                             if N != 2 * j})
    return CoidealRep(3, QQ, [B1, _so3_B2(N, d, 1)])


def _so3_B2(N: int, d: int, sign: int) -> SparseMatrix:
    """B_2 v_j = v_{j+1} + a_{j-1,j} v_{j-1} on d basis vectors, a_{j-1,j}
    = [N+1-j][j] / ((q^{N/2-j} +- q^{j-N/2})(q^{N/2-j+1} +- q^{j-N/2-1}))
    with the sign `sign`."""
    B2 = SparseMatrix(d, d)
    for j in range(d):
        if j + 1 < d:
            B2[(j + 1, j)] = ONE
        if j >= 1:
            a, b = q_power(N - 2 * j), q_power(2 * j - N)
            c, e = q_power(N - 2 * j + 2), q_power(2 * j - N - 2)
            den = (a + b) * (c + e) if sign > 0 else (a - b) * (c - e)
            B2[(j - 1, j)] = qint(N + 1 - j) * qint(j) / den
    return B2


def so3_nonclassical_rep(Nparam: int, sign: int = 1) -> CoidealRep:
    """(Nparam+1)/2-dimensional module for Nparam odd: B_1 has the shifted
    eigenvalues [Nparam/2 - j]^+, the alphas pick up minus signs in the
    denominators, and the last basis vector carries a diagonal B_2 term
    +- [(N+1)/2] / (i(q^{1/2} - q^{-1/2}))."""
    N = Nparam
    if N % 2 == 0:
        raise ValueError("nonclassical three-strand modules need odd Nparam")
    d = (N + 1) // 2
    B1 = SparseMatrix(d, d, {(j, j): qint_plus((N - 2 * j, 2)) for j in range(d)})
    B2 = _so3_B2(N, d, -1)
    top = d - 1   # j = (N-1)/2
    diag = qint((N + 1) // 2) / (I * (V - V.inv()))
    B2[(top, top)] = diag if sign > 0 else -diag
    return CoidealRep(3, QQ, [B1, B2])


def twist_so3(rep: CoidealRep) -> CoidealRep:
    """Replace B_1 by its alternating twist (-1)^j B_1 v_j; the result is a
    module for the coideal with negated parameter."""
    d = rep.dim
    B1 = SparseMatrix(d, d, {(r, c): (v if r % 2 == 0 else -v)
                             for (r, c), v in rep.B[0].data.items()})
    return CoidealRep(rep.n, -rep.param, [B1] + rep.B[1:], rep.F)


# -- Temperley-Lieb from the rank-one quantum group -------------------------

def tl_generators(n: int) -> list:
    """e_i projecting tensor slots (i, i+1) onto the trivial isotypic
    component of C^2 (x) C^2, found as the joint kernel of the coproduct
    action -- nothing about the singlet is hardcoded.  {Delta(E), Delta(F)
    = Delta(E)^T, Delta(K) - 1} is closed under transposition (Delta(K)
    is diagonal), so its joint right and left kernels are the same line
    span(s), and e = s s^T / (s.s).

    C^2 is the spin representation of N = 3, the rank-one quantum group
    with K = diag(q, q^-1), K E K^-1 = q^2 E and [E, F] = (K - K^-1)/(q -
    q^-1).  This is the convention the three-strand homomorphism forces:
    a direct expansion shows B = a - b*e can satisfy the cubic relation
    with middle coefficient q^2 + q^-2 only if e_1 e_2 e_1 = e_1 / (q +
    q^-1)^2, the constant realized by the trivial-summand projection
    below."""
    (dK,), (dE,) = coproduct_generators(3, 2)
    vecs = nullspace(vstack([dE, dE.transpose(),
                             dK - SparseMatrix.identity(4)]))
    if len(vecs) != 1:
        raise CheckFailure(f"joint kernel of the sl2 coproduct has "
                           f"dimension {len(vecs)}, expected 1")
    s, = vecs
    inv = reduce(add, (v * v for v in s.values())).inv()
    e = SparseMatrix(4, 4)
    for r, a in s.items():
        for c, b in s.items():
            e[(r, c)] = a * b * inv
    return [embed(e, 2 ** (i - 1), 2 ** (n - i - 1)) for i in range(1, n)]


def tl_braid_rep(n: int) -> CoidealRep:
    """B_i = 1/(q + q^-1) - (q + q^-1) e_i, a coideal module with
    parameter -q^2."""
    two = qint(2)
    es = tl_generators(n)
    d = es[0].nrows
    ident = SparseMatrix.identity(d)
    B = [ident.scale(two.inv()) - e.scale(two) for e in es]
    return CoidealRep(n, -(QQ ** 2), B)


def tl_measured_constant(n: int = 3) -> Scalar:
    """The scalar c in e_1 e_2 e_1 = c e_1 for the constructed generators."""
    es = tl_generators(n)
    prod = es[0] * es[1] * es[0]
    for rc, val in es[0].data.items():
        return prod.data.get(rc, Scalar.from_int(0)) / val
    raise RuntimeError("e_1 is zero?")


# -- the duality representation ---------------------------------------------

def duality_rep(N: int, n: int, v0=None, p: int = None) -> CoidealRep:
    """B_i = C_i on the n-fold spinor tensor power, parameter -q^2; for N
    even also F = f (x) 1^(n-1) with f the diagonal (-1)^{m{k}} operator.
    The one builder of the B_i and F: v0 = 1 (`ring.GR_ONE`, or 1 mod p)
    gives the classical duality, parameter -1.

    At a point v0 (a GaussRat, or an int mod a prime p) C comes from
    `build_C_quantum` at v0, which specializes on S and then tensors, and
    f and the parameter are specialized on S; all are then embedded, so no
    operator on S (x) S or S^(x)n is specialized.  Specialization is a
    ring map on entries with no pole at the point (`Scalar.specialize`
    raises PoleError at one), so every operator equals the symbolic one
    specialized entry by entry."""
    k = rank_of(N)
    d = 1 << k
    # the symbolic C under the cache key of the plain build_C_quantum(N)
    C = build_C_quantum(N) if v0 is None else build_C_quantum(N, v0, p)
    param = -(QQ ** 2)
    f = None if N % 2 else cl.parity(k, k)
    if v0 is not None:
        param = param.specialize(v0, p)
        f = None if f is None else f.specialize(v0, p)
    B = [embed(C, d ** (i - 1), d ** (n - i - 1)) for i in range(1, n)]
    return CoidealRep(n, param, B,
                      None if f is None else embed(f, 1, d ** (n - 1)))
