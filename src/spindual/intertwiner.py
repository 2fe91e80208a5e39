"""The commuting operators C on the 2-fold (and, embedded, n-fold) tensor
power of the spinor space: the q-deformed forms for N even and N odd (at
v = 1 the classical one), the cubic relation, spectra and integrality.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import mul

from .ring import (Scalar, GaussRat, QQ, GR_ONE, LP_ONE, qint,
                   q_power, require_generic)
from .linalg import (SparseMatrix, commutator, embed, verify_spectrum,
                     SpectrumReport)
from . import clifford as cl
from .qgroup import rank_of, dominant_columns, coproduct_generators


# -- the c/d building blocks ------------------------------------------------

def c_op(i: int, eps: int, N: int, power: int = -1) -> SparseMatrix:
    """c_{i,+} = Omega_{i-1}^{-1} psi_i, c_{i,-} = Omega_{i-1}^{-1} psi^dag_i;
    the extended index i = k+1 (N odd) gives Omega_k^{-1} f_N for either
    sign.  With power = 1, Omega_{i-1} in place of its inverse: d_{i,+-}."""
    k = rank_of(N)
    if i == k + 1:
        if N % 2 == 0:
            raise ValueError("extended index only exists for N odd")
        return cl.Omega(k, k, power) * cl.parity(k, k)
    psi = cl.annih(i, k) if eps > 0 else cl.creat(i, k)
    return cl.Omega(i - 1, k, power) * psi


def d_op(i: int, eps: int, N: int) -> SparseMatrix:
    return c_op(i, eps, N, 1)


@lru_cache(maxsize=None)
def build_C_quantum(N: int, v0=None, p: int = None) -> SparseMatrix:
    """C = sum_i c_{i,+} (x) d_{i,-} + c_{i,-} (x) d_{i,+}, plus for N odd the
    extra term (1/[2]) Omega_k^{-1} f_{2k} (x) Omega_k f_{2k}.

    Over Q(i)(v) by default.  At a point v0 (a GaussRat, or an int mod a
    prime p) the c/d operators and 1/[2] are specialized on S first and
    then tensored (mod p, as the specialized matrices carry p), so no
    operator on S (x) S is specialized.  Specialization is a ring map on
    entries with no pole at the point (`Scalar.specialize` raises
    PoleError at one), so C equals the symbolic one specialized entry by
    entry."""
    k = rank_of(N)
    acc = None
    for i in range(1, k + 1):
        t = (_kron_at(c_op(i, +1, N), d_op(i, -1, N), v0, p)
             + _kron_at(c_op(i, -1, N), d_op(i, +1, N), v0, p))
        acc = t if acc is None else acc + t
    if N % 2:
        acc = acc + _f_term(N, v0, p)
    return acc


def _kron_at(x: SparseMatrix, y: SparseMatrix, v0, p) -> SparseMatrix:
    """x (x) y; at a point v0 (mod a prime p), x and y are specialized
    there first."""
    return x.specialize(v0, p).kron(y.specialize(v0, p))


def _f_term(N: int, v0=None, p: int = None) -> SparseMatrix:
    """(1/[2]) Omega_k^{-1} f_{2k} (x) Omega_k f_{2k}, with [2] = q + q^-1,
    at v0 as in `build_C_quantum`."""
    k = rank_of(N)
    inv2 = (QQ + QQ.inv()).inv().specialize(v0, p)
    return _kron_at(c_op(k + 1, +1, N), d_op(k + 1, +1, N), v0, p).scale(inv2)


def build_C_classical(N: int) -> SparseMatrix:
    """C at q = 1, (1/2) sum_{i=1}^N e_i (x) e_i: `build_C_quantum` at
    v0 = 1 with constant Scalar entries, which `verify_spectrum` can
    specialize and subtract Scalar candidates from."""
    C = build_C_quantum(N, GR_ONE)
    return SparseMatrix(C.nrows, C.ncols, {rc: Scalar.from_gauss(x)
                                           for rc, x in C.data.items()})


# -- commutation and cubic relations ---------------------------------------

def check_commutation(N: int, drop_f_term=False) -> dict:
    """[Delta(g), C] for g = K_i, E_i, F_i; returns {label: residual}.
    `drop_f_term` is a negative control for N odd: without the f-term the
    last generator must fail to commute."""
    C = build_C_quantum(N)
    if drop_f_term:
        if N % 2 == 0:
            raise ValueError("no f-term to drop for N even")
        C = C - _f_term(N)
    return _commutators(coproduct_generators(N, 2), C)


def _commutators(gens: tuple, C: SparseMatrix) -> dict:
    """{label: [g, C]} for g = Delta(K_i), Delta(E_i), Delta(F_i) =
    Delta(E_i)^T, labelled K{i}, E{i}, F{i}, from the (K, E) of
    `qgroup.coproduct_generators`.  If C = C^T, [Delta(F_i), C] =
    -[Delta(E_i), C]^T takes no product; the equality test is exact."""
    sym, out = C.transpose() == C, {}
    for i, (dK, dE) in enumerate(zip(*gens), 1):
        out[f"K{i}"] = commutator(dK, C)
        out[f"E{i}"] = ce = commutator(dE, C)
        out[f"F{i}"] = (-ce.transpose() if sym
                        else commutator(dE.transpose(), C))
    return out


def check_cubic(N: int) -> dict:
    """{relation: residual} for the cubic relation on S^(x)3, the coideal
    one with p = -q^2: [C1, [C1, C2]_p]_{p^-1} - C2 and the same with C1
    and C2 swapped, where [a, [a, b]_p]_{p^-1} = a^2 b + (q^2 + q^-2) a b a
    + b a^2 (`cubic_residuals`).

    The dict is `_cubic_residuals`'s: `check_commutation`'s [Delta(g),
    C], for N even [e (x) e, C] with e = e_{N-1}, then `cubic C1;C2` and
    `cubic C2;C1` on the columns `cubic_columns(N)` only.  Why all of them
    zero certifies the cubic relation on the whole space:

    - C commutes with the Delta(g), and so with Delta(K_i^{1/2})
      (`_cubic_residuals`); so C1 = C (x) 1 and C2 = 1 (x) C commute
      with the threefold coproduct, since Delta3(x) = Delta(x) (x) K^{-1/2}
      + Delta(K^{1/2}) (x) x = x (x) Delta(K^{-1/2}) + K^{1/2} (x) Delta(x).
      So both cubic residuals are module maps.
    - q is not a root of unity, so S^(x)3 is completely reducible (Rosso,
      Lusztig): a sum of simple modules, each generated by a
      highest-weight vector w (E_i w = 0 for all i).
    - Delta(K_i) is v^{2 (mu.alpha_i)} at each column of weight mu
      (`qgroup.column_weight`), and distinct weights give distinct
      eigenvalue tuples, so w lies in the span of the columns of one
      weight lambda.  For the U_{q_i}(sl2) of E_i, F_i, K_i, w is a
      highest-weight vector of a finite-dimensional module, so its K_i
      eigenvalue is q_i^m with m >= 0: lambda.alpha_i >= 0 for every i,
      lambda is dominant, and w lies in the span of the dominant columns.
    - A module map that kills every highest-weight vector kills the
      submodules they generate, i.e. everything.
    - For N even it is enough that the residuals vanish on D+: tau = e
      (x) e (x) e commutes with them once [e (x) e, C] = 0 and swaps
      span(D+) with the rest of span(D) (`_cubic_residuals`).

    Without the commutators the first step fails, and without [e (x) e,
    C] the last, which is why they are part of the dict and go to the
    same zero test.
    """
    return _cubic_residuals(N, build_C_quantum(N), coproduct_generators(N, 2),
                            -(QQ ** 2))


def check_cubic_specialized(N: int, v0: GaussRat) -> dict:
    """The quantum residual dict of `check_cubic` at the exact point
    v = v0, in Gaussian-rational arithmetic: C and the Delta(g) come from
    their builders at v0, which specialize on S and then tensor, so no
    symbolic operator on S (x) S is built.  The soundness argument of
    `check_cubic` needs q = v0^2 not a root of unity, so a root of unity
    v0 raises PoleError."""
    require_generic(v0)
    return _cubic_residuals(N, build_C_quantum(N, v0),
                            coproduct_generators(N, 2, v0),
                            (-(QQ ** 2)).specialize(v0), v0)


def clear_denominators(mats):
    """(d, [d m for m in mats]) for d the lcm of the denominators of the
    Scalar entries of `mats`, whose d m then hold Laurent polynomials;
    (None, mats) if that lcm is 1."""
    d = LP_ONE
    for den in {x.den for m in mats for x in m.data.values()
                if isinstance(x, Scalar) and x.den is not LP_ONE}:
        d = d * Scalar(d, den).den      # d/den in lowest terms: lcm(d, den)
    if d is LP_ONE:
        return None, mats
    d = Scalar(d)
    return d, [m.scale(d) for m in mats]


def cubic_residuals(a: SparseMatrix, b: SparseMatrix, p, d=None):
    """(r(a, b), r(b, a)) for the coideal cubic relation with parameter p,
    r(a, b) = [a, [a, b]_p]_{p^-1} - b = a^2 b - (p + p^-1) aba + b a^2 - b
    (`linalg.commutator`), in six products: ab and ba serve both.  For a
    and b given as d times the operators (`clear_denominators`), r is d^-3
    times that with d^2 b for b, the nested commutator being of degree 3
    in them: the same value, entry for entry, as on the operators."""
    ab, ba, pi = a * b, b * a, p.inv()
    ra = commutator(a, ab - ba.scale(p), pi)
    rb = commutator(b, ba - ab.scale(p), pi)
    if d is None:
        return ra - b, rb - a
    d2, inv3 = d * d, (d * d * d).inv()
    return (ra - b.scale(d2)).scale(inv3), (rb - a.scale(d2)).scale(inv3)


def cubic_columns(N: int) -> list:
    """The columns of S^(x)3 the quantum cubic residuals are evaluated on,
    ascending: the keys of `dominant_columns(N, 3)`, and for N even only
    those whose last weight coordinate lambda_k is > 0 (the half D+ of
    the dominant columns, 121 of 242 for N = 8; see `_cubic_residuals`)."""
    cols = dominant_columns(N, 3)
    if N % 2:
        return list(cols)
    return [j for j, w in cols.items() if w[-1] > 0]


def _cubic_residuals(N: int, C: SparseMatrix, gens: tuple, p,
                     v0=None) -> dict:
    """[g, C] for the (K, E) `gens` of `qgroup.coproduct_generators`
    (`_commutators`), for N even the residual [e (x) e, C] with e =
    e_{N-1} = psi_k + psi^dag_k (`clifford.clifford_generator`, at the
    point v0 of C if one is given), then the two cubic residuals with
    coideal parameter p (-q^2, or its value at v0) on the columns D of
    S^(x)3 whose `column_weight` is dominant, the keys of
    `dominant_columns(N, 3)`, as d^3 x d^3 matrices; for N even on the
    half D+ of D with lambda_k > 0 only (`cubic_columns`).

    C1 = C (x) 1 and C2 = 1 (x) C are built only on their D x D blocks
    (40 x 40 for N = 7, not 512 x 512), for N even on their D+ x D+
    blocks (121 x 121 for N = 8, not 4096 x 4096).  Why that gives the
    residuals of the full operators on the columns D (and D+):

    - If the commutators [Delta(K_i), C] in the dict vanish, C keeps
      every weight space of S (x) S, so C1 and C2 keep every weight space
      of S^(x)3.  They vanish exactly when the [Delta(K_i^{1/2}), C] do:
      both are diagonal, with entries v^e and v^{e/2} in the same places;
      a diagonal t commutes with C iff C_rs = 0 wherever t_r != t_s, and
      v^e != v^f iff v^{e/2} != v^{f/2}, symbolically and at any v0 that
      is not a root of unity.
    - span(D) is a sum of joint Delta(K_i)-eigenspaces: Delta(K_i) is
      v^{2 (w.alpha_i)} at a column of weight w, so columns of one
      eigenvalue tuple share their weight, and whether a column is in D
      (or D+) depends only on its weight.
    - So C1 and C2 map span(D) into itself, and every product of them
      applied to span(D) equals the same product of their D x D blocks;
      the same holds for D+.
    - A nonzero commutator already fails the check, whatever the blocks
      give.

    Why, for N even, the residuals on D+ vanish only if those on D do,
    with tau = e (x) e (x) e on S^(x)3:

    1. e^2 = 1, and e is monomial with entries +-1: it flips slot k of a
       basis vector x(m).  So tau sends a column of weight lambda to a
       unit times a column of weight sigma lambda, where sigma negates
       lambda_k.
    2. For D_k, lambda is dominant iff lambda_1 >= ... >= lambda_{k-1}
       >= |lambda_k|, so dominance is sigma-invariant.  For n = 3,
       lambda_k is a sum of three +-1, so it is never 0.  Hence D = D+
       disjoint union sigma D+, and tau span(D+) = span(sigma D+).
    3. [e (x) e, C] = 0 gives tau C1 tau^-1 = (e (x) e) C (e (x) e) (x)
       e^2 = C1, and likewise tau C2 tau^-1 = C2.  So tau commutes with
       each cubic residual R, a polynomial in C1 and C2.
    4. So if R = 0 on span(D+), then R tau x = tau R x = 0 for x there:
       R = 0 on tau span(D+) = span(sigma D+) too, and so on span(D).
       The tau residual is in the dict: a nonzero one fails the check
       like any other key.

    With a = C1 and b = C2 on the block, `cubic_residuals` takes six
    block products, on d C1 and d C2 for d the lcm of C's entry
    denominators (`clear_denominators`)."""
    out = _commutators(gens, C)
    k = rank_of(N)
    if N % 2 == 0:
        e = cl.clifford_generator(N - 1, k)
        out[f"[e{N - 1} (x) e{N - 1}, C]"] = commutator(
            _kron_at(e, e, v0, None), C)
    d, (dC,) = clear_denominators([C])
    s, cols = 1 << k, cubic_columns(N)
    out["cubic C1;C2"], out["cubic C2;C1"] = cubic_residuals(
        embed(dC, 1, s, cols), embed(dC, s, 1, cols), p, d)
    return out


# -- spectra ----------------------------------------------------------------

@lru_cache(maxsize=None)
def quantum_spectrum_candidates(N: int) -> tuple:
    """(eigenvalue, multiplicity) pairs for C at generic q: (-1)^j
    (q^{N-2j} - q^{2j-N})/(q^2 - q^{-2}) with multiplicity binom(N, j),
    0 <= j <= k for N odd, with a global (-1)^k, and 0 <= j <= 2k for N
    even.  No entry has a pole at v = 1, where it is (N - 2j)/2 with the
    same sign: `spectrum_of_C` takes the eigenvalues of C at q = 1 from
    here, with the same multiplicities.  Cached per N, so both modes
    build the Scalars once."""
    k = rank_of(N)
    den = (QQ ** 2 - QQ ** (-2)).inv()
    top = k if N % 2 else 2 * k
    glob = (-1) ** k if N % 2 else 1
    out = []
    for j in range(top + 1):
        val = (q_power(2 * (N - 2 * j)) - q_power(-2 * (N - 2 * j))) * den
        out.append((val if (glob * (-1) ** j) > 0 else -val, comb(N, j)))
    return tuple(out)


def spectrum_of_C(N: int, classical=False) -> SpectrumReport:
    """`verify_spectrum` of C at q = 1 or at generic q against its
    candidate eigenvalues and their expected multiplicities: the report
    is `complete` only if each eigenvalue has its count.  At q = 1 the
    candidates are the quantum ones at v = 1, as constant Scalars, in
    the same order."""
    pairs = quantum_spectrum_candidates(N)
    if not classical:
        return verify_spectrum(build_C_quantum(N), *zip(*pairs))
    return verify_spectrum(build_C_classical(N), *zip(*(
        (Scalar.from_gauss(c.specialize(GR_ONE)), m) for c, m in pairs)))


# -- integrality ------------------------------------------------------------

def integrality_check(C: SparseMatrix, N: int) -> bool:
    """N even: every entry a Gaussian-integer Laurent polynomial in v.
    N odd: every entry becomes one after multiplying by [2]^a, a <= 2."""
    if N % 2 == 0:
        return all(s.has_gaussian_integer_coeffs() for s in C.entries())
    two = qint(2)
    return all(any(t.has_gaussian_integer_coeffs()
                   for t in accumulate((s, two, two), mul))
               for s in C.entries())
