"""The commuting operators C on the 2-fold (and, embedded, n-fold) tensor
power of the spinor space: classical form at q = 1, the q-deformed forms
for N even and N odd, the cubic relation, spectra and integrality.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .ring import (Scalar, GaussRat, Q, ONE, HALF, QQ, qint,
                   q_power, require_generic)
from .linalg import SparseMatrix, embed, verify_spectrum, SpectrumReport
from . import clifford as cl
from .qgroup import (spin_rep, rank_of, coproduct_E, coproduct_F,
                     dominant_columns)


# -- the c/d building blocks ------------------------------------------------

def c_op(i: int, eps: int, N: int) -> SparseMatrix:
    """c_{i,+} = Omega_{i-1}^{-1} psi_i, c_{i,-} = Omega_{i-1}^{-1} psi^dag_i;
    the extended index i = k+1 (N odd) gives Omega_k^{-1} f_N for either sign."""
    k = rank_of(N)
    if i == k + 1:
        if N % 2 == 0:
            raise ValueError("extended index only exists for N odd")
        return cl.Omega(k, k, -1) * cl.parity(k, k)
    psi = cl.annih(i, k) if eps > 0 else cl.creat(i, k)
    return cl.Omega(i - 1, k, -1) * psi


def d_op(i: int, eps: int, N: int) -> SparseMatrix:
    k = rank_of(N)
    if i == k + 1:
        if N % 2 == 0:
            raise ValueError("extended index only exists for N odd")
        return cl.Omega(k, k, 1) * cl.parity(k, k)
    psi = cl.annih(i, k) if eps > 0 else cl.creat(i, k)
    return cl.Omega(i - 1, k, 1) * psi


@lru_cache(maxsize=None)
def build_C_quantum(N: int) -> SparseMatrix:
    """C = sum_i c_{i,+} (x) d_{i,-} + c_{i,-} (x) d_{i,+}, plus for N odd the
    extra term (1/[2]) Omega_k^{-1} f_{2k} (x) Omega_k f_{2k}."""
    k = rank_of(N)
    acc = None
    for i in range(1, k + 1):
        t = (c_op(i, +1, N).kron(d_op(i, -1, N))
             + c_op(i, -1, N).kron(d_op(i, +1, N)))
        acc = t if acc is None else acc + t
    if N % 2:
        acc = acc + _f_term(N)
    return acc


def _f_term(N: int) -> SparseMatrix:
    """(1/[2]) Omega_k^{-1} f_{2k} (x) Omega_k f_{2k}, with [2] = q + q^-1."""
    k = rank_of(N)
    return c_op(k + 1, +1, N).kron(d_op(k + 1, +1, N)).scale(
        qint(2, QQ).inv())


@lru_cache(maxsize=None)
def build_C_classical(N: int, eps: int = 1) -> SparseMatrix:
    """C = (1/2) sum_{i=1}^N e_i (x) e_i at q = 1."""
    k = rank_of(N)
    acc = None
    for j in range(1, N + 1):
        e = cl.clifford_generator(j, k, eps)
        t = e.kron(e)
        acc = t if acc is None else acc + t
    return acc.scale(HALF)


def C_embedded(N: int, i: int, n: int, classical=False, eps: int = 1) -> SparseMatrix:
    """C_i = 1 (x) ... (x) C (x) ... (x) 1 acting on slots (i, i+1) of S^(x)n."""
    C = build_C_classical(N, eps) if classical else build_C_quantum(N)
    d = 1 << rank_of(N)
    return embed(C, d ** (i - 1), d ** (n - i - 1))


# -- commutation and cubic relations ---------------------------------------

def _pair_generators(N: int) -> list:
    """(label, Delta(g)) on S (x) S for g = K_i^{1/2}, E_i, F_i."""
    rep = spin_rep(N)
    out = []
    for i in range(1, rep.k + 1):
        out += [(f"K{i}^1/2", rep.Khalf(i).kron(rep.Khalf(i))),
                (f"E{i}", coproduct_E(rep, i, 2)),
                (f"F{i}", coproduct_F(rep, i, 2))]
    return out


def check_commutation(N: int, drop_f_term=False) -> dict:
    """[Delta(g), C] for every generator image g; returns {label: residual}.
    `drop_f_term` is a negative control for N odd: without the f-term the
    last generator must fail to commute."""
    C = build_C_quantum(N)
    if drop_f_term:
        if N % 2 == 0:
            raise ValueError("no f-term to drop for N even")
        C = C - _f_term(N)
    return {label: g * C - C * g for label, g in _pair_generators(N)}


def check_cubic(N: int, classical=False, eps: int = 1) -> dict:
    """{relation: residual} for the cubic relation on S^(x)3: lhs(C1; C2)
    - C2 and lhs(C2; C1) - C1, where lhs(a; b) = a^2 b + (q^2 + q^-2) a b a
    + b a^2 (the middle coefficient degenerates to 2 at q = 1).

    At q = 1 this is `check_coideal_relations` of the three-strand
    classical duality representation on the whole space (with F's
    relations for N even).  The quantum dict is `check_commutation`'s
    [Delta(g), C], then `cubic C1;C2` and `cubic C2;C1` on the columns of
    `dominant_columns(N, 3)` only (242 of 4096 for N = 8).  Why all of
    them zero certifies the cubic relation on the whole space:

    - C commutes with the Delta(g), so C1 = C (x) 1 and C2 = 1 (x) C commute
      with the threefold coproduct, since Delta3(x) = Delta(x) (x) K^{-1/2}
      + Delta(K^{1/2}) (x) x = x (x) Delta(K^{-1/2}) + K^{1/2} (x) Delta(x).
      So both cubic residuals are module maps.
    - q is not a root of unity, so S^(x)3 is completely reducible (Rosso,
      Lusztig): a sum of simple modules, each generated by a
      highest-weight vector w (E_i w = 0 for all i).
    - The Delta(K_i) are diagonal with entries v^e, and distinct exponents
      give distinct eigenvalues, so w lies in the span of basis columns of
      one exponent tuple.  For the U_{q_i}(sl2) of E_i, F_i, K_i, w is a
      highest-weight vector of a finite-dimensional module, so its K_i
      eigenvalue is q_i^m with m >= 0: every exponent is >= 0 and w lies
      in the span of the dominant columns.
    - A module map that kills every highest-weight vector kills the
      submodules they generate, i.e. everything.

    Without the commutators the first step fails, which is why they are
    part of the dict and go to the same zero test.
    """
    if classical:
        from .coideal import check_coideal_relations, classical_duality_rep
        return check_coideal_relations(classical_duality_rep(N, 3, eps))
    return _cubic_residuals(N, build_C_quantum(N), _pair_generators(N),
                            QQ ** 2 + QQ ** (-2))


def check_cubic_specialized(N: int, v0: GaussRat) -> dict:
    """The quantum residual dict of `check_cubic` at the exact point
    v = v0, in Gaussian-rational arithmetic: C and the Delta(g) are
    specialized on S (x) S before anything is embedded.  The soundness
    argument of `check_cubic` needs q = v0^2 not a root of unity, so a
    root of unity v0 raises PoleError."""
    require_generic(v0)
    C = build_C_quantum(N).specialize(v0)
    pairs = [(label, g.specialize(v0)) for label, g in _pair_generators(N)]
    mid = (QQ ** 2 + QQ ** (-2)).specialize(v0)
    return _cubic_residuals(N, C, pairs, mid)


def _cubic_residuals(N: int, C: SparseMatrix, pairs: list, mid) -> dict:
    """[g, C] for each (label, g) in `pairs`, then the two cubic residuals
    with middle coefficient `mid`, restricted to the dominant columns of
    S^(x)3 and evaluated right to left."""
    out = {label: g * C - C * g for label, g in pairs}
    d = 1 << rank_of(N)
    a, b = embed(C, 1, d), embed(C, d, 1)
    cols = dominant_columns(N, 3)
    a_d, b_d = a.restrict_columns(cols), b.restrict_columns(cols)
    aa, ba, ab, bb = a * a_d, b * a_d, a * b_d, b * b_d
    out["cubic C1;C2"] = a * ab + (a * ba).scale(mid) + b * aa - b_d
    out["cubic C2;C1"] = b * ba + (b * ab).scale(mid) + a * bb - a_d
    return out


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
                    # d_{i,e} d_{i,-e} c + (q^2+q^-2) d_{i,e} c d_{i,-e} + c d_{i,e} d_{i,-e}
                    dm = d_op(i, -e, N)
                    lhs = (d * dm * c + (d * c * dm).scale(coef) + c * d * dm)
                    if i < j:
                        lhs = lhs - (d * dm * c).scale(ONE - QQ ** (4 * e))
                    out[f"ii i={i} j={j} e={e} k={kap}"] = lhs
    return out


# -- spectra ----------------------------------------------------------------

def classical_spectrum_candidates(N: int, eps: int = 1):
    """(eigenvalue, multiplicity) pairs for C at q = 1: the exterior-power
    ladder.  N even: j with -k <= j <= k, multiplicity binom(N, k-j);
    N odd: eps*(-1)^(k+j) (k + 1/2 - j) for 0 <= j <= k, multiplicity
    binom(N, j).  The overall (-1)^k is an empirical fact about this
    concrete Clifford module (the 1/2 f (x) f term is blind to the sign
    choice in e_N, so only one global sign is realized; eps = 1 is the
    realized one)."""
    k = rank_of(N)
    out = []
    if N % 2 == 0:
        for j in range(-k, k + 1):
            val = Scalar.from_gauss(GaussRat(j))
            out.append((val, comb(N, k - j)))
    else:
        for j in range(k + 1):
            half = GaussRat(Q(N - 2 * j, 2))
            s = eps * (-1) ** (k + j)
            out.append((Scalar.from_gauss(half if s > 0 else -half), comb(N, j)))
    return out


def quantum_spectrum_candidates(N: int):
    """Candidate eigenvalues (-1)^j (q^{N-2j} - q^{2j-N})/(q^2 - q^{-2}),
    0 <= j <= k for N odd and 0 <= j <= 2k for N even; for N odd the list
    carries the same global (-1)^k as the classical one (it must: the
    eigenvalues degenerate to the classical ones at q = 1)."""
    k = rank_of(N)
    den = (QQ ** 2 - QQ ** (-2)).inv()
    top = k if N % 2 else 2 * k
    glob = (-1) ** k if N % 2 else 1
    out = []
    for j in range(top + 1):
        val = (q_power(2 * (N - 2 * j)) - q_power(-2 * (N - 2 * j))) * den
        out.append(val if (glob * (-1) ** j) > 0 else -val)
    return out


def spectrum_of_C(N: int, classical=False, eps: int = 1) -> SpectrumReport:
    if classical:
        C = build_C_classical(N, eps)
        pairs = classical_spectrum_candidates(N, eps)
        rep = verify_spectrum(C, [v for v, _ in pairs])
        ok = rep.annihilates and all(rep.multiplicities[v] == m for v, m in pairs)
        return SpectrumReport(ok, rep.multiplicities, rep.dim)
    C = build_C_quantum(N)
    return verify_spectrum(C, quantum_spectrum_candidates(N))


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


# -- integrality ------------------------------------------------------------

def integrality_check(C: SparseMatrix, N: int) -> bool:
    """N even: every entry a Gaussian-integer Laurent polynomial in v.
    N odd: every entry becomes one after multiplying by [2]^a, a <= 2."""
    if N % 2 == 0:
        return all(s.has_gaussian_integer_coeffs() for s in C.entries())
    two = qint(2, QQ)
    for s in C.entries():
        ok = False
        t = s
        for _ in range(3):
            if t.has_gaussian_integer_coeffs():
                ok = True
                break
            t = t * two
        if not ok:
            return False
    return True
