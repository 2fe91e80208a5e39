"""Fermionic operators on the 2^k-dimensional spinor space.

Basis vectors x(m) are indexed by bitmasks m in {0,1}^k with the first
slot as the most significant bit, so x(00..0) sits at index 0.  Signs come
from the usual Koszul rule via the prefix sums m{r} = m_1 + ... + m_r.
"""

from __future__ import annotations

from functools import lru_cache

from .ring import Scalar, I, q_power, sc, unit
from .linalg import SparseMatrix


def bit(m: int, j: int, k: int) -> int:
    """The j-th slot of the mask (1-based, slot 1 most significant)."""
    return (m >> (k - j)) & 1


def prefix(m: int, r: int, k: int) -> int:
    """m{r} = m_1 + ... + m_r."""
    if r <= 0:
        return 0
    return bin(m >> (k - r)).count("1")


def _sign(s: int) -> Scalar:
    """(-1)^s, as a unit."""
    return unit(0, 2 * (s & 1))


@lru_cache(maxsize=None)
def creat(j: int, k: int) -> SparseMatrix:
    """psi^dag_j: sends x(m) to (-1)^{m{j-1}} x(m with slot j filled)."""
    out = {}
    hi = k - j
    for m in range(1 << k):
        if not (m >> hi) & 1:
            out[(m | (1 << hi), m)] = _sign(prefix(m, j - 1, k))
    return SparseMatrix(1 << k, 1 << k, out)


@lru_cache(maxsize=None)
def annih(j: int, k: int) -> SparseMatrix:
    """psi_j, the transpose of creat(j, k)."""
    return creat(j, k).transpose()


@lru_cache(maxsize=None)
def omega(j: int, k: int, power: int = 1) -> SparseMatrix:
    """omega_j^power = diag(q^{-power * m_j})."""
    return SparseMatrix(1 << k, 1 << k,
                        {(m, m): q_power(-2 * power * bit(m, j, k))
                         for m in range(1 << k)})


@lru_cache(maxsize=None)
def Omega(r: int, k: int, power: int = 1) -> SparseMatrix:
    """(omega_1 ... omega_r)^{2*power} = diag(q^{-2*power*m{r}})."""
    return SparseMatrix(1 << k, 1 << k,
                        {(m, m): q_power(-4 * power * prefix(m, r, k))
                         for m in range(1 << k)})


@lru_cache(maxsize=None)
def parity(s: int, k: int) -> SparseMatrix:
    """f_{2s} = diag((-1)^{m{s}}); equals the ordered product of the
    commutators (psi_j psi^dag_j - psi^dag_j psi_j) for j <= s."""
    return SparseMatrix(1 << k, 1 << k,
                        {(m, m): _sign(prefix(m, s, k)) for m in range(1 << k)})


def clifford_generator(j: int, k: int, eps: int = 1) -> SparseMatrix:
    """Self-adjoint Clifford generators e_1, ..., e_{2k+1}:
    e_{2i-1} = psi_i + psi^dag_i, e_{2i} = -i(psi_i - psi^dag_i),
    e_{2k+1} = eps * f_{2k}.
    """
    if j == 2 * k + 1:
        return parity(k, k).scale(sc(eps))
    i = (j + 1) // 2
    if j % 2:
        return annih(i, k) + creat(i, k)
    return (annih(i, k) - creat(i, k)).scale(-I)
