"""Weight combinatorics for the spinor tensor tower: dominant weights as
tuples of doubled integers (so no fractions appear anywhere), the
one-step tensor rule with all 2^k half-spin shifts, complements in the
(N/2) x (n/2) rectangle, interleaving branching chains on the dual side,
Weyl dimensions, and the level-truncated (fusion) variant.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product


# -- dominant weights on the spinor side ------------------------------------

def is_dominant(w, N: int) -> bool:
    """Doubled-coordinate dominance: weakly decreasing, last entry >= 0 for
    N odd; for N even the last entry may be negative with |w_k| <= w_{k-1}."""
    k = N // 2
    if len(w) != k:
        return False
    for i in range(k - 2):
        if w[i] < w[i + 1]:
            return False
    last = abs(w[k - 1]) if N % 2 == 0 else w[k - 1]
    if last < 0:
        return False
    return k < 2 or w[k - 2] >= last


def is_admissible(w, N: int, level: int) -> bool:
    """Level truncation: lambda_1 + lambda_2 + N - 2 <= level."""
    second = abs(w[1]) if len(w) > 1 else 0
    return Fraction(w[0] + second, 2) + N - 2 <= level


def tensor_with_spinor(table: dict, N: int, level: int = None) -> dict:
    """One application of V_lambda (x) S = sum over mu = lambda + (half-spin
    weight): add all 2^k sign vectors (+-1)/2 and keep the dominant (and,
    in fusion mode, level-admissible) results."""
    k = N // 2
    out = {}
    for w, mult in table.items():
        for signs in product((1, -1), repeat=k):
            mu = tuple(a + s for a, s in zip(w, signs))
            if not is_dominant(mu, N):
                continue
            if level is not None and not is_admissible(mu, N, level):
                continue
            out[mu] = out.get(mu, 0) + mult
    return out


def spinor_table(N: int, n: int, level: int = None) -> dict:
    """Multiplicities of S^(x)n, i.e. n tensor steps from the trivial weight."""
    k = N // 2
    table = {(0,) * k: 1}
    for _ in range(n):
        table = tensor_with_spinor(table, N, level)
    return table


# -- Weyl dimension ---------------------------------------------------------

@lru_cache(maxsize=None)
def weyl_dim(w, N: int) -> int:
    """Dimension of the simple so_N module with doubled highest weight w,
    via the product formula over positive roots; sign of the last entry is
    immaterial for N even."""
    k = N // 2
    if N % 2:
        rho = [2 * (k - i) + 1 for i in range(1, k + 1)]   # doubled
    else:
        rho = [2 * (k - i) for i in range(1, k + 1)]
    l = [abs(w[i]) + rho[i] if i == k - 1 else w[i] + rho[i] for i in range(k)]
    dim = Fraction(1)
    for i in range(k):
        for j in range(i + 1, k):
            dim *= Fraction(l[i] ** 2 - l[j] ** 2, rho[i] ** 2 - rho[j] ** 2)
    if N % 2:
        for i in range(k):
            dim *= Fraction(l[i], rho[i])
    if dim.denominator != 1 or dim <= 0:
        raise ValueError(f"weight {tuple(w)} of so_{N} has Weyl dimension "
                         f"{dim}, not a positive integer")
    return int(dim)


# -- complements ------------------------------------------------------------

def complement(w, N: int, n: int):
    """The dual-side label of a weight in S^(x)n.

    N odd: a half-integer (doubled-odd) tuple of length floor(n/2):
    lambda^c_j = N/2 - #{i : lambda_i >= n/2 + 1 - j}.

    N even: a Young diagram (tuple of row lengths) read off the reflected
    complement in the k x (n/2)-ish rectangle: column j of the complement
    has height (n - 2 lambda_{k+1-j})/2, columns come out sorted, and the
    rows are their conjugate."""
    k = N // 2
    if N % 2:
        out = []
        for j in range(1, n // 2 + 1):
            cnt = sum(1 for d in w if d >= n + 2 - 2 * j)
            out.append(N - 2 * cnt)
        return tuple(out)
    return conjugate([(n - w[k - j]) // 2 for j in range(1, k + 1)])


# -- branching chains on the dual side --------------------------------------

def _half_range(lo, hi):
    """Doubled-odd values d with lo <= d <= hi."""
    start = lo if lo % 2 else lo + 1
    return range(start, hi + 1, 2)


@lru_cache(maxsize=None)
def branch_halfint(mu, n: int):
    """One branching step for an all-half-integer label of the rank-floor(n/2)
    coideal: interleaving labels one level down.

    n = 2k: mu_1 >= nu_1 >= mu_2 >= ... >= nu_{k-1} >= mu_k (> 0), giving
    length k-1; n = 2k+1: mu_1 >= nu_1 >= ... >= mu_k >= nu_k >= 1/2,
    giving length k.  All entries half-integers."""
    k = n // 2
    if n % 2 == 0:
        bounds = [(mu[i + 1], mu[i]) for i in range(k - 1)]
    else:
        bounds = [(mu[i + 1] if i + 1 < k else 1, mu[i]) for i in range(k)]
    return list(product(*[_half_range(lo, hi) for lo, hi in bounds]))


@lru_cache(maxsize=None)
def gz_dimension(mu, n: int) -> int:
    """Number of full branching chains from the label mu down the tower;
    this is the dimension of the corresponding simple module."""
    if n <= 2:
        return 1
    return sum(gz_dimension(nu, n - 1) for nu in branch_halfint(mu, n))


def conjugate(diag):
    out = []
    i = 1
    while True:
        c = sum(1 for r in diag if r >= i)
        if c == 0:
            return tuple(out)
        out.append(c)
        i += 1


def valid_o_label(diag, n: int) -> bool:
    """A Young diagram labels a simple O(n) object iff the first two column
    heights sum to at most n."""
    c = conjugate(diag)
    return (c[0] if c else 0) + (c[1] if len(c) > 1 else 0) <= n


@lru_cache(maxsize=None)
def branch_diagram(diag, n: int):
    """O(n) -> O(n-1) restriction: remove at most one box per column block,
    i.e. all diagrams interleaving row-wise, kept only if valid for O(n-1)."""
    rows = list(diag) + [0]
    bounds = [(rows[i + 1], rows[i]) for i in range(len(rows) - 1)]
    out = []
    for choice in product(*[range(lo, hi + 1) for lo, hi in bounds]):
        nu = tuple(c for c in choice if c > 0)
        if valid_o_label(nu, n - 1):
            out.append(nu)
    return out


@lru_cache(maxsize=None)
def diagram_dimension(diag, n: int) -> int:
    """Chain count for an O(n) diagram label down to O(1)."""
    if n <= 1:
        return 1
    return sum(diagram_dimension(nu, n - 1) for nu in branch_diagram(diag, n))


def dual_dimension(w, N: int, n: int) -> int:
    """Dimension of the dual-side module attached to the spinor-side weight."""
    c = complement(w, N, n)
    if N % 2:
        return gz_dimension(c, n)
    return diagram_dimension(c, n)


# -- the duality check ------------------------------------------------------

def fmt_weight(doubled) -> str:
    """A doubled weight in halves: (3, 1) -> '3/2,1/2'."""
    return ",".join(str(Fraction(d, 2)) for d in doubled)


def duality_residuals(N: int, n: int) -> dict:
    """{relation: residual} for the duality of S^(x)n: per weight, its
    multiplicity minus the dimension of the complementary dual-side module,
    and `total` = sum of m * dim(V_lambda) - (2^k)^n."""
    k = N // 2
    out = {}
    total = 0
    for w, m in spinor_table(N, n).items():
        out[f"m({fmt_weight(w)}) - dual dim"] = m - dual_dimension(w, N, n)
        total += m * weyl_dim(w, N)
    out["total"] = total - (1 << k) ** n
    return out
