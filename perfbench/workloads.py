"""The benchmark's workloads: claim lists over spindual's public API, each
claim paired with an expected answer that does not come from the layer
under test.

A workload is a function ``seed -> [Claim]`` giving the claims of one
pass.  A claim at a specialization point uses the point that
`cli.fft_counts` draws for one of the seeds `point_seeds` picks from
``seed`` on, so the same seed gives the same inputs, and every pass of a
run repeats the same claims on the same points.
Library functions are looked up on their module at call time (never bound
at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from typing import Callable, NamedTuple

from spindual import cli, coideal, intertwiner, linalg, qgroup


class Claim(NamedTuple):
    label: str
    point: str                   # "symbolic" or repr of the point v0
    run: Callable[[], object]    # computes the observed answer
    check: Callable[[object], bool]   # compares it with the expected one


# -- independent oracles ------------------------------------------------------

def zero_matrix(m) -> bool:
    """Every stored entry of a sparse residual is the zero scalar."""
    return all(not x for x in m.data.values())


def all_zero(residuals) -> bool:
    if isinstance(residuals, dict):
        residuals = residuals.values()
    residuals = list(residuals)
    return bool(residuals) and all(zero_matrix(m) for m in residuals)


def is_true(x) -> bool:
    return x is True


def _rational(s) -> Fraction:
    """A constant real Scalar as a Fraction; anything else raises."""
    coeffs = s.num.coeffs
    if not s.den.is_one() or set(coeffs) - {0}:
        raise ValueError(f"eigenvalue {s!r} is not a constant")
    c = coeffs.get(0)
    if c is None:
        return Fraction(0)
    if c.im:
        raise ValueError(f"eigenvalue {s!r} is not real")
    return Fraction(c.re)


def classical_mults(N: int) -> dict:
    """C at q = 1 has the exterior-power ladder: for N = 2k the eigenvalue j
    (|j| <= k) with multiplicity binom(N, k - j); for N = 2k + 1 the
    eigenvalue (-1)^(k+j) (N - 2j)/2 (0 <= j <= k) with binom(N, j)."""
    k = N // 2
    if N % 2 == 0:
        return {Fraction(j): comb(N, k - j) for j in range(-k, k + 1)}
    return {Fraction((-1) ** (k + j) * (N - 2 * j), 2): comb(N, j)
            for j in range(k + 1)}


def classical_spectrum_ok(N: int):
    def check(rep) -> bool:
        seen = {_rational(v): m for v, m in rep.multiplicities.items()}
        return rep.annihilates and seen == classical_mults(N)
    return check


def quantum_spectrum_ok(N: int):
    """The quantum candidates come in the order j = 0, 1, ...; each keeps
    the multiplicity binom(N, j) of its classical limit, and they fill the
    whole 4^k-dimensional space."""
    k = N // 2
    top = k if N % 2 else N

    def check(rep) -> bool:
        return (rep.annihilates and rep.dim == 4 ** k
                and list(rep.multiplicities.values())
                == [comb(N, j) for j in range(top + 1)])
    return check


# Centralizer dimensions: sum of m_lambda^2 over S^(x)n.  Hard-coded here
# so that a regression in `combinat` cannot hide one in `linalg`.
CENTRALIZER_DIM = {(3, 4): 14, (3, 5): 42, (4, 3): 70}


def fft_ok(N: int, n: int):
    want = CENTRALIZER_DIM[(N, n)]

    def check(res) -> bool:
        closure, sum_m2, com, ok = res
        return (ok is True and closure == want and sum_m2 == want
                and com == (want if n <= 3 else None))
    return check


def point_of(seed: int):
    """The specialization point `cli.fft_counts` uses for `seed`."""
    return linalg.random_point(random.Random(seed))


# -- workloads ------------------------------------------------------------------

def symbolic(seed: int) -> list:
    """Identities over Q(i)(v); no specialization point, so the seed does
    not change the claims.  The quantum spectrum stops at N = 6 and the
    coideal relations run on (3,4) only, so that three passes fit in a
    run."""
    out = []
    for N in range(3, 10):
        out.append(Claim(f"verify_relations N={N}", "symbolic",
                         lambda N=N: qgroup.verify_relations(N), is_true))
    for N in range(3, 10):
        out.append(Claim(f"check_commutation N={N}", "symbolic",
                         lambda N=N: intertwiner.check_commutation(N),
                         all_zero))
    for N in range(3, 7):
        out.append(Claim(f"check_cubic N={N}", "symbolic",
                         lambda N=N: intertwiner.check_cubic(N), all_zero))
    for N in range(3, 7):
        out.append(Claim(f"spectrum_of_C quantum N={N}", "symbolic",
                         lambda N=N: intertwiner.spectrum_of_C(N),
                         quantum_spectrum_ok(N)))
    for N in range(3, 7):
        out.append(Claim(f"spectrum_of_C classical N={N}", "q=1",
                         lambda N=N: intertwiner.spectrum_of_C(
                             N, classical=True),
                         classical_spectrum_ok(N)))
    for N in range(3, 9):
        out.append(Claim(f"integrality_check N={N}", "symbolic",
                         lambda N=N: intertwiner.integrality_check(
                             intertwiner.build_C_quantum(N), N), is_true))
    out.append(Claim("check_coideal_relations duality_rep N=3 n=4",
                     "symbolic",
                     lambda: coideal.check_coideal_relations(
                         coideal.duality_rep(3, 4)), all_zero))
    return out


def point_seeds(seed: int, count: int) -> list:
    """The seeds of the points each specialized claim is run at: the first
    `count` seeds from `seed` on whose point has a nonzero imaginary part.
    A real point leaves every imaginary part zero and costs up to 1.4x
    less; the rest still vary, so each claim runs at several points and a
    pass costs about the same for every seed."""
    out = []
    s = seed
    while len(out) < count:
        if point_of(s).im:
            out.append(s)
        s += 1
    return out


# (5,3) is left out: at 7-10 s per point it leaves too few passes in a
# run for a steady median.  (3,6), (4,4) and (5,4) take 40 s, 78 s and
# 202 s per point (2-core Xeon, Python 3.11, Fraction scalars).
CENTRALIZER_GRID = ((3, 4), (3, 5), (4, 3))
CENTRALIZER_POINTS = 3


def centralizer(seed: int) -> list:
    seeds = point_seeds(seed, CENTRALIZER_POINTS)
    return [Claim(f"fft_counts N={N} n={n} seed={s}", repr(point_of(s)),
                  lambda N=N, n=n, s=s: cli.fft_counts(N, n, s),
                  fft_ok(N, n))
            for (N, n) in CENTRALIZER_GRID for s in seeds]


SPEC_CUBIC_N = (6, 7, 8)
SPEC_CUBIC_POINTS = 2


def spec_cubic(seed: int) -> list:
    seeds = point_seeds(seed, SPEC_CUBIC_POINTS)
    out = []
    for N in SPEC_CUBIC_N:
        for s in seeds:
            v0 = point_of(s)
            out.append(Claim(
                f"check_cubic_specialized N={N} seed={s}", repr(v0),
                lambda N=N, v0=v0: intertwiner.check_cubic_specialized(N, v0),
                all_zero))
    return out


WORKLOADS = {"symbolic": symbolic, "centralizer": centralizer,
             "spec_cubic": spec_cubic}


def controls() -> list:
    """Negative controls for the claim runner; both must count as failed.
    N = 2 has no spin representation, so the first claim raises; without
    the f-term the last generator of N = 5 does not commute with C."""
    return [Claim("raises: verify_relations N=2", "symbolic",
                  lambda: qgroup.verify_relations(2), is_true),
            Claim("wrong answer: check_commutation N=5 drop_f_term",
                  "symbolic",
                  lambda: intertwiner.check_commutation(5, drop_f_term=True),
                  all_zero)]
