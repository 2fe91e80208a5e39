import pickle
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from spindual.ring import (GaussRat, LaurentPoly, Scalar, PoleError, Q,
                           LP_ONE, LP_ZERO,
                           ZERO, ONE, I, V, QQ, GR_I,
                           P, is_prime, prime_1_mod, root_of_unity,
                           qint, qint_plus, q_power, sc, unit)
from spindual import ring


def conj(g: GaussRat) -> GaussRat:
    return GaussRat(g.re, -g.im)


def test_gauss_basics():
    a = GaussRat(Q(1, 2), Q(3, 4))
    assert a + conj(a) == GaussRat(1)
    assert a * a.inv() == GaussRat(1)
    assert (GaussRat(0, 1) ** 2) == GaussRat(-1)
    assert GaussRat(3) ** -2 == GaussRat(Q(1, 9))


def test_scalar_canonical_equality():
    # (q^2-q^-2)/(q-q^-1) and q+q^-1 must be structurally equal
    a = (QQ - QQ.inv()) / (V ** 2 - V ** -2) * (V ** 2 + V ** -2)
    # a = (q-q^-1)(q+q^-1)/(q-q^-1) in disguise... just check a known identity:
    assert qint(2) == QQ + QQ.inv()
    assert (QQ ** 2 - QQ ** -2) / (QQ - QQ.inv()) == QQ + QQ.inv()
    assert hash(qint(2)) == hash(QQ + QQ.inv())


def test_qint_values():
    assert qint(0) == ZERO
    assert qint(1) == ONE
    assert qint(-3) == -qint(3)
    # [3] = q^2 + 1 + q^-2
    assert qint(3) == QQ ** 2 + ONE + QQ ** -2
    # half-integer: [1/2] in base q is (v - v^-1)/(q - q^-1)
    assert qint((1, 2)) * (QQ - QQ.inv()) == V - V.inv()
    assert qint((3, 2)) == (V ** 3 - V ** -3) / (QQ - QQ.inv())


@pytest.mark.parametrize("n", [(1, 3), (1, 2, 2)])
def test_qint_half_integer_needs_p_over_2_in_base_q(n):
    with pytest.raises(ValueError, match=r"\(p, 2\), for \[p/2\] in base q"):
        qint(n)


def test_qint_plus():
    m = qint_plus(1)
    assert m * (QQ - QQ.inv()) == I * (QQ + QQ.inv())
    assert qint_plus((3, 2)) * (QQ - QQ.inv()) == I * (V ** 3 + V ** -3)


def substitute_neg_qsq(s):
    """The ring homomorphism v -> i*v^2, i.e. q -> -q^2 with
    (-q^2)^(1/2) = i*q, through the reducing constructor."""
    def subst(p):
        return LaurentPoly({2 * e: c * GR_I ** (e % 4)
                            for e, c in p.coeffs.items()})
    return Scalar(subst(s.num), subst(s.den))


def test_substitution_q_to_minus_qsq():
    # v -> i v^2, so q -> -q^2 and q^(1/2) -> i q
    assert substitute_neg_qsq(QQ) == -(QQ ** 2)
    assert substitute_neg_qsq(V) == I * QQ
    s = qint(2)
    assert substitute_neg_qsq(s) == -(QQ ** 2) - (QQ ** 2).inv()


def test_specialize_and_pole():
    s = ONE / (QQ - ONE)
    with pytest.raises(PoleError):
        s.specialize(GaussRat(1))
    assert s.specialize(GaussRat(2)) == GaussRat(Q(1, 3))
    with pytest.raises(PoleError):
        QQ.specialize(GaussRat(0))


def test_specialize_with_no_point_is_the_scalar():
    # v0 None is no point, not v0 = 0, so no PoleError
    for s in (ONE / (QQ - ONE), QQ, -(QQ ** 2), sc(3)):
        assert s.specialize(None) is s and s.specialize(None, P) is s


def test_laurent_predicates():
    assert QQ.den is LP_ONE
    assert (ONE / qint(2)).den is not LP_ONE
    assert (QQ + I).has_gaussian_integer_coeffs()
    assert not (ONE / sc(2)).has_gaussian_integer_coeffs()


small = st.integers(min_value=-4, max_value=4)


@st.composite
def scalars(draw):
    num = {draw(small): GaussRat(draw(small), draw(small)) for _ in range(draw(st.integers(1, 3)))}
    p = LaurentPoly({e: c for e, c in num.items() if c})
    d = draw(st.sampled_from([None, 1, 2]))
    den = LaurentPoly({0: GaussRat(1)}) if d is None else \
        LaurentPoly({0: GaussRat(1), d: GaussRat(1)})
    return Scalar(p, den)


@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a - a == ZERO
    if b:
        assert (a / b) * b == a


@given(scalars())
def test_specialization_is_homomorphic(s):
    pt = GaussRat(Q(3, 2), Q(1, 3))
    try:
        x = s.specialize(pt)
    except PoleError:
        return
    assert (s * s).specialize(pt) == x * x
    assert (s + ONE).specialize(pt) == x + GaussRat(1)


# -- GaussRat against a plain (Fraction, Fraction) reference ------------------

denoms = st.integers(1, 12) | st.integers(-12, -1)
parts = st.integers(-30, 30) | st.builds(Fraction, st.integers(-30, 30), denoms)
pairs = st.tuples(parts, parts).map(lambda p: (Fraction(p[0]), Fraction(p[1])))


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def ref_repr(x):
    re, im = x
    if not im:
        return str(re)
    if not re:
        return f"{im}*i"
    return f"({re}{'+' if im > 0 else '-'}{abs(im)}*i)"


def gr(x):
    return GaussRat(*x)


def matches(g, x):
    """g is the canonical GaussRat of the reference pair x."""
    assert (g.re, g.im) == x
    assert type(g.re) is Fraction and type(g.im) is Fraction
    assert all(type(t) is int for t in (g.a, g.b, g.d))
    assert g.d > 0 and gcd(g.a, g.b, g.d) == 1
    assert repr(g) == ref_repr(x)
    assert g.is_integer() == (x[0].denominator == 1 and x[1].denominator == 1)
    return True


@given(pairs, pairs, st.integers(-3, 3))
def test_gauss_matches_fraction_reference(x, y, e):
    gx, gy = gr(x), gr(y)
    assert matches(gx, x) and matches(gy, y)
    assert matches(gx + gy, (x[0] + y[0], x[1] + y[1]))
    assert matches(gx - gy, (x[0] - y[0], x[1] - y[1]))
    assert matches(-gx, (-x[0], -x[1]))
    assert matches(gx * gy, ref_mul(x, y))
    assert matches(conj(gx), (x[0], -x[1]))
    assert gx.norm() == x[0] * x[0] + x[1] * x[1]
    assert bool(gx) == any(x)
    if any(y):
        assert matches(gy.inv(), ref_inv(y))
        assert matches(gx / gy, ref_mul(x, ref_inv(y)))
    else:
        with pytest.raises(ZeroDivisionError):
            gy.inv()
    if any(x) or e >= 0:
        want = (Fraction(1), Fraction(0))
        for _ in range(abs(e)):
            want = ref_mul(want, x if e > 0 else ref_inv(x))
        assert matches(gx ** e, want)


@given(pairs, pairs)
def test_gauss_equality_and_hash(x, y):
    gx, gy = gr(x), gr(y)
    assert (gx == gy) == (x == y)
    assert (gx != gy) == (x != y)
    # the same value reached by different routes is equal and hashes equal
    back = (gx + gy) - gy
    assert back == gx and hash(back) == hash(gx)
    if any(y):
        back = gx * gy / gy
        assert back == gx and hash(back) == hash(gx)
    if x[1] == 0 and x[0].denominator == 1:
        assert gx == int(x[0]) and hash(gx) == hash(int(x[0]))
    else:
        assert all(gx != k for k in (-1, 0, 1, int(x[0])))


def test_scalar_eq_foreign_operand():
    assert ONE.__eq__(None) is NotImplemented
    assert ONE.__eq__("1") is NotImplemented
    assert not (ONE == None) and ONE != "1"    # noqa: E711
    assert ONE == 1 and ONE == sc(1) and ONE != sc(2)


# -- F_P and the reduction Q(i) -> F_P, on plain ints -------------------------

residues = st.integers(-3 * P, 3 * P)


def red(g):
    return g.mod_p(P)


@given(residues, residues)
def test_modp_matches_int_mod_p(x, y):
    # an integer reduces to its int residue, 1/x to the inverse mod P
    gx = GaussRat(x)
    assert type(red(gx)) is int and red(gx) == x % P and 0 <= red(gx) < P
    assert red(GaussRat(x) * GaussRat(y)) == x * y % P
    assert red(GaussRat(x) - GaussRat(y)) == (x - y) % P
    if x % P:
        assert red(GaussRat(Q(y, x))) == y * pow(x, -1, P) % P
    elif x:
        with pytest.raises(PoleError):
            red(GaussRat(Q(1, x)))


@given(pairs, pairs)
def test_mod_p_is_ring_homomorphism(x, y):
    gx, gy = gr(x), gr(y)
    assert red(gx + gy) == (red(gx) + red(gy)) % P
    assert red(gx - gy) == (red(gx) - red(gy)) % P
    assert red(-gx) == -red(gx) % P
    assert red(gx * gy) == red(gx) * red(gy) % P
    if any(x):
        assert red(gx.inv()) == pow(red(gx), -1, P)
    assert red(GaussRat(x[0])) == \
        x[0].numerator * pow(x[0].denominator, -1, P) % P


def test_mod_p_images():
    i = root_of_unity(4, P)
    assert i * i % P == P - 1 and P % 4 == 1
    assert GR_I.mod_p(P) == i and GaussRat(2, 3).mod_p(P) == (2 + 3 * i) % P
    with pytest.raises(PoleError):
        GaussRat(Q(1, P)).mod_p(P)
    with pytest.raises(PoleError):
        GaussRat(Q(3, 2 * P), 1).mod_p(P)


@given(scalars())
def test_specialize_mod_p_commutes_with_reduction(s):
    pt = GaussRat(Q(3, 2), Q(1, 3))
    try:
        x = s.specialize(pt)
    except PoleError:
        return
    assert s.specialize(red(pt), P) == red(x)


def test_specialize_mod_p_poles():
    with pytest.raises(PoleError):          # 1/(q - 1) at q = 1 mod P
        (ONE / (QQ - ONE)).specialize(P - 1, P)
    with pytest.raises(PoleError):          # a coefficient with P in its denominator
        Scalar.from_gauss(GaussRat(Q(1, P))).specialize(2, P)
    with pytest.raises(PoleError):
        V.specialize(P, P)


# -- primes p = 1 (mod m) and roots of unity in F_p ---------------------------

def trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


@given(st.integers(-5, 10 ** 5))
@example(2047)            # strong pseudoprimes to base 2
@example(3277)
@example(1373653)         # ... to bases 2 and 3
@example(25326001)        # ... to bases 2, 3 and 5
@example(2 ** 31 - 1)
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == trial_division_prime(n)


def test_prime_1_mod_4_is_P():
    assert prime_1_mod(4) == P
    # P - 1 = 2^2 * 3^2 * 59652323: no root of unity of order 8 or 5
    for m in (8, 5):
        with pytest.raises(ValueError):
            root_of_unity(m, P)


@given(st.integers(1, 400))
@example(4)
@example(36)
def test_prime_1_mod_is_largest_below_2_31(m):
    p = prime_1_mod(m)
    assert (p - 1) % m == 0 and p < 2 ** 31 and trial_division_prime(p)
    assert not any(is_prime(q) for q in range(p + m, 2 ** 31, m))


@given(st.integers(1, 400))
def test_root_of_unity_has_exact_order(m):
    p = prime_1_mod(m)
    r = root_of_unity(m, p)
    assert 0 < r < p and pow(r, m, p) == 1
    assert all(pow(r, d, p) != 1 for d in range(1, m) if not m % d)


# -- the gcd-free fast paths of Scalar + and * --------------------------------

gauss_small = st.builds(GaussRat, small, small)
laurent_polys = st.dictionaries(small, gauss_small, max_size=3).map(
    lambda d: LaurentPoly({e: c for e, c in d.items() if c}))
units = st.builds(lambda e, c: Scalar(LaurentPoly({e: c})), small,
                  gauss_small.filter(bool))
laurents = laurent_polys.map(Scalar)
DENS = [LaurentPoly({0: GaussRat(1), 1: GaussRat(1)}),               # 1 + v
        LaurentPoly({0: GaussRat(1), 2: GaussRat(1)}),               # 1 + v^2
        LaurentPoly({0: GaussRat(2), 1: GaussRat(-3), 2: GaussRat(1)}),
        LaurentPoly({-1: GaussRat(0, 2), 3: GaussRat(Q(1, 2))})]
reduced = st.builds(lambda p, d: Scalar(p, d), laurent_polys,
                    st.sampled_from(DENS))
any_scalar = units | laurents | reduced


def same_fields(got, want):
    """Field for field, with the shared LP_ONE one-denominator and the
    shared LP_ZERO numerator of zero."""
    return (got.num.coeffs == want.num.coeffs
            and got.den.coeffs == want.den.coeffs
            and (got.den is LP_ONE) == (want.den is LP_ONE)
            and (got.num is LP_ZERO) == (want.num is LP_ZERO))


@given(any_scalar, any_scalar)
@example(Scalar(DENS[0]), Scalar(LP_ONE, DENS[0]))        # (1+v) * 1/(1+v)
@example(ONE, Scalar(LP_ONE, DENS[0]))
@example(V, Scalar(LP_ONE, DENS[1]))
@example(Scalar(LP_ONE, DENS[2]), -V ** 3)
@example(Scalar(V.num, DENS[2]), -Scalar(LP_ONE, DENS[2]))  # (v-1)/(v-1)(v-2)
@example(QQ, -QQ)                                         # zero sums
@example(Scalar(V.num, DENS[3]), -Scalar(V.num, DENS[3]))
@example(I * V ** 3, QQ ** -2)                    # monomial * monomial
@example(ZERO, V)
@example(ZERO, Scalar(LP_ONE, DENS[2]))
def test_scalar_fast_paths_match_reduce_path(x, y):
    # Laurent * Laurent, unit * reduced, reduced * unit, Laurent + Laurent,
    # Laurent + reduced, reduced + Laurent and negation skip the gcd; each
    # result must be the one Scalar(num, den) reduces to
    assert same_fields(x * y, Scalar(x.num * y.num, x.den * y.den))
    assert same_fields(y * x, Scalar(y.num * x.num, y.den * x.den))
    want = Scalar(x.num * y.den + y.num * x.den, x.den * y.den)
    assert same_fields(x + y, want) and same_fields(y + x, want)
    assert same_fields(-x, Scalar(-x.num, x.den))
    assert same_fields(x - x, ZERO)


def schoolbook(p, q):
    out = {}
    for e1, c1 in p.coeffs.items():
        for e2, c2 in q.coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, GaussRat(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


terms = st.builds(lambda e, c: LaurentPoly({e: c}), small,
                  gauss_small.filter(bool))


@given(laurent_polys, terms)
@example(LP_ZERO, LaurentPoly({2: GaussRat(3)}))
def test_laurent_times_one_term_is_the_schoolbook_product(p, t):
    # a one-term factor is a single shift-and-scale pass
    want = schoolbook(p, t)
    assert (p * t).coeffs == want and (t * p).coeffs == want
    assert (p * p).coeffs == schoolbook(p, p)


gauss_ints = st.tuples(st.integers(-30, 30), st.integers(-30, 30)).map(
    lambda p: (Fraction(p[0]), Fraction(p[1])))


@given(gauss_ints, gauss_ints)
@example((Fraction(2), Fraction(3)), (Fraction(-2), Fraction(-3)))
def test_gauss_integer_fast_paths_are_canonical(x, y):
    # two Gaussian integers (d = 1) skip the gcd, as gcd(a, b, 1) = 1
    gx, gy = gr(x), gr(y)
    assert matches(gx * gy, ref_mul(x, y))
    assert matches(gx + gy, (x[0] + y[0], x[1] + y[1]))
    assert matches(gx - gy, (x[0] - y[0], x[1] - y[1]))


@given(laurent_polys, pairs.filter(any))
def test_specialize_laurent_is_sum_of_terms(p, x):
    v0 = gr(x)
    want = GaussRat(0)
    for e, c in p.coeffs.items():
        want = want + c * v0 ** e
    assert Scalar(p).specialize(v0) == want
    assert p.evaluate(v0) == want


def test_laurent_eq_foreign_operand():
    assert LP_ONE.__eq__(None) is NotImplemented
    assert not (LP_ONE == None) and LP_ONE != 1    # noqa: E711
    assert LP_ONE == LaurentPoly({0: GaussRat(1)})


# -- a denominator equal to one is the shared LP_ONE ---------------------------

@given(any_scalar, any_scalar)
@example(Scalar(LaurentPoly({0: GaussRat(1)}), DENS[0]), ONE)   # inv: 1/(1+v)
@example(QQ, Scalar(LP_ONE, DENS[1]))
def test_one_valued_denominator_is_lp_one(x, y):
    # every way of making a Scalar stores LP_ONE itself for a denominator
    # equal to one, so `den is LP_ONE` tests for it; repr is as by value
    made = [x + y, x - y, x * y, -x, substitute_neg_qsq(x),
            Scalar(x.num, LaurentPoly({0: GaussRat(1)}))]
    if x:
        made += [x.inv(), y / x]
    for s in made:
        one = s.den == LaurentPoly({0: GaussRat(1)})
        assert (s.den is LP_ONE) == one
        assert repr(s) == (repr(s.num) if one else f"({s.num!r})/({s.den!r})")


# -- shared units i^k v^e --------------------------------------------------------

def plain(e: int, k: int) -> Scalar:
    """i^k v^e through the reducing constructor: a Scalar with no unit
    marker, as one unpickled from before units existed."""
    return Scalar(LaurentPoly({e: GR_I ** k}))


def is_unit(s: Scalar, e: int, k: int) -> bool:
    return type(s) is ring._Unit and (s.e, s.k) == (e, k % 4)


UNIT_EXPONENTS = list(product(range(-6, 7), range(4)))


def test_unit_arithmetic_matches_the_general_path():
    # a product, negation or inverse of units is the unit of the new
    # exponents, and field for field (hash included) the Scalar the general
    # path builds from the same values without the marker
    for e, k in UNIT_EXPONENTS:
        x, px = unit(e, k), plain(e, k)
        assert same_fields(x, px) and x == px and hash(x) == hash(px)
        assert type(px) is Scalar
        for got, want, ek in ((-x, -px, (e, k + 2)),
                              (x.inv(), px.inv(), (-e, -k))):
            assert is_unit(got, *ek) and got is unit(*ek)
            assert same_fields(got, want) and hash(got) == hash(want)
        for f, j in UNIT_EXPONENTS:
            got, want = x * unit(f, j), px * plain(f, j)
            assert is_unit(got, e + f, k + j)
            assert same_fields(got, want) and hash(got) == hash(want)
            assert same_fields(got, Scalar(px.num * plain(f, j).num))


def test_named_constants_are_units():
    assert is_unit(ONE, 0, 0) and is_unit(I, 0, 1) and is_unit(-ONE, 0, 2)
    assert is_unit(V, 1, 0) and is_unit(QQ, 2, 0)
    for e in range(-6, 7):
        assert Scalar.v_power(e) is unit(e, 0) is q_power(e)
    assert unit(3, 5) is unit(3, 1) and unit(3, -1) is unit(3, 3)


def test_units_pickle_and_marker_free_scalars_multiply():
    for e, k in ((0, 0), (3, 1), (-2, 3)):
        u = pickle.loads(pickle.dumps(unit(e, k)))
        assert u is unit(e, k)
        assert is_unit(u * u, 2 * e, 2 * k) and -u == -unit(e, k)
        # a marker-free Scalar of the same value takes the general path
        p = pickle.loads(pickle.dumps(plain(e, k)))
        assert type(p) is Scalar
        for y in (unit(1, 1), plain(1, 1), Scalar(LP_ONE, DENS[0])):
            assert p * y == unit(e, k) * y == y * p
        assert p.inv() == unit(e, k).inv() and -p == -unit(e, k)


@given(any_scalar)
@example(QQ + V)
@example(ZERO)
def test_pickled_scalars_keep_their_canonical_form(x):
    # a reloaded denominator equal to one is the shared LP_ONE again, so
    # every `den is LP_ONE` test answers as before
    y = pickle.loads(pickle.dumps(x))
    assert y == x and same_fields(y, x) and hash(y) == hash(x)
    assert (y.den is LP_ONE) == (x.den is LP_ONE) and repr(y) == repr(x)
    assert type(y) is type(x)


def test_units_stay_correct_after_the_cache_is_cleared():
    before = unit(4, 3)
    unit.cache_clear()
    after = unit(4, 3)
    assert after is not before and after == before
    assert is_unit(after * before, 8, 6) and after * before == plain(8, 2)
    assert ONE * after == after and (I * I) == -ONE
