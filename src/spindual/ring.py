"""Exact scalar arithmetic: Gaussian rationals, Laurent polynomials in the
formal variable v (with q = v^2), and reduced rational functions.

All coefficients that show up in this project live in the field
Q(i)(v): quantum integers, half-integer powers of q (= odd powers of v),
and the imaginary unit needed for the substitution q -> -q^2.

A Gaussian rational is stored as three Python ints (a, b, d) meaning
(a + b*i)/d, in the canonical form d > 0 and gcd(a, b, d) = 1, so equal
values have equal triples.  `Q` (= fractions.Fraction) is only the type
of rational inputs and of the `re`/`im`/`norm` views.

Most entries of the operators are units i^k v^e: the +-1 of the fermion
operators and the parity, the powers of v of K_i and Omega_r, and their
products.  `unit(e, k)` is the one shared Scalar of each, and it carries
its (e, k), so a product, negation or inverse of units adds or negates
exponents and looks the result up, with no Gaussian-rational arithmetic.
Equality and hashing stay structural: a Scalar equal to a unit but built
otherwise (or pickled before units existed) is a plain Scalar and takes
the general path, to the same result.

F_p is ints in [0, p) with the prime p passed explicitly: i maps to
`root_of_unity(4, p)` (p = 1 mod 4) in `GaussRat.mod_p(p)` and
`Scalar.specialize(v0, p)`.  The centralizer and spectrum counts run
there at the prime `P`; `prime_1_mod(m)` gives primes for other orders.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from math import gcd


class PoleError(ZeroDivisionError):
    """Raised when a specialization point is unusable: a zero of a
    denominator (mod p for a point mod p), a denominator p divides, or a
    root of unity where a count needs a generic point."""


class CheckFailure(ArithmeticError):
    """Raised on purpose by a check whose computed data contradict the
    claim or leave it uncertified; the CLI reports it as FAIL or
    MISMATCH (exit 1), and any other exception as a crash (exit 3)."""


_new = object.__new__


def _gr(a: int, b: int, d: int) -> "GaussRat":
    """(a + b*i)/d, already canonical."""
    g = _new(GaussRat)
    g.a = a
    g.b = b
    g.d = d
    return g


def _canon(a: int, b: int, d: int) -> "GaussRat":
    """(a + b*i)/d for any d > 0, reduced by gcd(a, b, d)."""
    if d == 1:          # gcd(a, b, 1) = 1
        return _gr(a, b, 1)
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _gr(a, b, d)


def _power(x, n: int, one):
    """x^n by repeated squaring; x^-1 is raised to -n for n < 0."""
    if n < 0:
        x, n = x.inv(), -n
    out = one
    while n:
        if n & 1:
            out = out * x
        x = x * x
        n >>= 1
    return out


def _add(x: "GaussRat", a2: int, b2: int, d2: int) -> "GaussRat":
    """x + (a2 + b2*i)/d2."""
    d1 = x.d
    if d1 == d2:
        if d1 == 1:
            return _gr(x.a + a2, x.b + b2, 1)
        return _canon(x.a + a2, x.b + b2, d1)
    g = gcd(d1, d2)
    m1, m2 = d2 // g, d1 // g
    return _canon(x.a * m1 + a2 * m2, x.b * m1 + b2 * m2, d1 * m1)


P = 2147483629          # prime_1_mod(4): largest prime < 2^31, = 1 mod 4


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the bases 2, 3, 5, 7, exact for every
    n < 3215031751 (Jaeschke 1993), so for every n below 2^31."""
    if n < 2:
        return False
    for b in (2, 3, 5, 7):
        if not n % b:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    # b witnesses that n is composite unless b^d = 1 or b^(2^r d) = -1
    # for some r < s
    for b in (2, 3, 5, 7):
        x = pow(b, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def prime_1_mod(m: int) -> int:
    """The largest prime p < 2^31 with p = 1 (mod m): F_p then holds the
    m-th roots of unity, and i as well when 4 divides m."""
    for p in range(((1 << 31) - 2) // m * m + 1, 1, -m):
        if is_prime(p):
            return p
    raise ValueError(f"no prime below 2^31 is 1 mod {m}")


@lru_cache(maxsize=None)
def root_of_unity(m: int, p: int) -> int:
    """The first g^((p-1)/m) mod p, g = 2, 3, ..., of exact order m (for
    m = 4 a square root of -1, the image of i); a ValueError if m does not
    divide p - 1."""
    if (p - 1) % m:
        raise ValueError(f"F_{p} has no primitive {m}-th root of unity")
    qs = {q for q in range(2, m + 1) if not m % q and is_prime(q)}
    for g in range(2, p):
        r = pow(g, (p - 1) // m, p)
        if all(pow(r, m // q, p) != 1 for q in qs):
            return r


class GaussRat:
    """Gaussian rational (a + b*i)/d with ints a, b, d in canonical form.

    `GaussRat(re, im)` takes ints or Fractions; `a`, `b`, `d` are read-only
    by convention, `re` and `im` give the parts as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re, im = Q(re), Q(im)
        dr, di = re.denominator, im.denominator
        d = dr // gcd(dr, di) * di
        # re and im are reduced, so gcd(a, b, d) = 1 already
        self.a = re.numerator * (d // dr)
        self.b = im.numerator * (d // di)
        self.d = d

    @property
    def re(self) -> Q:
        return Q(self.a, self.d)

    @property
    def im(self) -> Q:
        return Q(self.b, self.d)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, GaussRat):
            return (self.a == other.a and self.b == other.b
                    and self.d == other.d)
        if isinstance(other, int):
            return self.a == other and self.b == 0 and self.d == 1
        return NotImplemented

    def __hash__(self):
        # an integer value hashes as that int, since it compares equal to it
        if self.b == 0 and self.d == 1:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __add__(self, other):
        return _add(self, other.a, other.b, other.d)

    def __sub__(self, other):
        return _add(self, -other.a, -other.b, other.d)

    def __neg__(self):
        return _gr(-self.a, -self.b, self.d)

    def __mul__(self, other):
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        d = self.d * other.d
        if d == 1:
            return _gr(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, 1)
        return _canon(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d)

    def mod_p(self, p: int) -> int:
        """The image in F_p, an int in [0, p), under i -> root_of_unity(4, p);
        a ring homomorphism on the Gaussian rationals whose denominator p
        does not divide."""
        a, d = self.a, self.d
        if not d % p:
            raise PoleError(f"the denominator of {self!r} is divisible by "
                            f"p = {p}")
        if self.b:
            a += self.b * root_of_unity(4, p)
        return a % p if d == 1 else a * pow(d, -1, p) % p

    def norm(self) -> Q:
        return Q(self.a * self.a + self.b * self.b, self.d * self.d)

    def inv(self):
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero GaussRat")
        # 1/((a + b*i)/d) = d*(a - b*i)/(a^2 + b^2)
        return _canon(d * a, -d * b, n)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, n: int):
        return _power(self, n, GR_ONE)

    def is_integer(self):
        return self.d == 1

    def __repr__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}*i"
        return f"({re}{'+' if im > 0 else '-'}{abs(im)}*i)"


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)
GR_I = GaussRat(0, 1)


def require_generic(v0: GaussRat) -> None:
    """Raise PoleError if v0 is a root of unity: +-1 and +-i are the only
    ones in Q(i), and there q = v0^2 is one too, so S^(x)n need not be
    semisimple and the checks that rely on it are unsound."""
    if v0 ** 4 == 1:
        raise PoleError(f"v0 = {v0!r} is a root of unity, where S^(x)n is "
                        f"not semisimple")


def _lp(coeffs: dict) -> "LaurentPoly":
    """The LaurentPoly on `coeffs`, which holds no zero coefficient."""
    p = _new(LaurentPoly)
    p.coeffs = coeffs
    return p


class LaurentPoly:
    """Laurent polynomial in v with GaussRat coefficients.

    Stored as {exponent: coefficient} with no zero coefficients;
    the empty dict is the zero polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = coeffs if coeffs is not None else {}

    @staticmethod
    def const(c: GaussRat) -> "LaurentPoly":
        return LaurentPoly({0: c} if c else {})

    def is_one(self):
        return len(self.coeffs) == 1 and self.coeffs.get(0) == GR_ONE

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _lp(out)

    def __neg__(self):
        return _lp({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        x, y = self.coeffs, other.coeffs
        if not x or not y:
            return LP_ZERO
        if len(x) == 1:
            x, y = y, x
        if len(y) == 1:
            # times c*v^e: one shift-and-scale pass, as the exponents stay
            # distinct and a product of nonzero Gaussian rationals is nonzero
            (e2, c2), = y.items()
            return _lp({e + e2: c * c2 for e, c in x.items()})
        out = {}
        for e1, c1 in x.items():
            for e2, c2 in y.items():
                e = e1 + e2
                p = c1 * c2
                s = out.get(e)
                if s is None:
                    out[e] = p
                else:
                    s = s + p
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return _lp(out)

    def scale(self, c: GaussRat):
        if not c:
            return LP_ZERO
        return LaurentPoly({e: k * c for e, k in self.coeffs.items()})

    def shift(self, n: int):
        """Multiply by v^n."""
        return LaurentPoly({e + n: c for e, c in self.coeffs.items()})

    def valuation(self):
        return min(self.coeffs) if self.coeffs else 0

    def degree(self):
        return max(self.coeffs) if self.coeffs else 0

    def leading(self) -> GaussRat:
        return self.coeffs[self.degree()]

    def trailing(self) -> GaussRat:
        return self.coeffs[self.valuation()]

    def is_monomial(self):
        return len(self.coeffs) == 1

    def evaluate(self, v0, p: int = None):
        """The value at v = v0: a GaussRat, or with a prime p the int in
        [0, p) at the nonzero residue v0, coefficients reduced mod p."""
        coeffs = self.coeffs
        if p is not None:
            return sum(c.mod_p(p) * pow(v0, e, p)
                       for e, c in coeffs.items()) % p
        if not coeffs:
            return GR_ZERO
        # Horner from the top exponent down to the lowest one, lo, then one
        # factor v0^lo (a single inversion of v0 if lo < 0)
        lo, hi = min(coeffs), max(coeffs)
        out = coeffs[hi]
        for e in range(hi - 1, lo - 1, -1):
            out = out * v0
            c = coeffs.get(e)
            if c is not None:
                out = out + c
        return out * v0 ** lo if lo else out

    def __repr__(self):
        return " + ".join(f"{c!r}" + ("" if e == 0 else "*v" if e == 1
                                      else f"*v^{e}")
                          for e, c in sorted(self.coeffs.items())) or "0"


LP_ZERO = LaurentPoly({})
LP_ONE = LaurentPoly({0: GR_ONE})


def _poly_divmod(a: LaurentPoly, b: LaurentPoly):
    """Division with remainder for ordinary (nonnegative-exponent) polynomials."""
    rem = dict(a.coeffs)
    db = b.degree()
    lb = b.leading().inv()
    quot = {}
    while rem:
        da = max(rem)
        if da < db:
            break
        f = rem[da] * lb
        quot[da - db] = f
        for e, c in b.coeffs.items():
            t = e + da - db
            s = rem.get(t, GR_ZERO) - c * f
            if s:
                rem[t] = s
            elif t in rem:
                del rem[t]
    return LaurentPoly(quot), LaurentPoly(rem)


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd, ignoring v-monomial factors (units in the Laurent ring)."""
    a = a.shift(-a.valuation()) if a else LP_ZERO
    b = b.shift(-b.valuation()) if b else LP_ZERO
    while b:
        a, b = b, _poly_divmod(a, b)[1]
        if b:
            b = b.shift(-b.valuation())
    if not a:
        return LP_ZERO
    return a.scale(a.leading().inv())


def _sc(num: LaurentPoly, den: LaurentPoly = LP_ONE) -> "Scalar":
    """num/den, already canonical (a zero num stores LP_ZERO over LP_ONE)."""
    s = _new(Scalar)
    s.num, s.den = (num, den) if num.coeffs else (LP_ZERO, LP_ONE)
    return s


class Scalar:
    """Reduced rational function num/den in v over the Gaussian rationals.

    Canonical form: gcd(num, den) = 1 up to units, den has valuation 0 and
    trailing coefficient 1, and a den equal to one is the shared LP_ONE.
    Equality is then structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = LP_ONE):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num = LP_ZERO
            self.den = LP_ONE
            return
        if den is not LP_ONE and den.is_one():
            den = LP_ONE          # shared, so `den is LP_ONE` tests for one
        elif den is not LP_ONE:
            if not den.is_monomial():
                g = poly_gcd(num, den)
                if not g.is_one():
                    num = _poly_divmod(num.shift(-num.valuation()), g)[0].shift(num.valuation())
                    den = _poly_divmod(den.shift(-den.valuation()), g)[0].shift(den.valuation())
            # normalize: den valuation 0, trailing coefficient 1
            e = den.valuation()
            c = den.trailing().inv()
            num = num.shift(-e).scale(c)
            den = LP_ONE if den.is_monomial() else den.shift(-e).scale(c)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_int(n: int) -> "Scalar":
        return _sc(LaurentPoly.const(GaussRat(n)))

    @staticmethod
    def from_gauss(c: GaussRat) -> "Scalar":
        return _sc(LaurentPoly.const(c))

    @staticmethod
    def v_power(e: int) -> "Scalar":
        return unit(e, 0)

    # -- predicates --------------------------------------------------------
    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, int):
            return self == Scalar.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic --------------------------------------------------------
    # Both operands are reduced, so these cases need no gcd (Knuth, TAOCP
    # vol. 2, 4.5.1): Laurent plus or times Laurent is Laurent; a Laurent c
    # plus a/b is (a + c*b)/b, as gcd(a + c*b, b) = gcd(a, b) = 1; a unit
    # c*v^e times a/b is (c*v^e*a)/b.  b is already normalized, so `_sc`
    # stores what the reduce path gives, field for field.
    def __add__(self, other):
        sd, od = self.den, other.den
        if sd is LP_ONE:
            if od is LP_ONE:
                return _sc(self.num + other.num)
            return _sc(self.num * od + other.num, od)
        if od is LP_ONE:
            return _sc(self.num + other.num * sd, sd)
        if sd == od:
            return Scalar(self.num + other.num, sd)
        return Scalar(self.num * od + other.num * sd, sd * od)

    def __neg__(self):
        if type(self) is _Unit:
            return unit(self.e, (self.k + 2) & 3)
        return _sc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(self) is _Unit and type(other) is _Unit:
            return unit(self.e + other.e, (self.k + other.k) & 3)
        sd, od = self.den, other.den
        if sd is LP_ONE:
            if od is LP_ONE:
                x, y = self.num.coeffs, other.num.coeffs
                if len(x) == 1 == len(y):       # c1 v^e1 times c2 v^e2
                    (e1, c1), = x.items()
                    (e2, c2), = y.items()
                    return _sc(_lp({e1 + e2: c1 * c2}))
                return _sc(self.num * other.num)
            if self.num.is_monomial():
                return _sc(self.num * other.num, od)
        elif od is LP_ONE and other.num.is_monomial():
            return _sc(self.num * other.num, sd)
        return Scalar(self.num * other.num, sd * od)

    def inv(self):
        if type(self) is _Unit:
            return unit(-self.e, -self.k & 3)
        if not self.num:
            raise ZeroDivisionError("inverse of zero Scalar")
        return Scalar(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, n: int):
        return _power(self, n, ONE)

    def specialize(self, v0, p: int = None):
        """Exact evaluation at v = v0, a GaussRat; or, with a prime p, at the
        int v0 mod p, giving an int in [0, p).  Raises PoleError on a
        denominator zero (mod p with a prime) and, with a prime, on a
        coefficient whose denominator p divides.  v0 None (no point) gives
        the Scalar itself."""
        if v0 is None:
            return self
        if p is not None:
            v0 %= p
        if not v0:
            raise PoleError("v0 = 0 is never a valid specialization point")
        num = self.num.evaluate(v0, p)
        if self.den is LP_ONE:
            return num
        d = self.den.evaluate(v0, p)
        if not d:
            raise PoleError(f"denominator vanishes at v0 = {v0!r}")
        return num * d.inv() if p is None else num * pow(d, -1, p) % p

    def has_gaussian_integer_coeffs(self):
        return self.den is LP_ONE and all(c.is_integer() for c in self.num.coeffs.values())

    def __repr__(self):
        if self.den is LP_ONE:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"

    def __reduce__(self):
        # through __init__, so that a reloaded denominator equal to one is
        # the shared LP_ONE again
        return Scalar, (self.num, self.den)


class _Unit(Scalar):
    """A Scalar i^k v^e that carries (e, k), 0 <= k < 4; made by `unit`
    only."""

    __slots__ = ("e", "k")

    def __reduce__(self):
        return unit, (self.e, self.k)


_I_POWERS = (GR_ONE, GR_I, GaussRat(-1), GaussRat(0, -1))


@lru_cache(maxsize=None)
def unit(e: int, k: int) -> Scalar:
    """The shared Scalar i^k v^e, k taken mod 4.

    i^a v^e * i^b v^f = i^(a+b) v^(e+f), (i^k v^e)^-1 = i^-k v^-e and
    -(i^k v^e) = i^(k+2) v^e are exactly the canonical Scalars the general
    path builds (numerator the one term i^k v^e, denominator LP_ONE), field
    for field, so `Scalar.__mul__`, `__neg__` and `inv` return `unit` of
    the new exponents when their operands are units."""
    if not 0 <= k < 4:
        return unit(e, k & 3)
    u = _new(_Unit)
    u.num, u.den, u.e, u.k = _lp({e: _I_POWERS[k]}), LP_ONE, e, k
    return u


ZERO = Scalar.from_int(0)
ONE = unit(0, 0)
TWO = Scalar.from_int(2)
I = unit(0, 1)
V = Scalar.v_power(1)
QQ = Scalar.v_power(2)          # the deformation parameter q = v^2


def sc(n: int) -> Scalar:
    return Scalar.from_int(n)


def q_power(e2: int) -> Scalar:
    """q^(e2/2) as a monomial in v: handles half-integer powers of q exactly."""
    return Scalar.v_power(e2)


def qint(n) -> Scalar:
    """Quantum integer [n] = (q^n - q^-n)/(q - q^-1).

    `n` may be an int or a half-integer given as an exact ratio p/2 via a
    2-tuple (p, 2): [p/2] = (v^p - v^-p)/(q - q^-1).  [-n] = -[n] and
    [0] = 0, [1] = 1.
    """
    if isinstance(n, tuple):
        if len(n) != 2 or n[1] != 2:
            raise ValueError("a half-integer quantum integer is (p, 2), "
                             "for [p/2] in base q")
        return (Scalar.v_power(n[0]) - Scalar.v_power(-n[0])) / (QQ - QQ.inv())
    return (QQ ** n - QQ ** (-n)) / (QQ - QQ.inv())


def qint_plus(n) -> Scalar:
    """The shifted symbol [n]^+ = i(q^n + q^-n)/(q - q^-1), n an int or (p, 2)."""
    if isinstance(n, tuple):
        p, _ = n
        top = Scalar.v_power(p) + Scalar.v_power(-p)
    else:
        top = QQ ** n + QQ ** (-n)
    return I * top / (QQ - QQ.inv())
