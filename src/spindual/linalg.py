"""Sparse exact linear algebra over the scalar tower and over F_p.

Matrices are dict-of-entries {(row, col): elem}; entries may be Scalar
(symbolic) or GaussRat (specialized), duck-typed over +, *, unary -, bool
(nonzero test) and .inv(), or ints mod a prime p.  A matrix carries its
ring in `p`: None for Scalar and GaussRat entries, the prime for ints mod
p (`specialize(v0, p)` sets it).  Every operation that builds a new
matrix passes p on, and for a prime reduces its int entries mod p once,
at the end, so the entries it stores are residues in [0, p); operands with
different p raise ValueError.  Echelon, rank, nullspace, the
highest-weight restriction (a kernel per weight space), closure and
commutant read p from their matrices.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush

from .ring import CheckFailure, GaussRat, ONE, P, PoleError, Q


def _prime(*mats):
    """The p that all of `mats` carry (None for none); ValueError if two
    differ, a prime against another prime or against None."""
    p = mats[0].p if mats else None
    for m in mats:
        if m.p != p:
            raise ValueError(f"matrices over different rings: p = {p} and "
                             f"p = {m.p}")
    return p


def _reduced(nrows: int, ncols: int, data: dict, p) -> "SparseMatrix":
    """A new matrix over the ring of p: for a prime p its int entries are
    taken mod p, once, and the zeros dropped."""
    if p is not None:
        data = {rc: z for rc, v in data.items() if (z := v % p)}
    return SparseMatrix(nrows, ncols, data, p)


class SparseMatrix:
    __slots__ = ("nrows", "ncols", "data", "p")

    def __init__(self, nrows: int, ncols: int, data=None, p: int = None):
        self.nrows = nrows
        self.ncols = ncols
        self.data = data if data is not None else {}
        self.p = p

    @staticmethod
    def identity(n: int, one=ONE, p: int = None) -> "SparseMatrix":
        return SparseMatrix(n, n, {(i, i): one for i in range(n)}, p)

    @staticmethod
    def diagonal(entries) -> "SparseMatrix":
        n = len(entries)
        return SparseMatrix(n, n, {(i, i): e for i, e in enumerate(entries) if e})

    def __setitem__(self, rc, val):
        if val:
            self.data[rc] = val
        elif rc in self.data:
            del self.data[rc]

    def is_zero(self):
        return not self.data

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and self.p == other.p and self.data == other.data)

    def __add__(self, other):
        p = _prime(self, other)
        out = dict(self.data)
        for rc, v in other.data.items():
            s = out.get(rc)
            if s is None:
                out[rc] = v
            else:
                s = s + v
                if s:
                    out[rc] = s
                else:
                    del out[rc]
        return _reduced(self.nrows, self.ncols, out, p)

    def __neg__(self):
        return _reduced(self.nrows, self.ncols,
                        {rc: -v for rc, v in self.data.items()}, self.p)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return SparseMatrix(self.nrows, self.ncols, {}, self.p)
        return _reduced(self.nrows, self.ncols,
                        {rc: v * c for rc, v in self.data.items()}, self.p)

    def __mul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        p = _prime(self, other)
        # index other by row once
        by_row = {}
        for (r, c), v in other.data.items():
            by_row.setdefault(r, []).append((c, v))
        out = {}
        for (r, k), a in self.data.items():
            row = by_row.get(k)
            if row is None:
                continue
            for c, b in row:
                rc = (r, c)
                t = a * b
                s = out.get(rc)
                if s is None:
                    out[rc] = t
                else:
                    s = s + t
                    if s:
                        out[rc] = s
                    else:
                        del out[rc]
        return _reduced(self.nrows, other.ncols, out, p)

    def transpose(self):
        return SparseMatrix(self.ncols, self.nrows,
                            {(c, r): v for (r, c), v in self.data.items()},
                            self.p)

    def kron(self, other: "SparseMatrix") -> "SparseMatrix":
        """Kronecker product; self is the leftmost (slowest-varying) factor."""
        p = _prime(self, other)
        out = {}
        n2, m2 = other.nrows, other.ncols
        for (r1, c1), a in self.data.items():
            for (r2, c2), b in other.data.items():
                out[(r1 * n2 + r2, c1 * m2 + c2)] = a * b
        return _reduced(self.nrows * n2, self.ncols * m2, out, p)

    def is_diagonal(self):
        return all(r == c for r, c in self.data)

    def specialize(self, v0, p: int = None) -> "SparseMatrix":
        """Every entry at v = v0, a GaussRat, or at an int v0 mod a prime p
        (the new matrix's p); entries that vanish there are dropped, so no
        zero is stored.  v0 None (no point) gives the matrix itself."""
        if v0 is None:
            return self
        out = {}
        for rc, v in self.data.items():
            x = v.specialize(v0, p)
            if x:
                out[rc] = x
        return SparseMatrix(self.nrows, self.ncols, out, p)

    def entries(self):
        return self.data.values()

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, {len(self.data)} nz)"


def commutator(a: SparseMatrix, b: SparseMatrix, c=None) -> SparseMatrix:
    """[a, b]_c = ab - c ba for square a and b of one size and a scalar c
    of their entries' ring (c = 1 if None), the one builder of every
    two-operator relation residual.  For a diagonal a, entry (r, s) is
    a_r b_rs - c b_rs a_s = (a_r - c a_s) b_rs: one product per stored
    b_rs, and none where a_r = c a_s (over F_p compared as residues).
    That identity holds in any commutative ring, and Scalar and GaussRat
    values are canonical, so every entry is the same value, field for
    field, as a * b - (b * a).scale(c) gives (over F_p, the same
    residue); a product of nonzero factors in these domains is nonzero,
    so the same entries are stored.  Otherwise ab and c ba are compared
    before they are subtracted: equal dicts give the empty matrix, which
    is what the subtraction gives."""
    p = _prime(a, b)
    if not a.is_diagonal():
        ab, ba = a * b, b * a
        if c is not None:
            ba = ba.scale(c)
        if ab.data == ba.data:
            return SparseMatrix(ab.nrows, ab.ncols, {}, p)
        return ab - ba
    if (a.nrows, a.ncols) != (b.nrows, b.ncols) or a.nrows != a.ncols:
        raise ValueError("shape mismatch")
    diag = a.data
    out = {}
    for (r, s), x in b.data.items():
        ar, cas = diag.get((r, r)), diag.get((s, s))
        if c is not None and cas is not None:
            cas = (c * cas if p is None else c * cas % p) or None
        if ar == cas:
            continue
        if ar is None:
            out[(r, s)] = -(cas * x)
        else:
            out[(r, s)] = ar * x if cas is None else (ar - cas) * x
    return _reduced(a.nrows, a.ncols, out, p)


def embed(m: SparseMatrix, left: int, right: int,
          block=None) -> SparseMatrix:
    """id_left (x) m (x) id_right, for identities of sizes `left` and
    `right`, by index arithmetic: the entries of m are reused, none is
    multiplied.  With `block`, indices D (a list, or the keys of a dict),
    only the entries in rows and columns of D are built (m square), column
    by column."""
    nr, nc = m.nrows, m.ncols
    size = (left * nr * right, left * nc * right)
    out = {}
    if block is not None:
        by_col = {}
        for (r, c), x in m.data.items():
            by_col.setdefault(c, []).append((r, x))
        keep = set(block)
        for col in block:
            i, rest = divmod(col, nc * right)
            c, j = divmod(rest, right)
            for r, x in by_col.get(c, ()):
                row = (i * nr + r) * right + j
                if row in keep:
                    out[(row, col)] = x
        return SparseMatrix(*size, out, m.p)
    for i in range(left):
        for (r, c), x in m.data.items():
            r0, c0 = (i * nr + r) * right, (i * nc + c) * right
            for j in range(right):
                out[(r0 + j, c0 + j)] = x
    return SparseMatrix(*size, out, m.p)


def vstack(mats) -> SparseMatrix:
    """The matrices `mats` (equal column counts) one above the other."""
    out = {}
    top = 0
    for m in mats:
        for (r, c), x in m.data.items():
            out[(top + r, c)] = x
        top += m.nrows
    return SparseMatrix(top, mats[0].ncols, out, _prime(*mats))


def first_nonzero(res: dict):
    """(label, first nonzero (row, col) or None for an int) of the first
    nonzero SparseMatrix or int residual in `res`; None if all are zero."""
    for label, r in res.items():
        if isinstance(r, int):
            if r:
                return label, None
        elif not r.is_zero():
            return label, min(r.data)
    return None


def residuals_zero(res: dict) -> bool:
    """The zero test every {label: residual} identity check is judged by."""
    return first_nonzero(res) is None


class EchelonBasis:
    """Incremental row-echelon store for sparse rows {col: elem}.

    Rows are kept with a pivot (smallest column) normalized to 1; insert()
    reduces against the stored rows and reports whether the row was new.
    Without `p` the entries are field elements (Scalar, GaussRat); with a
    prime `p` they are ints taken mod p: a row may hold any ints, and the
    stored rows hold residues in [0, p).
    """

    def __init__(self, p: int = None):
        self.rows = {}  # pivot col -> normalized row dict
        self.p = p

    def __len__(self):
        return len(self.rows)

    def reduce(self, row: dict) -> dict:
        # An entry is zero-tested (and over F_p reduced) only when it leads
        # the row, and once more at the end, so a step costs one
        # multiply-subtract per entry.  The columns wait in a heap: a step
        # at c0 only touches columns >= c0.
        p, rows = self.p, self.rows
        row = dict(row)
        cols = list(row)
        heapify(cols)
        while cols:
            c0 = heappop(cols)
            f = row[c0] if p is None else row[c0] % p
            if f:
                piv = rows.get(c0)
                if piv is None:
                    break
                get = row.get
                for c, v in piv.items():
                    x = get(c)
                    if x is None:
                        row[c] = -(f * v)
                        heappush(cols, c)
                    else:
                        row[c] = x - f * v
            del row[c0]     # zero, after the step if there was one
        if p is None:
            return {c: v for c, v in row.items() if v}
        return {c: x for c, v in row.items() if (x := v % p)}

    def insert(self, row: dict) -> bool:
        row = self.reduce(row)
        if not row:
            return False
        c0, p = min(row), self.p
        inv = row[c0].inv() if p is None else pow(row[c0], -1, p)
        self.rows[c0] = {c: v * inv if p is None else v * inv % p
                         for c, v in row.items()}
        return True


def _echelon(m: SparseMatrix) -> EchelonBasis:
    """The rows of m in an EchelonBasis over m's ring, inserted in order
    until the rank is m.ncols: then every column is a pivot."""
    basis = EchelonBasis(m.p)
    by_row = {}
    for (r, c), v in m.data.items():
        by_row.setdefault(r, {})[c] = v
    for row in by_row.values():
        if len(basis) == m.ncols:
            break
        basis.insert(row)
    return basis


def _one(mats):
    """1 in the entries' ring: the int 1 over F_p, else x * x^-1 for the
    first entry x of `mats` (the Scalar one if they store none)."""
    if _prime(*mats) is not None:
        return 1
    x = next((x for m in mats for x in m.data.values()), None)
    return ONE if x is None else x * x.inv()


def matrix_rank(m: SparseMatrix) -> int:
    """Rank of m over its ring."""
    return len(_echelon(m))


def nullspace(m: SparseMatrix) -> list:
    """Basis of the right nullspace of m over its ring as sparse vectors
    {index: elem}, one per free (non-pivot) column f: 1 at f, zero at
    every other free column, and f is its largest index."""
    rows, p = _echelon(m).rows, m.p
    one = _one([m])
    out = []
    for f in range(m.ncols):
        if f in rows:
            continue
        # back-substitution, highest pivot first; a pivot row holds no
        # column below its pivot, so only pivots below f get an entry
        vec = {f: one}
        for piv in sorted(rows, reverse=True):
            s = None
            for c, v in rows[piv].items():
                x = vec.get(c)
                if x is not None:
                    t = v * x
                    s = t if s is None else s + t
            if s is not None:
                s = -s if p is None else -s % p
                if s:
                    vec[piv] = s
        out.append(vec)
    return out


def highest_weight_restriction(gens, raising, weights: dict):
    """Restrict `gens` to W, the joint kernel of the `raising` operators
    over their ring, one block per weight: `weights` is {column:
    weight} on the columns to search, as `qgroup.dominant_columns` gives
    it, and the result is (blocks, W): blocks is a list of (weight, free
    columns, restricted generators), from the highest weight down, and
    the columns of W are the kernel vectors w_f, block by block.

    A block is the `nullspace` of the stacked raising operators on the
    columns of its weight, every row kept: they map those columns to other
    weights, which need not be searched.  Its vectors w_f, one per free
    column f, have 1 at f and zero at every other free column, so g on the
    block is read off the rows of g*w_f at those columns.  Raises
    CheckFailure if some g*w_f leaves W (e*(g*w_f) != 0 for a raising
    e) or has an entry at a column not of w_f's weight.
    """
    stacked = vstack(raising)
    p = stacked.p
    cols = {}       # weight -> its columns, ascending
    for c in sorted(weights):
        cols.setdefault(weights[c], []).append(c)
    at = {c: t for cs in cols.values() for t, c in enumerate(cs)}
    rows = {wt: {} for wt in cols}  # the stacked operators on those columns
    for (r, c), x in stacked.data.items():
        if c in at:
            rows[weights[c]][(r, at[c])] = x
    vecs, out = [], []  # (weight, f, w_f); (weight, free columns, gens)
    for wt in sorted(cols, reverse=True):
        cs = cols[wt]
        ws = nullspace(SparseMatrix(stacked.nrows, len(cs), rows[wt], p))
        vecs += [(wt, cs[max(w)], {cs[t]: x for t, x in w.items()})
                 for w in ws]
        if ws:
            out.append((wt, [cs[max(w)] for w in ws], []))
    W = SparseMatrix(stacked.ncols, len(vecs),
                     {(r, j): x for j, (_, _, w) in enumerate(vecs)
                      for r, x in w.items()}, p)
    pos = {f: t for _, fs, _ in out for t, f in enumerate(fs)}
    for i, g in enumerate(gens):
        gw = g * W
        for b, e in enumerate(raising):
            if not (e * gw).is_zero():
                raise CheckFailure(f"generator {i} does not preserve the "
                                   f"kernel of raising operator {b}")
        parts = {wt: {} for wt, _, _ in out}
        for (r, j), x in gw.data.items():
            wt, f, _ = vecs[j]
            if weights.get(r) != wt:
                raise CheckFailure(f"generator {i} maps the highest-weight "
                                   f"vector at column {f} to column {r}, "
                                   f"not of its weight {wt}")
            if r in pos:
                parts[wt][(pos[r], pos[f])] = x
        for wt, fs, ms in out:
            ms.append(SparseMatrix(len(fs), len(fs), parts[wt], p))
    return out, W


def _flatten(m: SparseMatrix) -> dict:
    return {r * m.ncols + c: v for (r, c), v in m.data.items()}


def algebra_closure_dim(gens, dim: int) -> int:
    """Dimension of the unital algebra generated by `gens` inside End(V),
    over their ring.

    Breadth-first closure under left multiplication by the generators; it
    stops once the span is all of End(V), of dimension dim^2.  The
    identity is inserted but not queued, as g 1 = g is a generator.  With
    no generators the algebra is span{1}, of dimension 1 over any field.
    """
    if not gens:
        return 1
    basis = EchelonBasis(_prime(*gens))
    basis.insert(_flatten(SparseMatrix.identity(dim, _one(gens))))
    queue = deque()
    full = dim * dim
    for g in gens:
        if len(basis) == full:
            break
        if basis.insert(_flatten(g)):
            queue.append(g)
    while queue and len(basis) < full:
        b = queue.popleft()
        for g in gens:
            prod = g * b
            if basis.insert(_flatten(prod)):
                queue.append(prod)
    return len(basis)


# Words of up to this many generators are tried on each pair of blocks.
WORD_LENGTH = 3


def _trace_mul(a, b: SparseMatrix) -> int:
    """tr(a b) mod the p of b's int entries, without forming a b; tr(b)
    for a = None."""
    if a is None:
        return sum(x for (r, c), x in b.data.items() if r == c) % b.p
    bd = b.data
    return sum(x * bd.get((c, r), 0) for (r, c), x in a.data.items()) % b.p


def _word_traces(gens):
    """(word, trace) for every word of 1 to WORD_LENGTH generators,
    shortest first; a word (i, j, ...) is gens[i] gens[j] ..., and its
    last letter is traced against the product of the others."""
    level = [((), None)]
    for depth in range(WORD_LENGTH):
        nxt = []
        for word, w in level:
            for i, g in enumerate(gens):
                yield word + (i,), _trace_mul(w, g)
                if depth + 1 < WORD_LENGTH:
                    nxt.append((word + (i,), g if w is None else w * g))
        level = nxt


def certify_blocks(blocks):
    """Certify over F_p that the generators restricted to the blocks M_1,
    M_2, ... span all of End(M_1) + End(M_2) + ...; `blocks` is a list of
    (label, size m, restricted generators), the generators in the same
    order on every block.  Returns (closures, separations):

    - closures: `algebra_closure_dim` of each block, which is m^2 exactly
      when the block is absolutely irreducible;
    - separations, only if every block reached m^2: for every pair (a, b)
      of equal-size blocks, (a, b, word, (trace on a, trace on b)) for the
      first word of up to WORD_LENGTH generators whose traces differ.
      That proves the two modules non-isomorphic: isomorphic modules give
      every algebra element the same trace.

    Blocks of different sizes are never isomorphic.  Raises
    CheckFailure, naming both labels, for a pair that no word
    separates: that is a failure, never a pass.
    """
    closures = [algebra_closure_dim(gs, m) for _, m, gs in blocks]
    seps = []
    if any(c != m * m for c, (_, m, _) in zip(closures, blocks)):
        return closures, seps
    for a, (la, m, ga) in enumerate(blocks):
        for lb, mb, gb in blocks[a + 1:]:
            if mb != m:
                continue
            hit = next(((wa, (ta, tb)) for (wa, ta), (_, tb) in
                        zip(_word_traces(ga), _word_traces(gb))
                        if ta != tb), None)
            if hit is None:
                raise CheckFailure(
                    f"blocks {la} and {lb} are not certified "
                    f"non-isomorphic: no word of up to {WORD_LENGTH} "
                    f"generators has different traces on them")
            seps.append((la, lb) + hit)
    return closures, seps


def commutant_dimension(gens, dim: int) -> int:
    """dim of {X : XM = MX for all generators M} in End(V), over their
    ring.

    Diagonal generators are used first to cut the unknowns down to the
    pairs (r, c) lying in a common joint eigenspace; the remaining
    generators then contribute sparse linear constraints whose rank is
    computed incrementally.
    """
    diag = [g for g in gens if g.is_diagonal()]
    rest = [g for g in gens if not g.is_diagonal()]
    blocks = {}
    for r in range(dim):
        # scalars compare and hash canonically; a zero, stored or not, keys None
        sig = tuple(g.data.get((r, r)) or None for g in diag)
        blocks.setdefault(sig, []).append(r)
    unknowns = {}
    for rows in blocks.values():
        for r in rows:
            for c in rows:
                unknowns[(r, c)] = len(unknowns)
    basis = EchelonBasis(_prime(*gens))
    for g in rest:
        by_col = {}
        by_row = {}
        for (r, c), v in g.data.items():
            by_col.setdefault(c, []).append((r, v))
            by_row.setdefault(r, []).append((c, v))
        # constraint rows of X g - g X = 0, one per output position (a, b)
        # (only the unknown X[a,b] appears in both sums of row (a, b));
        # insert drops the zero entries and rows
        con = {}
        for (a, k), ui in unknowns.items():     # X[a,k] * g[k,b]
            for b, v in by_row.get(k, ()):
                con.setdefault((a, b), {})[ui] = v
        for (k, b), ui in unknowns.items():     # -g[a,k] * X[k,b]
            for a, v in by_col.get(k, ()):
                d = con.setdefault((a, b), {})
                d[ui] = d[ui] - v if ui in d else -v
        for row in con.values():
            basis.insert(row)
    return len(unknowns) - len(basis)


class SpectrumReport:
    def __init__(self, annihilates: bool, multiplicities: dict, dim: int,
                 blocks=(), expected=()):
        self.annihilates = annihilates
        self.multiplicities = multiplicities
        self.dim = dim
        self.blocks = blocks    # the sizes of the blocks it was checked on
        self.expected = dict(expected)  # {candidate: expected count}

    @property
    def complete(self):
        """It annihilates, its counts fill the space, each meets `expected`."""
        mults = self.multiplicities
        return (self.annihilates and sum(mults.values()) == self.dim
                and all(mults[c] == m for c, m in self.expected.items()))

    def __repr__(self):
        return (f"SpectrumReport(annihilates={self.annihilates}, "
                f"mults={self.multiplicities}, dim={self.dim})")


# verify_spectrum counts multiplicities at v = 2 mod P.  Any point works
# where no entry has a pole and the candidates keep distinct images; the
# function checks both.
SPECTRUM_POINT = 2


def verify_spectrum(m: SparseMatrix, candidates,
                    counts=()) -> SpectrumReport:
    """Check that prod(m - c) vanishes over the candidate eigenvalues, in
    exact arithmetic, and read off each multiplicity, keyed on the
    candidates, as dim - rank(m - c) with m and c reduced at v =
    SPECTRUM_POINT over F_P.  With `counts`, the candidates' expected
    multiplicities, the report is `complete` only if each is met.  Both
    run on each block m_B of m, a connected component of the graph with
    an edge r - c per stored entry: m, its reduction and every polynomial
    in m are block diagonal over them.
    Why the counts are the multiplicities over Q(i)(v) if the product
    vanishes:

    - The candidates have distinct images at the point, so they are
      distinct; annihilated by distinct linear factors, m is
      diagonalizable, and its m_j = dim - rank(m - c_j) add up to dim.
    - No entry has a pole at the point, so reduction there is a ring map
      from the local ring onto F_P, and rank can only drop: m_j' >= m_j.
    - Eigenspaces for the distinct images are independent, so sum m_j'
      <= dim (on m_B, <= its size, where the count stops).  So sum m_j
      <= sum m_j' <= dim = sum m_j forces m_j' = m_j.

    On m_B only the factors with a nonzero nullity mod P are multiplied,
    and the product vanishes iff each such subproduct does: if the full
    one kills m_B, m_B is diagonalizable with eigenvalues among the c_j,
    each of nullity >= 1 over Q(i)(v) and so mod P, so their factors are
    all multiplied; a zero subproduct makes the full one zero.

    Raises CheckFailure, naming the point, if two candidates have the
    same image there or an entry of m or a candidate has a pole there.
    """
    pt = f"{SPECTRUM_POINT} mod {P}"
    try:
        mp = m.specialize(SPECTRUM_POINT, P)
        images = [c.specialize(SPECTRUM_POINT, P) for c in candidates]
    except PoleError as exc:
        raise CheckFailure(f"spectrum counts at v = {pt}: {exc}") from exc
    seen = {}
    for c, x in zip(candidates, images):
        if x in seen:
            raise CheckFailure(f"spectrum candidates {seen[x]!r} and "
                               f"{c!r} have the same image at v = {pt}")
        seen[x] = c
    up = list(range(m.nrows))       # union-find of the blocks' indices

    def root(i):
        while up[i] != i:
            up[i] = i = up[up[i]]
        return i

    for r, c in m.data:
        r, c = root(r), root(c)
        up[max(r, c)] = min(r, c)
    blocks = {}
    for i in range(m.nrows):
        blocks.setdefault(root(i), []).append(i)
    where = {i: (b, t) for b, idx in enumerate(blocks.values())
             for t, i in enumerate(idx)}
    parts = [({}, {}) for _ in blocks]
    for half, mat in enumerate((m, mp)):
        for (r, c), x in mat.data.items():
            (b, t), u = where[r], where[c][1]
            parts[b][half][(t, u)] = x
    sizes = [len(idx) for idx in blocks.values()]
    mults, ok = dict.fromkeys(candidates, 0), True
    for size, (sym, red) in zip(sizes, parts):
        ident = prod = SparseMatrix.identity(size)
        left = size
        for c, x in zip(candidates, images):
            null = left and size - matrix_rank(SparseMatrix(
                size, size, red, P) - SparseMatrix.identity(size, x, P))
            if null:
                mults[c] += null
                left -= null
                if ok:
                    prod = prod * (SparseMatrix(size, size, sym)
                                   - ident.scale(c))
        ok = ok and prod.is_zero()
    return SpectrumReport(ok, mults, m.nrows, sizes, zip(candidates, counts))


def random_point(rng) -> GaussRat:
    """Small random Gaussian-rational specialization point, nonzero and not
    a root of unity (its norm is not 1).  It may still be a pole of some
    scalar, or have a denominator divisible by `ring.P`, the prime of the
    counts mod p; specializing there raises PoleError, and nothing
    retries: the CLI reports it as a configuration error naming the
    seed."""
    while True:
        a = Q(rng.randint(-9, 9), rng.randint(1, 5))
        b = Q(rng.randint(-3, 3), rng.randint(1, 5))
        p = GaussRat(a, b)
        if p and p.norm() != 1:
            return p
