"""Command-line driver: verification suites, multiplicity/spectrum/complement
tables, and centralizer dimension counts.

Exit codes: 0 all checks passed / table emitted, 1 at least one check
failed, 2 invalid configuration, 3 internal error (a crash, reported with
its traceback, never as a failed check).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
from math import comb

from .ring import (CheckFailure, GaussRat, GR_ONE, P, PoleError,
                   require_generic)
from .linalg import (random_point, commutant_dimension, certify_blocks,
                     highest_weight_restriction, first_nonzero, matrix_rank,
                     vstack)
from . import qgroup, intertwiner, coideal, combinat


SUITES = ("relations", "commutation", "cubic", "spectrum", "duality",
          "fft", "tl", "so3", "integrality", "all")
# Suites built on the spin representation, which needs N >= 3.
SPIN_SUITES = ("relations", "commutation", "cubic", "spectrum", "integrality",
               "fft")
# The --q modes each suite runs in, its default first: "sym" over Q(i)(v)
# (or exactly, with no q at all), "one" at q = 1, "spec" at the point of
# --seed.  A single suite refuses a mode it lacks; `all` runs each suite
# in the asked mode where it has one and in its default elsewhere.
MODES = {"relations": ("sym",), "commutation": ("sym",),
         "cubic": ("sym", "one", "spec"), "spectrum": ("sym", "one"),
         "duality": ("sym",), "fft": ("spec",), "tl": ("sym",),
         "so3": ("sym",), "integrality": ("sym",)}
MODE_LABELS = {"sym": "symbolic", "one": "q=1", "spec": "at v0"}
# The largest operator a command may build has at most 2^12 = 4096 rows:
# the cubic check up to N = 13 (N = 9 at q = 1), fft up to (2^k)^n = 4096,
# e.g. (4, 6) (which the block limit below refuses).
MAX_OPERATOR_BITS = 12
# fft certifies each highest-weight block M_lambda by a closure of up to
# m_lambda^2 matrices.  The largest block measured to finish in under
# 60 s has m_lambda = 35: each of the four in (4, 5) takes about 2 s
# (2-core Xeon, Python 3.11).  Size alone does not fix the time: dense
# blocks are slower, and the 28 of (3, 8) took 124 s.
MAX_FFT_BLOCK = 35
# A table takes n tensor steps, each adding the 2^k weights of S to at most
# C(n//2 + k, k) dominant weights.  At n 2^k C(n//2 + k, k) = 1.1e7, (24, 6)
# takes 3.7 s; at 1.4e7, (5, 300) takes 16 s (2-core Xeon, Python 3.11).
MAX_TABLE_WORK = 12_000_000
# `verify so3` checks modules of size Nparam + 1, and two of (Nparam + 1)/2,
# one per sign, for Nparam odd.  Nparam 22 takes 3.1 s, 24 5.9 s, 21 14 s
# and 23 33 s (8 s for the second sign); 25 took 33 s and 31 104 s with
# one sign, 32 23 s, and 40 ran past 20 s (2-core Xeon, 3.11).
MAX_SO3_PARAM = 24


class ConfigError(ValueError):
    """A configuration the CLI refuses before it runs anything: exit 2.
    Any other exception, a ValueError included, is a crash: exit 3."""


class Reporter:
    def __init__(self):
        self.failures = 0

    def check(self, label: str, fn):
        """Print PASS or FAIL for `fn`, which returns a {relation:
        residual} dict or a bool.  FAIL is a nonzero residual (named), False,
        or a CheckFailure; anything else propagates."""
        t0 = time.perf_counter()
        try:
            res = fn()
        except CheckFailure as exc:
            res, label = False, f"{label} [{type(exc).__name__}: {exc}]"
        if isinstance(res, dict):
            bad = first_nonzero(res)
            if bad is not None:
                name, pos = bad
                where = f" = {res[name]}" if pos is None else f" at {pos}"
                label = f"{label} [nonzero: {name}{where}]"
            res = bad is None
        dt = time.perf_counter() - t0
        print(f"{'PASS' if res else 'FAIL'}  {label}  ({dt:.2f}s)")
        if not res:
            self.failures += 1


def _operator_bits(suite: str, mode: str, N: int, n: int) -> int:
    """log2 of the rows of the largest operator `suite` builds in `mode`,
    rounded up: S has 2^k rows, C acts on S^(x)2, the cubic relation on
    S^(x)3 at q = 1, the duality representation on S^(x)n and
    Temperley-Lieb on (C^2)^(x)n.  Otherwise the cubic relation runs on a
    block of S^(x)3 (`intertwiner.cubic_columns`) of (3^(k+1) - 1)/2 <=
    4^k columns, so C on S^(x)2 is its largest operator."""
    k = N // 2
    return {"relations": k, "commutation": 2 * k, "spectrum": 2 * k,
            "integrality": 2 * k, "cubic": 3 * k if mode == "one" else 2 * k,
            "fft": k * n, "tl": n, "so3": N.bit_length(),
            "duality": 0}[suite]


def _check_config(modes: dict, N: int, n: int) -> None:
    """Refuse (ConfigError), before anything is built, a configuration
    some suite of `modes` ({suite: --q mode}) cannot run: a spin suite
    with N < 3, Temperley-Lieb with n < 2, or a size above one of the
    MAX_* limits (a duality table by `_check_table_work`)."""
    suites = list(modes)
    spin = [s for s in suites if s in SPIN_SUITES]
    if N < 3 and spin:
        raise ConfigError(f"suite {spin[0]!r} needs N >= 3, got N={N}")
    if n < 2 and "tl" in suites:
        raise ConfigError(f"suite 'tl' needs n >= 2 for Temperley-Lieb, "
                          f"got n={n}")
    bits, suite = max((_operator_bits(s, m, N, n), s)
                      for s, m in modes.items())
    if bits > MAX_OPERATOR_BITS:
        raise ConfigError(f"suite {suite!r} at N={N} n={n} would build "
                          f"operators with 2^{bits} rows, above the limit "
                          f"2^{MAX_OPERATOR_BITS} = {1 << MAX_OPERATOR_BITS}")
    if "duality" in suites:
        _check_table_work("suite 'duality'", N, n)
    if "so3" in suites and N > MAX_SO3_PARAM:
        raise ConfigError(f"suite 'so3' at Nparam={N} is above the limit "
                          f"{MAX_SO3_PARAM}")
    if "fft" in suites:
        w, m = max(combinat.spinor_table(N, n).items(), key=lambda t: t[1])
        if m > MAX_FFT_BLOCK:
            raise ConfigError(f"suite 'fft' at N={N} n={n} has a "
                              f"highest-weight block of size {m} at weight "
                              f"({combinat.fmt_weight(w)}), above the limit "
                              f"{MAX_FFT_BLOCK}")


def _check_table_work(what: str, N: int, n: int) -> None:
    """Refuse (ConfigError) a `combinat.spinor_table(N, n)` above
    MAX_TABLE_WORK."""
    k = N // 2
    if k > MAX_OPERATOR_BITS:
        raise ConfigError(f"{what} at N={N} tensors with the 2^{k} weights "
                          f"of S, above the limit 2^{MAX_OPERATOR_BITS}")
    work = n * (1 << k) * comb(n // 2 + k, k)
    if work > MAX_TABLE_WORK:
        raise ConfigError(f"{what} at N={N} n={n} would try n 2^k "
                          f"C(n//2 + k, k) = {work:.2g} weights, above the "
                          f"limit {MAX_TABLE_WORK:.2g}")


def _point(seed: int) -> GaussRat:
    return random_point(random.Random(seed))


def _suite_modes(suites, q) -> dict:
    """{suite: the --q mode it runs in}.  With no --q every suite runs in
    its default; a single suite must have the mode asked for, or this
    raises ConfigError; `all` falls back to each suite's default."""
    out = {}
    for suite in suites:
        modes = MODES[suite]
        if q is None or (q not in modes and len(suites) > 1):
            out[suite] = modes[0]
        elif q not in modes:
            raise ConfigError(
                f"suite {suite!r} does not run with --q {q}: use "
                f"{' or '.join('--q ' + m for m in modes)}")
        else:
            out[suite] = q
    return out


def run_verify(args) -> int:
    rep = Reporter()
    N = args.N
    n = args.n
    suites = SUITES[:-1] if args.suite == "all" else (args.suite,)
    modes = _suite_modes(suites, args.q)
    _check_config(modes, N, n)
    if "spec" in modes.values():
        print(f"# specialization point v = {_point(args.seed)!r} "
              f"(seed {args.seed})")
    for suite in suites:
        mode = modes[suite]

        def check(label, fn):
            rep.check(f"{label} {MODE_LABELS[mode]}", fn)

        if suite == "relations":
            check(f"defining relations N={N}",
                  lambda: qgroup.relation_residuals(N))
        elif suite == "commutation":
            check(f"[coproduct(g), C] = 0 N={N}",
                  lambda: intertwiner.check_commutation(N))
        elif suite == "cubic":
            if N % 2 == 0 and mode != "one":
                k = N // 2
                print(f"# tau = e{N - 1}^(x)3, e{N - 1} = psi_{k} + "
                      f"psi^dag_{k}: the cubic runs on the "
                      f"{len(intertwiner.cubic_columns(N))} of "
                      f"{len(qgroup.dominant_columns(N, 3))} dominant "
                      f"columns with lambda_{k} > 0")
            # q = 1: the three-strand duality representation at v0 = 1
            check(f"cubic relation N={N}", {
                "sym": lambda: intertwiner.check_cubic(N),
                "one": lambda: coideal.check_coideal_relations(
                    coideal.duality_rep(N, 3, GR_ONE)),
                "spec": lambda: intertwiner.check_cubic_specialized(
                    N, _point(args.seed))}[mode])
        elif suite == "spectrum":
            cls = mode == "one"
            reps = []
            check(f"{'classical' if cls else 'quantum'} spectrum N={N}",
                  lambda: reps.append(intertwiner.spectrum_of_C(
                      N, classical=cls)) or reps[0].complete)
            if reps:
                print(f"# C splits into {len(reps[0].blocks)} blocks, the "
                      f"largest of size {max(reps[0].blocks)}")
        elif suite == "duality":
            check(f"duality N={N} n={n}",
                  lambda: combinat.duality_residuals(N, n))
        elif suite == "fft":
            check(f"fft counts N={N} n={n}",
                  lambda: fft_counts(N, n, args.seed)[-1])
        elif suite == "tl":
            check(f"TL idempotents n={n}",
                  lambda: {f"e{i}^2 - e{i}": e * e - e for i, e in
                           enumerate(coideal.tl_generators(n), 1)})
            check(f"TL coideal images n={n}",
                  lambda: coideal.check_coideal_relations(
                      coideal.tl_braid_rep(n)))
            print(f"# measured constant c = {coideal.tl_measured_constant()!r}")
        elif suite == "so3":
            check(f"so3 classical rep Nparam={N}",
                  lambda: coideal.check_coideal_relations(
                      coideal.so3_classical_rep(N)))
            for sign in (1, -1) if N % 2 else ():
                check(f"so3 nonclassical rep Nparam={N} sign={sign}",
                      lambda: coideal.check_coideal_relations(
                          coideal.so3_nonclassical_rep(N, sign)))
            check(f"twist commutant Nparam={N}",
                  lambda: twist_commutant(N) == (1 if (N + 1) % 2 else 2))
        elif suite == "integrality":
            check(f"integrality N={N}",
                  lambda: intertwiner.integrality_check(
                      intertwiner.build_C_quantum(N), N))
    return 1 if rep.failures else 0


def twist_commutant(Nparam: int) -> int:
    r = coideal.twist_so3(coideal.so3_classical_rep(Nparam))
    return commutant_dimension(r.B, r.dim)


def fft_counts(N: int, n: int, seed: int):
    """(closure dim, sum of m^2, sum of m^2 for n <= 3 else None, equal?)

    The closure is the dimension of the algebra A_P that the B_i (and F
    for N even) generate at v0 = _point(seed) mod P, restricted to the
    highest-weight space W: one block M_lambda per weight lambda of
    `qgroup.dominant_columns`, the joint kernel W_lambda of the Delta(E_i)
    on the columns of weight lambda, which every generator must keep
    (`linalg.highest_weight_restriction`) and which must have the size
    m_lambda of lambda in the table.  The closure runs once per block
    (`linalg.certify_blocks`).  The lower bound:

    - Each block's closure is m_lambda^2: A_P maps onto End(M_lambda), so
      M_lambda is absolutely irreducible.
    - The blocks are pairwise non-isomorphic A_P-modules: blocks of
      different sizes trivially, and each equal-size pair by a word in
      the generators with different traces on the two.
    - Jacobson density (Wedderburn on the semisimple quotient, with the
      Chinese remainder theorem over the distinct simple modules) then
      says A_P maps onto the sum of the End(M_lambda), so dim A_P on W is
      sum m_lambda^2.
    - Restriction to the invariant W is an algebra quotient, and rank can
      only drop mod P, so closure_P <= dim A(v0), the algebra the
      generators span over Q(i) at v0.

    The upper bound is a certificate over F_P at vp = v0 mod P on all of
    V = S^(x)n, at every n:

    1. Weights separate: no two column weights (`qgroup.column_weight`)
       share a signature of the diagonal Delta(K_i) (`_check_weights`).
       So an X that commutes with the Delta(K_i) keeps each V_mu.
    2. F lowers weight: every stored entry (r, c) of Delta(E_i) has
       weight(r) = weight(c) + alpha_i, doubled (`_check_weights`).  So
       Delta(F_i) = Delta(E_i)^T lowers weight, and the algebra the
       Delta(F_i) generate is nilpotent.
    3. Rank: the W_lambda and the columns of the Delta(F_i) span all
       2^(kn) columns (`linalg.matrix_rank`).  So V = W + sum_i Delta(F_i)
       V, and by 2, V = U^- W, U^- the unital algebra of the Delta(F_i).
    4. Bound: an X that commutes with the Delta(K_i), Delta(E_i) and
       Delta(F_i) maps W_lambda into the kernel of the Delta(E_i) on
       V_lambda, which is W_lambda, and it is fixed by its values on W,
       as V = U^- W.  So com_P(K,E,F) <= sum m_lambda^2.
    5. Chain: sum m_lambda^2 = closure_P <= dim A(v0) <= dim A_Q(i)(v)
       <= com_Q(i)(v) <= com(v0) <= com_P <= sum m_lambda^2, so all are
       equal at this (N, n), and no theorem is cited.  The third <= is
       test_02's symbolic commutation; in the others a rank can only drop
       under specialization or mod P, and a nullity can only rise.

    A bad point or prime can only make a block or the rank fall short,
    leave a pair unseparated or merge two weights: a CheckFailure naming
    the block, pair, weight or entry, never a pass.
    """
    return fft_certificate(N, n, seed)[0]


def _check_weights(N: int, n: int, K, E) -> None:
    """Steps 1 and 2 of `fft_counts`; a failure names the weights or entry."""
    fmt, seen = combinat.fmt_weight, {}
    wt = [qgroup.column_weight(N, n, j) for j in range(K[0].nrows)]
    for j, w in enumerate(wt):
        u = seen.setdefault(tuple(dK.data.get((j, j)) for dK in K), w)
        if u != w:
            raise CheckFailure(f"weights ({fmt(u)}) and ({fmt(w)}) share "
                               f"one Delta(K_i) signature mod {P}")
    for i, (dE, a) in enumerate(zip(E, qgroup.simple_roots(N)), 1):
        for r, c in dE.data:
            up = tuple(x + 2 * y for x, y in zip(wt[c], a))
            if wt[r] != up:
                raise CheckFailure(f"Delta(E{i}) entry ({r}, {c}) maps "
                                   f"weight ({fmt(wt[c])}) to ({fmt(wt[r])})"
                                   f", not to ({fmt(up)})")


def fft_certificate(N: int, n: int, seed: int):
    """(the `fft_counts` tuple, [(block label, m_lambda, closure) per
    block], the pair separations of `linalg.certify_blocks` with each word
    as the names B1 .. B{n-1}, F, the lowering span's rank); a block label
    is its weight in parentheses, as `spindual fft` prints it."""
    v0 = _point(seed)
    require_generic(v0)
    vp = v0.mod_p(P)
    K, E = qgroup.coproduct_generators(N, n, vp, P)
    _check_weights(N, n, K, E)
    r = coideal.duality_rep(N, n, vp, P)
    named = [(f"B{i}", b) for i, b in enumerate(r.B, 1)]
    named += [("F", r.F)] if r.F is not None else []
    table = combinat.spinor_table(N, n)
    found, W = highest_weight_restriction([g for _, g in named], E,
                                          qgroup.dominant_columns(N, n))
    sizes = {w: len(cols) for w, cols, _ in found}
    for w in sorted(sizes.keys() | table.keys(), reverse=True):
        if sizes.get(w, 0) != table.get(w, 0):
            raise CheckFailure(
                f"highest-weight block at weight ({combinat.fmt_weight(w)}) "
                f"has size {sizes.get(w, 0)}, not its multiplicity "
                f"{table.get(w, 0)}")
    blocks = [(f"({combinat.fmt_weight(w)})", len(cols), gens)
              for w, cols, gens in found]
    # the columns of Delta(F_i) = Delta(E_i)^T are the rows of Delta(E_i)
    span = matrix_rank(vstack([W.transpose()] + E))
    if span != W.nrows:
        raise CheckFailure(f"the highest-weight vectors and the Delta(F_i) "
                           f"span {span} of {W.nrows} columns")
    closures, seps = certify_blocks(blocks)
    closure = sum(closures)
    sm = sum(m * m for _, m, _ in blocks)
    return ((closure, sm, sm if n <= 3 else None, closure == sm),
            [(w, m, c) for (w, m, _), c in zip(blocks, closures)],
            [(a, b, [named[i][0] for i in word], t)
             for a, b, word, t in seps], span)


def _signed(x: int) -> int:
    """The residue x mod P as the integer of least absolute value."""
    return x - P if x > P // 2 else x


def run_fft(args) -> int:
    N, n = args.N, args.n
    _check_config({"fft": "spec"}, N, n)
    print(f"N={N} n={n} seed={args.seed}")
    try:
        (closure, sm, _, ok), blocks, seps, span = fft_certificate(
            N, n, args.seed)
    except CheckFailure as exc:
        print(f"VERDICT: MISMATCH ({exc})")
        return 1
    print(f"highest-weight dim  : {sum(m for _, m, _ in blocks)} "
          f"(closure runs mod p = {P}, one block per weight)")
    for w, m, c in blocks:
        print(f"  block {w}  m={m}  closure {c} "
              f"{'=' if c == m * m else '<'} m^2 = {m * m}")
    for a, b, word, (ta, tb) in seps:
        print(f"  pair {a} / {b}  trace of {' '.join(word)}: "
              f"{_signed(ta)} vs {_signed(tb)}")
    print(f"algebra closure dim : {closure}")
    print(f"sum of m^2          : {sm}")
    print(f"lowering span       : {span} of {(1 << N // 2) ** n} columns "
          f"(commutant <= sum of m^2)")
    print("VERDICT:", "equal" if ok else "MISMATCH")
    return 0 if ok else 1


def run_table(args) -> int:
    N, n, q = args.N, args.n, args.q or "sym"
    mode = "classical" if q == "one" else "symbolic"
    doc = {"N": N, "n": n, "mode": mode, "entries": []}
    if args.kind in ("multiplicities", "complements"):
        if args.q is not None:
            raise ConfigError(f"table {args.kind} is combinatorial and has "
                              f"no --q mode")
        del doc["mode"]     # no q enters these tables
        _check_table_work("table", N, n)
        table = combinat.spinor_table(N, n, args.level)
        if not table:
            # S has weight (1/2, ..., 1/2), admissible exactly from N - 1 on;
            # at such a level S (x) S keeps the trivial weight, so no
            # table is empty there
            raise ConfigError(f"no weight of S^(x){n} is admissible at "
                              f"level {args.level}: S itself needs level >= "
                              f"{N - 1}")
        for w in sorted(table, reverse=True):
            comp = combinat.complement(w, N, n)
            doc["entries"].append({
                "weight": list(w),
                "multiplicity": table[w],
                "complement": list(comp),
                "dimension": combinat.weyl_dim(w, N),
            })
    elif args.kind == "spectrum":
        if q == "spec":
            raise ConfigError("table spectrum has no specialized mode: use "
                              "--q sym or --q one")
        if args.level is not None:
            raise ConfigError("table spectrum has no fusion truncation: "
                              "drop --level")
        _check_config({"spectrum": q}, N, n)
        try:
            rep = intertwiner.spectrum_of_C(N, classical=q == "one")
        except CheckFailure as exc:     # a check failed on purpose: exit 1
            print(f"spectrum verification failed: {exc}", file=sys.stderr)
            return 1
        if not rep.complete:
            print("spectrum verification failed", file=sys.stderr)
            return 1
        for val, mult in rep.multiplicities.items():
            doc["entries"].append({"eigenvalue": repr(val),
                                   "multiplicity": mult})
    out = render(doc, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        print(out, end="")
    return 0


def render(doc, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    # weights are doubled integers; complements only for N odd (for N even
    # they are plain diagram row lengths)
    def show(key, val):
        if not isinstance(val, list):
            return val
        if key == "complement" and doc["N"] % 2 == 0:
            return ",".join(map(str, val))
        return combinat.fmt_weight(val)

    if fmt == "csv":
        buf = io.StringIO()
        keys = sorted({k for e in doc["entries"] for k in e})
        writer = csv.writer(buf)
        writer.writerow(keys)
        for e in doc["entries"]:
            writer.writerow([show(k, e.get(k)) for k in keys])
        return buf.getvalue()
    lines = [" ".join(f"{k}={doc[k]}" for k in ("N", "n", "mode")
                      if k in doc)]
    for e in doc["entries"]:
        if "weight" in e:
            lines.append(f"  ({show('weight', e['weight'])})"
                         f"  x{e['multiplicity']}  dim={e['dimension']}"
                         f"  complement=({show('complement', e['complement'])})")
        else:
            lines.append(f"  {e['eigenvalue']}  x{e['multiplicity']}")
    return "\n".join(lines) + "\n"


def build_parser():
    p = argparse.ArgumentParser(prog="spindual")
    sub = p.add_subparsers(dest="command", required=True)
    flags = {"--level": dict(type=int, default=None),
             "--q": dict(choices=("sym", "one", "spec"), default=None),
             "--seed": dict(type=int, default=0),
             "--format": dict(choices=("json", "csv", "text"),
                              default="text"),
             "--out": dict(default=None)}

    def command(name, run, *names):
        """A subcommand that has --N, --n and only the flags it reads."""
        sp = sub.add_parser(name)
        sp.set_defaults(run=run)
        sp.add_argument("--N", type=int, default=5)
        sp.add_argument("--n", type=int, default=3)
        for flag in names:
            sp.add_argument(flag, **flags[flag])
        return sp

    verify = command("verify", run_verify, "--q", "--seed")
    verify.add_argument("suite", choices=SUITES)
    command("table", run_table, "--level", "--q", "--format",
            "--out").add_argument("kind", choices=("multiplicities",
                                                   "spectrum", "complements"))
    command("fft", run_fft, "--seed")
    return p


def _internal_error(exc: Exception) -> int:
    """Report a crash with its traceback: exit 3, never a failed check."""
    import traceback    # here, not at the top: it adds 3 ms to start-up
    print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    traceback.print_exc()
    return 3


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.N < 2 or args.n < 1:
        print("invalid N/n", file=sys.stderr)
        return 2
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PoleError as exc:
        if "seed" not in args:      # no point was drawn: a defect
            return _internal_error(exc)
        print(f"config error: the point of --seed {args.seed} is unusable "
              f"({exc}); try another seed", file=sys.stderr)
        return 2
    except Exception as exc:
        return _internal_error(exc)


if __name__ == "__main__":
    sys.exit(main())
