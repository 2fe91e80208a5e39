"""Per-layer tracing of spindual from outside the package.

`Tracer.install()` wraps the public functions and methods of each spindual
module (every binding of them, in every module that imported one) so that
each call becomes a span of its layer; `uninstall()` puts the originals
back.  Spans are aggregated in memory per key: call count and self time,
i.e. the span's duration minus the part covered by wrapped children.

Ring operators run millions of times per pass, so a ring call made while
a ring span is already open is only counted; its time stays in the
enclosing ring span.  `poly_gcd` is additionally timed inclusively.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

import spindual
from spindual import (cli, clifford, coideal, combinat, intertwiner, linalg,
                      qgroup, ring)

MODULES = (ring, linalg, clifford, qgroup, intertwiner, coideal, combinat,
           cli)
RING = "ring"

# Span keys that get their own metric; every other public callable of a
# module is traced under "<module>.other".
SPAN_KEYS = {
    (ring, "GaussRat.__mul__"): "ring.gauss_mul",
    (ring, "GaussRat.__add__"): "ring.gauss_addsub",
    (ring, "GaussRat.__sub__"): "ring.gauss_addsub",
    (ring, "GaussRat.inv"): "ring.gauss_inv",
    (ring, "poly_gcd"): "ring.poly_gcd",
    (linalg, "SparseMatrix.__mul__"): "linalg.matmul",
    (linalg, "SparseMatrix.kron"): "linalg.kron",
    (linalg, "SparseMatrix.specialize"): "linalg.specialize",
    (linalg, "EchelonBasis.insert"): "linalg.echelon",
    (linalg, "EchelonBasis.reduce"): "linalg.echelon",
    (linalg, "EchelonBasis.contains"): "linalg.echelon",
    (linalg, "algebra_closure_dim"): "linalg.closure",
    (linalg, "commutant_dimension"): "linalg.commutant",
    (linalg, "matrix_rank"): "linalg.rank",
    (qgroup, "verify_relations"): "qgroup.relations",
    (qgroup, "coproduct_E"): "qgroup.coproduct",
    (qgroup, "coproduct_F"): "qgroup.coproduct",
    (qgroup, "coproduct_K"): "qgroup.coproduct",
    (qgroup, "coproduct_generators"): "qgroup.coproduct",
    (intertwiner, "build_C_quantum"): "intertwiner.build_C",
    (intertwiner, "build_C_classical"): "intertwiner.build_C",
    (intertwiner, "check_commutation"): "intertwiner.commutation",
    (intertwiner, "check_cubic"): "intertwiner.cubic",
    (intertwiner, "check_cubic_specialized"): "intertwiner.cubic",
    (intertwiner, "spectrum_of_C"): "intertwiner.spectrum",
    (coideal, "duality_rep"): "coideal.duality_rep",
    (coideal, "check_coideal_relations"): "coideal.relations",
    (cli, "fft_counts"): "cli.fft_counts",
}
# Scalar arithmetic is counted as one kind of operation.
SCALAR_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__",
              "__pow__", "inv", "specialize", "substitute_neg_qsq")
# Hot, trivial methods left unwrapped: their time goes to the caller's span.
SKIP = {"__init__", "__repr__", "__hash__", "__bool__", "__getitem__",
        "__setitem__", "__len__", "GaussRat.__eq__"}


def _own_callables(mod):
    """(qualified name, owner, attribute, raw object) for every public
    function and method defined in `mod`."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if attr in SKIP or f"{name}.{attr}" in SKIP or not callable(fn):
                    continue
                if attr.startswith("_") and not attr.startswith("__"):
                    continue
                yield f"{name}.{attr}", obj, attr, raw
        elif callable(obj):
            yield name, mod, name, obj


def cached_functions():
    """Every lru_cache of the package, so a pass can start cold.  Call this
    before installing a tracer: wrappers hide `cache_clear`."""
    out = []
    for mod in MODULES:
        for _, _, _, raw in _own_callables(mod):
            if hasattr(raw, "cache_clear"):
                out.append(raw)
    return out


def span_key(mod, qualname: str) -> str:
    key = SPAN_KEYS.get((mod, qualname))
    if key:
        return key
    short = mod.__name__.rsplit(".", 1)[1]
    if mod is ring:
        cls, _, attr = qualname.partition(".")
        if cls == "Scalar" and attr in SCALAR_OPS:
            return "ring.scalar_ops"
    return f"{short}.other"


class Tracer:
    """Aggregated spans for one traced pass."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.gcd_s = 0.0
        self.matmul_nnz = 0
        self.echelon_inserts = 0
        self.echelon_accepted = 0
        self.closure_space_dim = 0
        self._stack = []   # open spans: [is ring span, time covered by children]
        self._patches = []

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, fn, key: str, qualname: str):
        is_ring = key.startswith(RING + ".")
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter
        post = {"SparseMatrix.__mul__": self._after_matmul,
                "EchelonBasis.insert": self._after_insert,
                "algebra_closure_dim": self._after_closure}.get(qualname)

        def span(*a, **kw):
            calls[key] += 1
            if is_ring and stack and stack[-1][0]:
                return fn(*a, **kw)
            frame = [is_ring, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*a, **kw)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[key] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if post is not None:
                post(a, kw, out)
            return out

        if key != "ring.poly_gcd":
            return span
        tracer = self

        def gcd(*a, **kw):
            t0 = clock()
            try:
                return span(*a, **kw)
            finally:
                tracer.gcd_s += clock() - t0
        return gcd

    def _after_matmul(self, args, kwargs, out):
        self.matmul_nnz += len(out.data)

    def _after_insert(self, args, kwargs, accepted):
        self.echelon_inserts += 1
        self.echelon_accepted += bool(accepted)

    def _after_closure(self, args, kwargs, out):
        dim = args[1] if len(args) > 1 else kwargs["dim"]
        self.closure_space_dim = max(self.closure_space_dim, dim)

    # -- install / uninstall ---------------------------------------------------
    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for mod in MODULES:
            for qualname, owner, attr, raw in _own_callables(mod):
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                w = self._wrap(fn, span_key(mod, qualname), qualname)
                self._patch(owner, attr, staticmethod(w) if is_static else w)
                if owner is mod:
                    originals[id(raw)] = w
        # names imported into other modules (from .linalg import ...)
        for mod in vars(spindual).values():
            if not inspect.ismodule(mod):
                continue
            for name, obj in list(vars(mod).items()):
                w = originals.get(id(obj))
                if w is not None and vars(mod)[name] is not w:
                    self._patch(mod, name, w)
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- results -----------------------------------------------------------------
    def metrics(self, verify_s: float) -> dict:
        """Per-layer metrics of the pass, given its traced wall time."""
        s, c = self.self_s, self.calls

        def layer_s(layer):
            return sum((v for k, v in s.items() if k.startswith(layer + ".")),
                       0.0)

        inserts = self.echelon_inserts
        ring_s = layer_s("ring")
        covered = sum(s.values())
        return {
            "ring.gauss_mul_calls": (c["ring.gauss_mul"], "count"),
            "ring.gauss_addsub_calls": (c["ring.gauss_addsub"], "count"),
            "ring.gauss_inv_calls": (c["ring.gauss_inv"], "count"),
            "ring.scalar_ops_calls": (c["ring.scalar_ops"], "count"),
            "ring.poly_gcd_calls": (c["ring.poly_gcd"], "count"),
            "ring.self_s": (ring_s, "s"),
            "ring.poly_gcd_s": (self.gcd_s, "s"),
            "ring.share": (ring_s / verify_s, "ratio"),
            "linalg.echelon_inserts": (inserts, "count"),
            "linalg.echelon_accepted": (self.echelon_accepted, "count"),
            "linalg.echelon_accept_ratio": (
                self.echelon_accepted / inserts if inserts else 0.0, "ratio"),
            "linalg.echelon_s": (s["linalg.echelon"], "s"),
            "linalg.closure_s": (s["linalg.closure"], "s"),
            "linalg.closure_space_dim": (self.closure_space_dim, "count"),
            "linalg.commutant_s": (s["linalg.commutant"], "s"),
            "linalg.rank_s": (s["linalg.rank"], "s"),
            "linalg.matmul_calls": (c["linalg.matmul"], "count"),
            "linalg.matmul_out_nnz": (self.matmul_nnz, "count"),
            "linalg.matmul_s": (s["linalg.matmul"], "s"),
            "linalg.kron_s": (s["linalg.kron"], "s"),
            "linalg.specialize_s": (s["linalg.specialize"], "s"),
            "linalg.self_s": (layer_s("linalg"), "s"),
            "qgroup.relations_s": (s["qgroup.relations"], "s"),
            "qgroup.coproduct_s": (s["qgroup.coproduct"], "s"),
            "qgroup.self_s": (layer_s("qgroup"), "s"),
            "intertwiner.build_C_s": (s["intertwiner.build_C"], "s"),
            "intertwiner.commutation_s": (s["intertwiner.commutation"], "s"),
            "intertwiner.cubic_s": (s["intertwiner.cubic"], "s"),
            "intertwiner.spectrum_s": (s["intertwiner.spectrum"], "s"),
            "intertwiner.self_s": (layer_s("intertwiner"), "s"),
            "coideal.duality_rep_s": (s["coideal.duality_rep"], "s"),
            "coideal.relations_s": (s["coideal.relations"], "s"),
            "coideal.self_s": (layer_s("coideal"), "s"),
            "clifford.self_s": (layer_s("clifford"), "s"),
            "combinat.self_s": (layer_s("combinat"), "s"),
            "cli.fft_counts_s": (s["cli.fft_counts"], "s"),
            "trace.verify_s": (verify_s, "s"),
            "trace.uncovered_s": (verify_s - covered, "s"),
        }
