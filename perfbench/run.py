"""Exact-verification benchmark for spindual.

    python3 perfbench/run.py --workload {symbolic,centralizer,spec_cubic,all}
                             --seconds S [--seed 11] [--trace 0|1]

One single-threaded client runs a workload's claims one after another
(a closed loop with one client).  A pass is one cold run of the claim
list: every lru_cache of spindual is cleared first, as in a fresh
`spindual` process.  Passes repeat until the next one would overrun
--seconds; every pass runs the same claims at the same specialization
points, drawn from --seed.  Every verdict is checked exactly against an
expected answer; a claim that raises counts as failed and the pass goes
on.  claims_total and claims_failed count the claims of all passes.

End-to-end metrics (--trace 0), medians over the passes:
  setup_s          fresh interpreter: import spindual, make the inputs
                   (median of several fresh processes)
  verify_s         wall time of a pass, first claim to last verdict
  slowest_claim_s  wall time of the longest claim of a pass
  peak_rss_mb      peak resident memory of this process (ru_maxrss)

With --trace 1, untraced and traced passes alternate on the same inputs
and the per-layer metrics of spans.py are printed instead (times are
medians over the traced passes, counts come from the first one), with
trace.overhead_s = traced minus untraced pass time.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics (with --workload all, one such line per workload, each after
that workload's report).  Exit status 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 15
DEFAULT_SEED = 11


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import spindual from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    try:
        import spindual
    except ImportError as exc:
        fail(f"cannot import spindual from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(spindual.__file__))) != SRC:
        fail(f"spindual imported from {spindual.__file__}, not from {SRC}")


def environment() -> dict:
    from spindual import ring
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    try:
        commit = subprocess.run(
            ["git", f"--git-dir={os.path.join(ROOT, '.git')}", "rev-parse",
             "HEAD"], capture_output=True, text=True, timeout=10,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "gmpy2": has_gmpy2,
            "scalar_backend": f"{ring.Q.__module__}.{ring.Q.__name__}",
            "commit": commit}


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
             str(seed)], capture_output=True, text=True, timeout=120)
        if proc.returncode:
            fail(f"setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def run_claim(claim):
    """(passed, seconds, error) for one claim; exceptions are failures."""
    t0 = time.perf_counter()
    try:
        ok = bool(claim.check(claim.run()))
        err = None
    except Exception as exc:   # a crash is a failed claim, not an abort
        ok, err = False, f"{type(exc).__name__}: {exc}"
    return ok, time.perf_counter() - t0, err


def run_pass(claims, caches, tag: str):
    """Run the claims cold; return (wall seconds, slowest claim, failures)."""
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    slowest = 0.0
    failures = 0
    t0 = time.perf_counter()
    for claim in claims:
        ok, dt, err = run_claim(claim)
        slowest = max(slowest, dt)
        failures += not ok
        print(f"  {'PASS' if ok else 'FAIL'} {tag} {claim.label}"
              f"  v0={claim.point}  {dt:.4f}s" + (f"  [{err}]" if err else ""))
    return time.perf_counter() - t0, slowest, failures


def controls_detected(caches) -> bool:
    """Negative controls: a claim that raises and a claim with a wrong
    answer must both count as failed, and the pass must go on past them."""
    import workloads
    controls = workloads.controls()
    return run_pass(controls, caches, "control")[2] == len(controls)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import spans
    import workloads
    if args.workload == "all":
        return run_all(workloads.WORKLOADS, args)
    make = workloads.WORKLOADS.get(args.workload)
    if make is None:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)} or all")
    print("# env " + json.dumps(environment()))
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    setup = setup_seconds(args.workload, args.seed)
    caches = spans.cached_functions()
    print("# negative controls (must FAIL)")
    controls_ok = controls_detected(caches)

    claims = make(args.seed)
    deadline = time.perf_counter() + args.seconds
    untraced, slowest, traced, layers = [], [], [], []
    attempted = failed = 0
    spent = []    # wall time of each loop step, for the stopping rule
    index = 0
    while True:
        start = time.perf_counter()
        wall, slow, nfail = run_pass(claims, caches, f"p{index}")
        untraced.append(wall)
        slowest.append(slow)
        attempted += len(claims)
        failed += nfail
        if args.trace:
            tracer = spans.Tracer().install()
            try:
                wall, _, nfail = run_pass(claims, caches, f"p{index}-traced")
            finally:
                tracer.uninstall()
            traced.append(wall)
            layers.append(tracer)
            attempted += len(claims)
            failed += nfail
        spent.append(time.perf_counter() - start)
        index += 1
        if time.perf_counter() + statistics.median(spent) > deadline:
            break

    print(f"claims_total {attempted} count ({index} passes of {len(claims)}"
          f"{', each also traced' if args.trace else ''})")
    print(f"claims_failed {failed} count")
    if not controls_ok:
        print("negative controls were not counted as failures")
    if args.trace:
        metrics = layer_metrics(layers, traced, untraced)
        print("# spans " + json.dumps(
            {k: [layers[0].calls[k], layers[0].self_s[k]]
             for k in sorted(layers[0].calls)}))
    else:
        metrics = {
            "setup_s": (setup, "s"),
            "verify_s": (statistics.median(untraced), "s"),
            "slowest_claim_s": (statistics.median(slowest), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": controls_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(names, args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        status = max(status, proc.returncode)
    return status


def layer_metrics(tracers, traced, untraced) -> dict:
    """Counts from the first traced pass (they repeat exactly); times and
    ratios are medians over the traced passes."""
    per_pass = [t.metrics(wall) for t, wall in zip(tracers, traced)]
    out = {}
    for name, (value, unit) in per_pass[0].items():
        if unit != "count":
            value = statistics.median(m[name][0] for m in per_pass)
        out[name] = (value, unit)
    out["trace.overhead_s"] = (
        statistics.median(t - u for t, u in zip(traced, untraced)), "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
