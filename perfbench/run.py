"""Benchmark of the bandres chain: band edges, window, actions, ladder, oracle.

    python3 perfbench/run.py --workload ladder_sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``BENCHMARK.json`` lists the workloads whose end-to-end metrics are gated
(``ladder_sweep``, ``verify_all``). ``bands_cold`` runs the same way but is
not listed: its few ops of very different cost (4-16 s each) cannot give
a steady per-run median at that run length.
One process runs one operation at a time (a closed loop with one client)
with BLAS limited to one thread. With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it runs the op list once untraced,
sets up again and runs it traced, and prints the per-layer metrics and the
tracing overhead. Op outputs are checked outside the timed region; the run
is incorrect when an op fails other than by a known defect, or when a
traced output differs from the untraced one. The last stdout line is the
JSON result; inputs, outcomes and the trace go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5      # cold set-ups per run; setup_s is their median
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def tail(samples):
    """(percentile, value, n) of the highest integer percentile with at least
    ten samples beyond it, by nearest rank; None below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)
    return pct, sorted(samples)[rank - 1], n


def _import_package():
    """Import bandres from this checkout; the seconds it took."""
    t0 = time.perf_counter()
    import bandres
    import bandres.cli  # noqa: F401  (verify runs through the CLI module)
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(bandres.__file__).startswith(SRC + os.sep):
        raise RuntimeError("bandres imported from %s, not %s" % (bandres.__file__, SRC))
    return elapsed


def setup_sample(workload, seed, seconds):
    """One cold set-up in a fresh interpreter: imports, config load, set-up."""
    t0 = time.perf_counter()
    _import_package()
    from perfbench import workloads
    wl = workloads.WORKLOADS[workload](ROOT, OUTDIR)
    wl.setup(workloads.generate(workload, seed, seconds))
    return time.perf_counter() - t0


def _setup_in_subprocess(args):
    code = ("import sys; sys.path[:0] = [%r, %r]; from perfbench import run; "
            "print(run.setup_sample(%r, %d, %d))"
            % (ROOT, SRC, args.workload, args.seed, args.seconds))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=150, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_ops(wl, ops, state, tracer=None):
    """Closed loop over the op list: (output or exception, seconds) per op."""
    results = []
    for op in ops:
        if tracer is not None:
            tracer.op = op["id"]
        t0 = time.perf_counter()
        try:
            out = wl.run(op, state)
        except Exception as exc:  # a failing op is counted, not fatal
            out = exc
        results.append((out, time.perf_counter() - t0))
    return results


def check_ops(wl, ops, state, results):
    """Per-op verdicts: (failed ops, unexpected failures, edge_dev_max, log).

    An op fails when it raises or its check finds a problem; a failure
    not listed in ``workloads.KNOWN_DEFECTS`` is unexpected and makes the
    run incorrect.
    """
    from perfbench.workloads import is_known
    failed = unexpected = 0
    edge_dev = 0.0
    log = []
    for op, (out, dt) in zip(ops, results):
        if isinstance(out, Exception):
            problems, info = [("error", 0, "%s: %s" % (type(out).__name__, out), None)], {}
        else:
            problems, info = wl.check(op, state, out)
        edge_dev = max(edge_dev, info.get("edge_dev", 0.0))
        status = "ok" if info.get("verified", True) else "unverified"
        if problems:
            failed += 1
            known = all(is_known(p) for p in problems)
            unexpected += not known
            status = "failed (known defect)" if known else "FAILED"
        log.append(dict(op, seconds=dt, status=status,
                        problems=[p[2] for p in problems]))
    return failed, unexpected, edge_dev, log


def _same(wl, out, again):
    if isinstance(out, Exception) or isinstance(again, Exception):
        return type(out) is type(again)
    return wl.same(out, again)


def _p50(results, ops, match):
    times = [dt for op, (_, dt) in zip(ops, results) if match(op)]
    return statistics.median(times) if times else 0.0


def _op_metrics(results, ops, failed, ops_wall):
    times = [dt for _, dt in results]
    t = tail(times)
    from perfbench.workloads import ABSORBER_CONFIGS
    passes = [out for op, (out, _) in zip(ops, results)
              if op["kind"] == "verify" and not isinstance(out, Exception)]

    def verify_s(absorber):
        return sum(dt for out in passes for name, _, _, dt in out
                   if (name in ABSORBER_CONFIGS) == absorber) / max(1, len(passes))

    return {
        "ops.count": len(times),
        "ops.per_s": len(times) / ops_wall,
        "ops.fail_frac": failed / len(times),
        "ops.tail_pct": t[0] if t else 0,
        "ops.tail_s": t[1] if t else 0.0,
        "ops.ladder_p50_s": _p50(results, ops, lambda op: op["kind"] == "ladder"),
        "ops.table_p50_s": _p50(results, ops, lambda op: op["kind"] == "table"),
        "ops.absorber_verify_s": verify_s(True),
        "ops.dirichlet_verify_s": verify_s(False),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("bands_cold", "ladder_sweep", "verify_all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bandres", "__init__.py")):
        print("error: no bandres package under %s" % SRC, file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [ROOT, SRC]

    t0 = time.perf_counter()
    t_import = _import_package()
    from perfbench import tracing, workloads
    ops = workloads.generate(args.workload, args.seed, args.seconds)
    os.makedirs(OUTDIR, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](ROOT, OUTDIR)
    state = wl.setup(ops)
    setups = [time.perf_counter() - t0]
    # The other set-ups run in fresh interpreters, half before the ops and
    # half after them, so that they meet the machine's speed at both ends.
    before = (SETUP_SAMPLES - 1) // 2
    if not args.trace:
        setups += [_setup_in_subprocess(args) for _ in range(before)]

    t_ops = time.perf_counter()
    results = run_ops(wl, ops, state)
    ops_wall = time.perf_counter() - t_ops
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setups += [_setup_in_subprocess(args)
                   for _ in range(SETUP_SAMPLES - 1 - before)]
    failed, unexpected, edge_dev, log = check_ops(wl, ops, state, results)
    correct = unexpected == 0
    op_metrics = _op_metrics(results, ops, failed, ops_wall)

    stem = os.path.join(OUTDIR, "%s_%d_trace%d" % (args.workload, args.seed, args.trace))
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.Hooks(tracer):
            tracer.op = "setup"
            traced_state = wl.setup(ops)
            traced = run_ops(wl, ops, traced_state, tracer)
        differ = [op["id"] for op, (out, _), (again, _) in zip(ops, results, traced)
                  if not _same(wl, out, again)]
        if differ:
            correct = False
            print("traced outputs differ from untraced ones for ops %s" % differ)
        metrics = tracing.layer_metrics(tracer)
        metrics.update(op_metrics)
        metrics["hill.edge_dev_max"] = edge_dev
        metrics["trace.overhead_frac"] = (sum(dt for _, dt in traced)
                                          / sum(dt for _, dt in results) - 1.0)
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(dict(tracer.to_dict(), ops=log), fh)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(dt for _, dt in results),
            "peak_rss_mb": peak_rss_mb,
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"setups": setups, "ops": log}, fh)

    t = tail([dt for _, dt in results])
    print("%s seed %d: %d ops in %.2f s, set-up median %.3f s of %s (import %.3f s)"
          % (args.workload, args.seed, len(ops), ops_wall, statistics.median(setups),
             ["%.3f" % s for s in setups], t_import))
    print("op tail: %s" % ("p%d = %.4f s over %d ops" % t if t else
                           "undefined below 11 ops (%d ops)" % len(ops)))
    for entry in log:
        if entry["status"] != "ok":
            print("op %d %s: %s" % (entry["id"], entry["status"], "; ".join(entry["problems"])))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError("metrics %s do not match BENCHMARK.json"
                           % sorted(set(units) ^ set(metrics)))
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
