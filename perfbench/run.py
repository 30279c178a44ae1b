"""Benchmark of the orbiton library: one workload per process.

    python3 perfbench/run.py --workload orbit-atlas --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Workloads, metrics and units are listed in BENCHMARK.json at the
repository root; perfbench/README.md maps each per-layer metric to the
end-to-end metric and workload it should move.

One process, one caller, closed loop: every library call waits for the
previous one.  BLAS gets ``nproc`` threads.  Set-up (import, input
generation from the seed, self-test) is timed first; then whole passes over
the inputs run until ``--seconds`` would be exceeded, at least one pass;
the fastest pass is the run's time.
Without tracing the end-to-end metrics are reported; with tracing the
per-layer ones, from traced passes that alternate with untraced ones so
that their difference is the tracing overhead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# None of these imports numpy, so they may load before the BLAS threads
# are set.
import layers
import provenance
from recorder import Checks, Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("fredholm-ladder", "orbit-atlas", "structure-scan")
SETUP_REPEATS = 5
# Import of the library timed in a fresh interpreter; set-up reports the
# median of these and the run's own import.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = [{here!r}, {src!r}]; "
                "t = time.perf_counter(); import workloads; "
                "print(time.perf_counter() - t)")
ONE_THREAD_TIMEOUT_S = 150
REPORTED_FAILURES = 20


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        for key, m in res["metrics"].items():
            print(f"{name:16s} {key:36s} {m['value']:.6g} {m['unit']}")
            metrics[f"{name}.{key}"] = m
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


class Run:
    """Passes of one workload and what they measured."""

    def __init__(self, pass_fn, inputs):
        self.pass_fn = pass_fn
        self.inputs = inputs
        self.plain = Recorder(tracing=False)
        self.traced = Recorder(tracing=True)
        self.walls = {False: [], True: []}
        self.cpus = {False: [], True: []}
        self.attempted = 0
        self.failures: list[str] = []
        self.answers = 0
        self.misses = 0
        self.signature = None
        self.counts_repeat = True

    def one_pass(self, tracing: bool) -> float:
        rec = self.traced if tracing else self.plain
        chk = Checks()
        gc.collect()
        rec.begin_pass(len(self.walls[False]) + len(self.walls[True]))
        c0 = time.process_time()
        t0 = time.perf_counter()
        self.pass_fn(self.inputs, rec, chk)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        rec.end_pass()
        self.walls[tracing].append(wall)
        self.cpus[tracing].append(cpu)
        self.attempted += chk.attempted
        self.failures += chk.failures
        self.answers += chk.answers
        self.misses += chk.misses
        signature = {**rec.counts, "checks": chk.attempted,
                     "answers": chk.answers, "misses": chk.misses}
        if self.signature is None:
            self.signature = signature
        elif signature != self.signature:
            self.counts_repeat = False
        return wall

    def measure(self, seconds: float, tracing: bool) -> None:
        """Passes until ``seconds`` would be exceeded, at least one.

        With tracing, untraced and traced passes alternate, at least one
        of each, so that drift affects both sides alike.
        """
        modes = (False, True) if tracing else (False,)
        start = time.perf_counter()
        k = 0
        while True:
            wall = self.one_pass(modes[k % len(modes)])
            k += 1
            if (k >= len(modes)
                    and time.perf_counter() - start + wall > seconds):
                break


def _one_thread_baseline() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in provenance.BLAS_THREAD_VARS})
    proc = subprocess.run([sys.executable, str(HERE / "one_thread.py")],
                          stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT, timeout=ONE_THREAD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _import_seconds() -> list[float]:
    """Import time of the library in SETUP_REPEATS - 1 fresh interpreters."""
    code = IMPORT_PROBE.format(here=str(HERE), src=str(ROOT / "src"))
    out = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run([sys.executable, "-c", code],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=60, check=True)
        out.append(float(proc.stdout))
    return out


def _earlier_counts(args, digest: str) -> list[dict]:
    """Per-pass counts of earlier runs of the same code, workload and seed.

    They are read from the result files that earlier runs in this
    checkout left behind.
    """
    out = []
    for trace in (0, 1):
        path = RESULTS / f"{args.workload}-seed{args.seed}-trace{trace}.json"
        try:
            with open(path, encoding="utf-8") as fh:
                rec = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if rec.get("provenance", {}).get("source_sha256") == digest:
            out.append(rec["counts"])
    return out


def _layer_metrics(run: Run) -> tuple[dict, bool]:
    rec = run.traced
    metrics = layers.layer_metrics(rec.spans, run.signature, rec.minima,
                                   rec.peak_bytes)
    metrics["trace.overhead_s"] = (statistics.median(run.walls[True])
                                   - statistics.median(run.walls[False]))
    metrics["fredholm.index_s.N2048.1thread"] = 0.0
    metrics["fredholm.index_cpu_s.N2048.1thread"] = 0.0
    if metrics["fredholm.index_s.N2048"] == 0.0:
        return metrics, True
    base = _one_thread_baseline()
    metrics["fredholm.index_s.N2048.1thread"] = base["wall_s"]
    metrics["fredholm.index_cpu_s.N2048.1thread"] = base["cpu_s"]
    return metrics, base["ok"]


def _end_to_end(run: Run, setup_s: float) -> dict:
    gated = run.attempted
    answers = gated + run.answers
    return {
        "setup_s": setup_s,
        "wall_s": min(run.walls[False]),
        "cpu_s": min(run.cpus[False]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "check_pass_ratio": (gated - len(run.failures)) / gated,
        "hit_ratio": (answers - len(run.failures) - run.misses)
                     / answers,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    # Fixed before numpy loads.
    for var in provenance.BLAS_THREAD_VARS:
        os.environ[var] = str(provenance.nproc())
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the library from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    setup_fn, pass_fn = workloads.WORKLOADS[args.workload]
    gen = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = setup_fn(args.seed)
        gen.append(time.perf_counter() - t0)
    # The self-test runs before any pass, so it also pays the library's
    # first-call costs; it counts as set-up.
    t0 = time.perf_counter()
    teeth = Checks()
    workloads.self_test(teeth)
    self_test_s = time.perf_counter() - t0
    teeth_ok = (teeth.attempted == 6 and teeth.failed == 3 and all(
        f.startswith("planted:") for f in teeth.failures))
    imports = [import_s, *_import_seconds()]
    setup_s = statistics.median(imports) + statistics.median(gen) + self_test_s

    run = Run(pass_fn, inputs)
    run.measure(args.seconds, bool(args.trace))

    if args.trace:
        metrics, baseline_ok = _layer_metrics(run)
        wanted = spec["per_layer"]
    else:
        metrics, baseline_ok = _end_to_end(run, setup_s), True
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        print(f"perfbench: measured metrics {sorted(metrics)} differ from "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1

    prov = provenance.collect(ROOT, args.seed)
    earlier = _earlier_counts(args, prov["source_sha256"])
    counts_repeat = run.counts_repeat and all(c == run.signature
                                              for c in earlier)
    correct = not run.failures and counts_repeat and teeth_ok and baseline_ok
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": prov,
        "correct": correct, "counts_repeat": counts_repeat,
        "counts_compared_with_earlier_runs": len(earlier),
        "self_test": {"attempted": teeth.attempted,
                      "failures": teeth.failures},
        "attempted": run.attempted, "failed": len(run.failures),
        "failures": run.failures[:REPORTED_FAILURES],
        "answers": {"scored": run.answers, "misses": run.misses},
        "setup": {"import_s": imports, "generate_s": gen,
                  "self_test_s": self_test_s},
        "passes": {"untraced_wall_s": run.walls[False],
                   "untraced_cpu_s": run.cpus[False],
                   "traced_wall_s": run.walls[True],
                   "traced_cpu_s": run.cpus[True]},
        "counts": run.signature,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        with open(RESULTS / f"{stem}-spans.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "tag", "start", "end",
                                  "parent", "pass"],
                       "spans": run.traced.spans}, fh)

    for f in record["failures"]:
        print(f"FAILED: {f}", file=sys.stderr)
    if not counts_repeat:
        print("FAILED: exact counts differ between passes or from an "
              "earlier run of the same code and seed", file=sys.stderr)
    if not teeth_ok:
        print(f"FAILED: self-test {teeth.failures}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}))
    for name in sorted(metrics):
        print(f"{name:36s} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
