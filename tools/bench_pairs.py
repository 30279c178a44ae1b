"""Paired benchmark runs of two commits, summarized as BENCH_<n>.json.

    TMPDIR=/path/to/scratch python3 tools/bench_pairs.py \
        --parent HEAD~1 --change HEAD \
        --workload fredholm-ladder --workload structure-scan \
        --workload orbit-atlas --seeds 101-110 \
        --held-out 9001,9001,9001 --traced-seeds 101-103 --title "..." \
        --out BENCH_5.json

Each commit is unpacked from its committed files (``git archive``) into a
fresh directory under TMPDIR, so both sides run the benchmark code of
their own tree.  For every workload and seed, parent and change run
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` back to
back, one run at a time, with T the ``run_seconds`` of BENCHMARK.json;
the side that runs first alternates from pair to pair.  For every
end-to-end metric of BENCHMARK.json the summary gives, per side, the
runs, their median and quartiles (inclusive method), the relative change
of the medians, and ``change_wins``: the pairs in which the change reads
better in the metric's direction, ties counting for neither.  With
``--traced-seeds`` each side also makes one ``--trace 1`` run per traced
seed, the side that runs first again alternating, and their per-layer
metrics are stored as they are.

After the pairs, each side also runs each suite of ``SUITES`` once,
with src on the path and the side that runs first alternating: the
tier-1 suite (``--continue-on-collection-errors``), acceptance criteria
3, 7 and 8, the whole acceptance file, the Fredholm tests
(``tests/test_fredholm.py`` and ``tests/test_golden_index.py``), the
atlas tests (``tests/test_orbit_atlas.py``, ``tests/test_coadjoint.py``
and ``tests/test_golden_samples.py``), the command-line tests
(``tests/test_cli.py`` and ``tests/test_golden_reports.py``),
``orbiton all`` (text report), ``import orbiton`` alone and
``orbiton atlas --family g442`` (text report), these two for the
start-up cost of the package and of the orbit side, and ``atlas_minflt``,
which prints the minor page faults of each warm ``workloads.atlas_pass``
(seed 101, five passes after a first one) as a JSON line.
Their wall times, exit codes and last output lines (the pytest summary,
the report's status line, the fault counts) go under ``suites``.

The file also records ``net_lines``: for ``src`` and ``tests``, the
lines added minus the lines deleted from parent to change, from
``git diff --numstat``.

Every workload runs with the same seeds, and the output file is written
afresh from the runs of this invocation only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# Minor page faults of each orbit-atlas pass after the first, which also
# faults in code and caches.
_ATLAS_MINFLT = """
import json, resource, sys
sys.path[:0] = ["perfbench"]
import workloads
from recorder import Checks, Recorder
inputs = workloads.atlas_setup(101)
rec = Recorder(tracing=False)
faults = []
for k in range(6):
    rec.begin_pass(k)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    workloads.atlas_pass(inputs, rec, Checks())
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"atlas_minflt": faults[1:]}))
"""
# Each suite is the argument list of one timed interpreter run.
_PYTEST = ["-m", "pytest", "-q"]
SUITES = {
    "tier1": [*_PYTEST, "--continue-on-collection-errors"],
    "criterion_03": [
        *_PYTEST,
        "tests/test_acceptance.py::test_criterion_03_orbit_atlas_consistency"],
    "criterion_07": [
        *_PYTEST,
        "tests/test_acceptance.py::test_criterion_07_fredholm_index_pair"],
    "criterion_08": [
        *_PYTEST,
        "tests/test_acceptance.py::"
        "test_criterion_08_winding_and_delta0_fixtures"],
    "acceptance": [*_PYTEST, "tests/test_acceptance.py"],
    "fredholm": [*_PYTEST, "tests/test_fredholm.py",
                 "tests/test_golden_index.py"],
    "atlas": [*_PYTEST, "tests/test_orbit_atlas.py",
              "tests/test_coadjoint.py", "tests/test_golden_samples.py"],
    "cli": [*_PYTEST, "tests/test_cli.py", "tests/test_golden_reports.py"],
    "orbiton_all": ["-m", "orbiton.cli", "all", "--format", "text"],
    "import": ["-c", "import orbiton"],
    "orbiton_atlas": ["-m", "orbiton.cli", "atlas", "--family", "g442",
                      "--format", "text"],
    "atlas_minflt": ["-c", _ATLAS_MINFLT],
}


def _seeds(text: str) -> list[int]:
    """'101-105' or '101,103,9001' (ranges inclusive; repeats allowed)."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="git revision")
    p.add_argument("--change", required=True, help="git revision")
    p.add_argument("--workload", required=True, action="append")
    p.add_argument("--seeds", required=True, type=_seeds)
    p.add_argument("--held-out", type=_seeds, default=[],
                   help="seeds not used while the change was written, "
                        "one pair each; repeat a seed for more pairs")
    p.add_argument("--traced-seeds", type=_seeds, default=[],
                   help="seeds of one --trace 1 run per side each")
    p.add_argument("--title", required=True)
    p.add_argument("--out", required=True, type=Path)
    return p.parse_args(argv)


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def _net_lines(parent: str, change: str) -> dict:
    """Added minus deleted lines per directory; binary files count 0."""
    out = {}
    for path in ("src", "tests"):
        net = 0
        for line in _git("diff", "--numstat", parent, change, "--",
                         path).splitlines():
            added, deleted, _ = line.split("\t", 2)
            if added != "-":
                net += int(added) - int(deleted)
        out[path] = net
    return out


def _unpack(rev: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def _run(tree: Path, workload: str, seed: int, seconds: float,
         trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {tree}: exit "
                         f"{proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith('{"provenance"'):
            result["provenance"] = json.loads(line)["provenance"]
    print(f"{tree.name:6s} {workload} seed {seed} trace {trace}: "
          f"correct={result['correct']}", file=sys.stderr, flush=True)
    return result


def _suite(tree: Path, name: str) -> dict:
    """One timed run of a suite in a tree, with src on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *SUITES[name]], cwd=tree,
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, check=False)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    print(f"{tree.name:6s} {name}: {wall:.1f} s, exit {proc.returncode}",
          file=sys.stderr, flush=True)
    return {"wall_s": round(wall, 3), "exit": proc.returncode,
            "summary": lines[-1] if lines else ""}


def _side_stats(runs: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else (runs[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def _summary(pairs: list[dict], metrics: dict, seeds: list[int]) -> dict:
    out = {"seeds": seeds, "pairs": len(pairs),
           "all_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
           "metrics": {}}
    for name, better in metrics.items():
        runs = {s: [p[s]["metrics"][name]["value"] for p in pairs]
                for s in SIDES}
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(1 for p, c in zip(runs["parent"], runs["change"])
                   if sign * (c - p) < 0.0)
        entry = {s: _side_stats(runs[s]) for s in SIDES}
        base = entry["parent"]["median"]
        entry["change_wins"] = f"{wins}/{len(pairs)}"
        entry["median_change"] = (
            round(entry["change"]["median"] / base - 1.0, 4) if base else None)
        out["metrics"][name] = entry
    return out


def _pairs(trees: dict, workload: str, seeds: list[int], seconds: float,
           first: int, trace: int = 0) -> list[dict]:
    """One pair per seed; parent runs first in even pairs from ``first``."""
    pairs = []
    for i, seed in enumerate(seeds, start=first):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pairs.append({side: _run(trees[side], workload, seed, seconds, trace)
                      for side in order})
    return pairs


def main(argv=None) -> int:
    args = _parse(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    commits = {s: _git("rev-parse", getattr(args, s)) for s in SIDES}
    doc = {
        "change": args.title,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "method": {
            "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                       f"--seconds {seconds:g} --trace 0",
            "trees": "parent and change each unpacked from their committed "
                     "files (git archive) into a fresh directory",
            "pairs": "parent and change run back to back per seed, the "
                     "side that runs first alternating from pair to pair; "
                     "one run at a time; the same seeds for every workload",
            "statistic": "median and quartiles (inclusive method) over the "
                         "runs of each side; change_wins counts pairs where "
                         "the change reads better, ties counting for neither",
            "traced": "one --trace 1 run per side at each traced seed for "
                      "the per-layer numbers, after the untraced pairs",
            "suites": "one timed run per side of the tier-1 suite, of "
                      "acceptance criteria 3, 7 and 8, of the whole "
                      "acceptance file, of the Fredholm tests, of the "
                      "atlas tests, of the command-line tests, of "
                      "orbiton all, of import orbiton, of orbiton atlas "
                      "--family g442 and of the warm orbit-atlas passes' "
                      "minor page faults (atlas_minflt) after all pairs, "
                      "the side that runs first alternating from suite to "
                      "suite",
            "script": "tools/bench_pairs.py",
        },
        "net_lines": _net_lines(commits["parent"], commits["change"]),
        "workloads": {},
        "provenance": {},
    }
    if args.held_out:
        doc["held_out"] = {}
    if args.traced_seeds:
        doc["per_layer_traced"] = {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {s: Path(tmp) / s for s in SIDES}
        for side in SIDES:
            _unpack(commits[side], trees[side])
        for w in args.workload:
            pairs = _pairs(trees, w, args.seeds, seconds, 0)
            doc["workloads"][w] = _summary(pairs, metrics, args.seeds)
            doc["provenance"][w] = {
                s: pairs[0][s].get("provenance") for s in SIDES}
            if args.held_out:
                doc["held_out"][w] = _summary(
                    _pairs(trees, w, args.held_out, seconds, len(pairs)),
                    metrics, args.held_out)
            if args.traced_seeds:
                traced = _pairs(trees, w, args.traced_seeds, seconds, 0,
                                trace=1)
                doc["per_layer_traced"][w] = {
                    s: {str(seed): {
                        **{k: m["value"] for k, m in p[s]["metrics"].items()},
                        "correct": p[s]["correct"]}
                        for seed, p in zip(args.traced_seeds, traced)}
                    for s in SIDES}
        doc["suites"] = {}
        for i, name in enumerate(SUITES):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            doc["suites"][name] = {side: _suite(trees[side], name)
                                   for side in order}
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
