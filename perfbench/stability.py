"""Measure the benchmark's own run-to-run spread and write it to results/.

Run from the root of a source checkout::

    python3 perfbench/stability.py

First it makes one traced run (``--trace 1``) of every workload at the
pinned seed and keeps its output in ``results/trace_<workload>.txt``, with
the per-layer metrics of all workloads side by side in
``results/traced.md``. Then it runs every workload once per seed 1 to 10,
for BENCHMARK.json's ``run_seconds``, as one set, and makes a second set.
For each set, workload and end-to-end metric it records the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread, which is the
distance between the quartiles as a share of the median. For each metric it
also records how far the second set's median moved from the first's. Every
run's result line is kept in ``results/runs.jsonl``; the summary goes to
``results/stability.json`` and, as tables, to ``results/stability.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETS = 2
SEEDS = list(range(1, 11))
#: The seed whose output digests are pinned (``run.DEFAULT_SEED``).
TRACE_SEED = 7


def run_benchmark(spec: dict, workload: str, seed: int, trace: int
                  ) -> "tuple[str, dict]":
    """One benchmark run: its full output and its parsed result line."""
    proc = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]),
                           "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE / "results")
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    args.out.mkdir(parents=True, exist_ok=True)
    traced = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        stdout, traced[name] = run_benchmark(spec, name, TRACE_SEED, 1)
        (args.out / f"trace_{name}.txt").write_text(stdout)
        print(f"traced {name}: attempted {traced[name]['attempted']}, "
              f"failed {traced[name]['failed']}", flush=True)
    (args.out / "traced.md").write_text(render_traced(spec, traced))
    runs_path = args.out / "runs.jsonl"
    runs_path.write_text("")
    sets = []
    for set_index in range(SETS):
        values: dict = {}
        for workload in spec["workloads"]:
            name = workload["name"]
            for seed in SEEDS:
                start = time.perf_counter()
                _, result = run_benchmark(spec, name, seed, 0)
                record = {"set": set_index, "workload": name, "seed": seed,
                          "wall_s": time.perf_counter() - start, **result}
                with runs_path.open("a") as out:
                    out.write(json.dumps(record) + "\n")
                print(json.dumps(record), flush=True)
                for metric, value in result["metrics"].items():
                    values.setdefault(name, {}).setdefault(
                        metric, []).append(value["value"])
        sets.append({name: {metric: summarize(v) for metric, v in m.items()}
                     for name, m in values.items()})
    summary = {"seconds": spec["run_seconds"], "seeds": SEEDS, "sets": sets,
               "median_shift": {}, "worst": {}}
    for name in sets[0]:
        for metric, first in sets[0][name].items():
            last = sets[-1][name][metric]
            shift = last["median"] / first["median"] - 1
            summary["median_shift"].setdefault(name, {})[metric] = shift
            spread = max(s[name][metric]["spread"] for s in sets)
            summary["worst"].setdefault(name, {})[metric] = {
                "spread": spread, "shift": shift, "bound": bounds[metric],
                "spread_over_bound": spread / bounds[metric]}
    (args.out / "stability.json").write_text(json.dumps(summary, indent=2)
                                             + "\n")
    (args.out / "stability.md").write_text(render(summary))
    return 0


def format_value(value: float, unit: str) -> str:
    """Counts in full, so equal counts read equal; others to 4 digits."""
    return str(round(value)) if unit == "count" else f"{value:.4g}"


def render_traced(spec: dict, results: dict) -> str:
    """Markdown table: every per-layer metric on every workload."""
    names = list(results)
    lines = [f"# Traced runs: seed {TRACE_SEED}, {spec['run_seconds']} s "
             f"per run", "",
             "Per-layer metrics, medians over each run's traced passes. "
             "Full output in `trace_<workload>.txt`.", "",
             "| metric | unit | " + " | ".join(names) + " |",
             "|---" * (len(names) + 2) + "|",
             "| operations attempted / failed | count | " + " | ".join(
                 f"{results[n]['attempted']} / {results[n]['failed']}"
                 for n in names) + " |",
             "| output checks passed | | " + " | ".join(
                 str(results[n]["correct"]).lower() for n in names) + " |"]
    for metric in spec["per_layer"]:
        cells = [format_value(results[n]["metrics"][metric["name"]]["value"],
                              metric["unit"]) for n in names]
        lines.append(f"| {metric['name']} | {metric['unit']} | "
                     + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def render(summary: dict) -> str:
    """Markdown tables: per workload, each metric in each set."""
    sets = summary["sets"]
    lines = [f"# Stability: {len(sets)} sets, seeds {summary['seeds'][0]}-"
             f"{summary['seeds'][-1]}, {summary['seconds']} s per run", ""]
    for name in sets[0]:
        lines += [f"## {name}", "",
                  "| metric | " + " | ".join(
                      f"set {i + 1}: median [q1, q3] spread"
                      for i in range(len(sets)))
                  + " | shift | bound |",
                  "|---" * (len(sets) + 3) + "|"]
        for metric, worst in summary["worst"][name].items():
            cells = [f"{s[name][metric]['median']:.4g} "
                     f"[{s[name][metric]['q1']:.4g}, "
                     f"{s[name][metric]['q3']:.4g}] "
                     f"{s[name][metric]['spread']:.3f}" for s in sets]
            lines.append(f"| {metric} | " + " | ".join(cells)
                         + f" | {worst['shift']:+.3f} | {worst['bound']} |")
        lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
