"""End-to-end benchmark of the simulate → persist → analyze pass.

Run from the root of a source checkout (it runs the program from ``src``)::

    python3 perfbench/run.py --workload clean_pass --seed 7 \
        --seconds 18 --trace 0

``--trace 0`` times whole passes through the real CLI and prints the
end-to-end metrics; ``--trace 1`` runs a traced pass in one process and
prints the per-layer metrics. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The lines above
it give every metric's median, quartiles and pass count, with the raw wall
times and reference readings beside the scaled ones.

Every time is host-scaled: ``wall × REF_NOMINAL_S / median(readings)``,
where the readings are of the frozen kernel in ``refkernel.py``, taken before
the first command and after every command of the run, while no child process
of the benchmark is alive. See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refkernel  # noqa: E402
from ops import (  # noqa: E402
    OpResult, become_subreaper, repro_leftovers, run_op,
)
from traced import ARTIFACTS  # noqa: E402

#: Seconds one reference reading takes on the host the bounds were set on.
#: Frozen with the kernel: scaled times are in "seconds on that host".
REF_NOMINAL_S = 0.22
#: ``python -m repro --version`` launches before the first command and after
#: every command; setup_s is the median of all of them. Spreading them over
#: the run puts them in the same host state as the reference readings.
SETUP_LAUNCHES = 3
#: ``repro simulate --scale`` of every workload.
SCALE = 0.05
#: The seed whose output digests are pinned in ``pins.json``.
DEFAULT_SEED = 7
#: Variables that would change what the program does; never passed on.
SCRUBBED_ENV = ("REPRO_JOBS", "REPRO_EVENTS", "REPRO_TELEMETRY")

FAULT_FLAGS = ["--fault-rate", "0.1", "--fault-rate-3g", "0.05",
               "--dropout-p", "0.01", "--duplicate-p", "0.01",
               "--outage", "1000:1144", "--cache-batches", "96"]

#: Experiments a pass analyzes: those ``analyze all`` runs on saved data
#: (it skips the survey tables 2, 8 and 9), except two that need more data
#: than scale 0.05 gives on every seed, and that exit 2 on the seeds it
#: does not: fig19 needs a device-day over the 1 GB cellular cap in 2014
#: and 2015 ("not enough capped/other device-days to compare"), table3 a
#: non-zero median cellular download in every campaign ("AGR requires
#: strictly positive values"). See README.md.
EXPERIMENTS = tuple(
    [f"fig{i:02d}" for i in range(1, 19)] + ["sec35", "sec41"]
    + [f"table{i}" for i in (1, 4, 5, 6, 7)]
)


@dataclass(frozen=True)
class Workload:
    """One pass: ``repro simulate``, then ``repro analyze`` of
    :data:`EXPERIMENTS` on its data."""

    name: str
    simulate_flags: Tuple[str, ...] = ()
    observed: bool = False

    def commands(self, out: Path, seed: int, traced: bool = False
                 ) -> List[Tuple[str, List[str]]]:
        """The pass's commands. A traced pass keeps the flight recorder of
        an observed workload but not the program's own tracer, so that
        tracer's cost is not charged to the layers."""
        data, report = out / "data", out / "report"
        simulate = ["simulate", "--scale", str(SCALE), "--seed", str(seed),
                    "--jobs", "1", "--out", str(data), *self.simulate_flags]
        analyze = ["analyze", *EXPERIMENTS, "--data", str(data), "--out",
                   str(report)]
        if self.observed:
            events = str(out / "events.jsonl")
            simulate += ["--events", events]
            analyze += ["--events", events]
            if not traced:
                simulate += ["--telemetry", "--manifest",
                             str(out / "simulate_manifest.json")]
                analyze += ["--telemetry", "--manifest",
                            str(out / "analyze_manifest.json")]
        return [("simulate", simulate), ("analyze", analyze)]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # The default path: in-RAM merge, compressed npz persist, analysis.
    Workload("clean_pass"),
    # Same data through the out-of-core store (spill, streaming merge,
    # mmap reads) with the flight recorder and telemetry on.
    Workload("disk_pass", ("--store", "disk"), observed=True),
    # Every FaultPlan mechanism fires: per-tick collection replay.
    Workload("faulted_collect", ("--store", "disk", *FAULT_FLAGS)),
)}

END_TO_END = {
    "pass_s": "s", "simulate_s": "s", "analyze_s": "s", "setup_s": "s",
    "simulate_peak_rss_mb": "MB", "analyze_peak_rss_mb": "MB",
    "disk_mb": "MB",
}

#: Per-layer time metrics: metric name → span name in ``traced.py``.
LAYER_TIMES = {
    "simulation.world_s": "simulation.world",
    "simulation.kernel_s": "simulation.kernel",
    "collection.pump_s": "collection.pump",
    "engine.execute_self_s": "engine.execute",
    "engine.merge_s": "engine.merge",
    "traces.persist_s": "traces.persist",
    "traces.spill_s": "traces.spill",
    "traces.finalize_s": "traces.finalize",
    "traces.load_s": "traces.load",
    **{f"analysis.{a}_s": f"analysis.{a}" for a in ARTIFACTS},
    **{f"reporting.{e}_s": f"reporting.{e}" for e in EXPERIMENTS},
    "obs.emit_s": "obs.emit",
    "trace.unattributed_s": "cli.main",
}
#: Per-layer counts, named as ``traced.py`` counts them.
LAYER_COUNTS = (
    "simulation.devices", "collection.batches_generated",
    "collection.batches_delivered", "collection.lost_churn",
    "collection.lost_eviction", "collection.duplicates_dropped",
    "engine.rows_merged", "obs.events",
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {"cli.import_s": "s"}
    units.update({name: "s" for name in LAYER_TIMES})
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update({
        "collection.delivery_ratio": "ratio",
        "traces.persist_mb": "MB",
        "analysis.cache_hit_rate": "ratio",
        "analysis.cached_mb": "MB",
        "trace.overhead_ratio": "ratio",
        "host.ref_s": "s",
        "host.scale": "ratio",
    })
    return units


# ----------------------------------------------------------------------
# Host scaling
# ----------------------------------------------------------------------

def host_scale(readings: Sequence[float],
               nominal: float = REF_NOMINAL_S) -> float:
    """Factor turning raw seconds into seconds on the nominal host.

    ``readings`` are the reference readings taken around the measured work;
    their median stands for the host's speed during it.
    """
    if not readings or min(readings) <= 0:
        raise ValueError("reference readings must be positive")
    return nominal / statistics.median(readings)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def text_digest(report_dir: Path) -> str:
    """SHA-256 over the rendered ``analyze --out`` files, by name."""
    hasher = hashlib.sha256()
    for path in sorted(report_dir.glob("*.txt")):
        hasher.update(path.name.encode() + b"\0" + path.read_bytes())
    return hasher.hexdigest()


def stdout_digest(text: str, out: Path) -> str:
    """SHA-256 of a command's printed report, with its paths masked.

    The run-manifest line is dropped: the program's tracer writes it, and
    a traced pass runs without that tracer.
    """
    kept = [line for line in text.replace(str(out), "<out>").splitlines()
            if not line.startswith("wrote run manifest ")]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def load_pins(seed: int, workload: str) -> Dict[str, str]:
    pins = json.loads((HERE / "pins.json").read_text())
    if seed != pins["seed"]:
        return {}
    return pins["digests"][workload]


def check_outputs(passes: List["PassResult"], pins: Dict[str, str]) -> None:
    """Compare every pass's digests with the pins, or else with each other.

    A mismatch marks the command that made the output as failed.
    """
    reference = dict(pins) or dict(passes[0].digests)
    owner = {"dataset": "simulate", "report": "simulate",
             "analysis": "analyze"}
    for result in passes:
        for key, digest in result.digests.items():
            if reference.get(key) != digest:
                result.ops[owner[key]].mismatches.append(
                    f"{key} digest {digest[:12]} != "
                    f"{str(reference.get(key))[:12]}"
                )


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

@dataclass
class PassResult:
    ops: Dict[str, OpResult]
    out: Path
    digests: Dict[str, str] = field(default_factory=dict)
    trace: dict = field(default_factory=dict)

    @property
    def raw_s(self) -> float:
        return sum(op.wall_s for op in self.ops.values())

    def metrics(self, scale: float) -> Dict[str, float]:
        """The pass's end-to-end metrics, times multiplied by ``scale``."""
        sim, ana = self.ops["simulate"], self.ops["analyze"]
        return {
            "pass_s": self.raw_s * scale,
            "simulate_s": sim.wall_s * scale,
            "analyze_s": ana.wall_s * scale,
            "simulate_peak_rss_mb": sim.peak_rss_mb,
            "analyze_peak_rss_mb": ana.peak_rss_mb,
            "disk_mb": tree_bytes(self.out) / 1e6,
        }


class Bench:
    """One benchmark run: a workload, a seed, a time budget."""

    def __init__(self, root: Path, workload: Workload, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.python = sys.executable
        self.env = {k: v for k, v in os.environ.items()
                    if k not in SCRUBBED_ENV}
        self.env["PYTHONPATH"] = str(root / "src")
        self.work = root / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
        self.ops: List[OpResult] = []
        self.refs: List[float] = []
        self.setup_walls: List[float] = []
        self.seen_leftovers: set = set()

    def repro(self, *args: str) -> List[str]:
        return [self.python, "-m", "repro", *args]

    def op(self, name: str, argv: List[str], log_dir: Path) -> OpResult:
        result = run_op(name, argv, self.env, self.root, log_dir)
        self.ops.append(result)
        return result

    def prepare(self) -> None:
        """Untimed: byte-compile the program, note existing leftovers.

        The work directory is new and empty, so what is noted here is the
        shared-memory segments other processes hold.
        """
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        subprocess.run([self.python, "-m", "compileall", "-q",
                        str(self.root / "src")], env=self.env, check=True,
                       stdout=subprocess.DEVNULL)
        self.seen_leftovers = repro_leftovers(
            self.python, self.env, self.root, [self.work], self.work / "logs"
        )

    def reference(self) -> None:
        """Take a reference reading. Only call when no child is alive."""
        self.refs.append(refkernel.measure())

    def measure_setup(self, launches: int) -> None:
        """Time ``launches`` runs of ``repro --version`` (raw walls)."""
        for _ in range(launches):
            self.setup_walls.append(self.op(
                "version", self.repro("--version"), self.work / "logs"
            ).wall_s)

    def run_pass(self, index: int, setup_launches: int = 0) -> PassResult:
        """One untraced pass; after each command, ``setup_launches`` setup
        launches and a reference reading.

        run_op reaps every process a command leaves, so no child is alive
        when the reference runs.
        """
        out, logs = self.work / f"pass{index}", self.work / f"logs{index}"
        ops = {}
        for name, args in self.workload.commands(out, self.seed):
            ops[name] = self.op(name, self.repro(*args), logs)
            self.check_leftovers(ops[name], out)
            self.measure_setup(setup_launches)
            self.reference()
        return PassResult(ops, out)

    def run_traced(self, index: int) -> PassResult:
        """The workload's commands in one traced process (``traced.py``)."""
        out, logs = self.work / f"pass{index}", self.work / f"logs{index}"
        logs.mkdir(parents=True)
        commands = self.workload.commands(out, self.seed, traced=True)
        spec, trace_path = logs / "commands.json", logs / "trace.json"
        spec.write_text(json.dumps([
            {"argv": args, "stdout": str(logs / f"{name}.out")}
            for name, args in commands
        ]))
        child = run_op("traced", [self.python, str(HERE / "traced.py"),
                                  str(spec), str(trace_path)],
                       self.env, self.root, logs)
        self.check_leftovers(child, out)
        self.reference()
        trace = json.loads(trace_path.read_text()) \
            if trace_path.exists() else {}
        codes = trace.get("codes", [child.returncode or 1] * len(commands))
        walls = trace.get("walls", [0.0] * len(commands))
        ops = {}
        for (name, _), code, wall in zip(commands, codes, walls):
            stdout = logs / f"{name}.out"
            ops[name] = OpResult(
                name=name, returncode=code or child.returncode,
                wall_s=wall, peak_rss_mb=child.peak_rss_mb,
                stdout=stdout.read_text() if stdout.exists() else "",
                stderr=child.stderr, leftovers=list(child.leftovers),
            )
            self.ops.append(ops[name])
        return PassResult(ops, out, trace=trace)

    def check_leftovers(self, op: OpResult, out: Path) -> None:
        """Charge new shared-memory segments or orphan partitions to ``op``.

        ``repro clean`` looks for partitions in ``ROOT/parts`` and
        ``ROOT/campaign*/parts``; a disk store's campaigns are under
        ``out/data``, so both directories are scanned. A leftover is
        charged once, to the first command after which it is found.
        """
        found = repro_leftovers(self.python, self.env, self.root,
                                [out, out / "data"], self.work / "logs")
        op.leftovers += sorted(found - self.seen_leftovers)
        self.seen_leftovers |= found

    def digest(self, passes: List[PassResult]) -> None:
        """Untimed: content digests of each pass's outputs."""
        outs = [p.out / "data" for p in passes]
        proc = subprocess.run([self.python, str(HERE / "digest.py"),
                               *map(str, outs)], env=self.env, cwd=self.root,
                              capture_output=True, text=True)
        digests = proc.stdout.split()
        readable = proc.returncode == 0 and len(digests) == len(passes)
        for i, result in enumerate(passes):
            if readable:
                result.digests["dataset"] = digests[i]
            else:
                result.ops["simulate"].mismatches.append(
                    f"dataset unreadable: {proc.stderr.strip()[-300:]}")
            result.digests["report"] = stdout_digest(
                result.ops["simulate"].stdout, result.out)
            result.digests["analysis"] = text_digest(result.out / "report")

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        parent = self.work.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------

def summarize(name: str, unit: str, values: List[float]) -> str:
    q1, med, q3 = quartiles(values)
    return (f"{name:28s} {med:12.4f} {unit:6s} q1 {q1:.4f} q3 {q3:.4f} "
            f"n {len(values)}")


def measure_end_to_end(bench: Bench, seconds: float) -> Dict[str, float]:
    """End-to-end metrics: medians over untraced passes, times host-scaled."""
    bench.reference()
    bench.measure_setup(SETUP_LAUNCHES)
    passes: List[PassResult] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(bench.run_pass(len(passes), SETUP_LAUNCHES))
    bench.digest(passes)
    check_outputs(passes, load_pins(bench.seed, bench.workload.name))
    scale = host_scale(bench.refs)
    print(f"host: {len(bench.refs)} reference readings "
          + " ".join(f"{r:.4f}" for r in bench.refs)
          + f" s; median {statistics.median(bench.refs):.4f} s; "
          f"scale {scale:.4f}")
    print(f"setup: {len(bench.setup_walls)} launches, raw median "
          f"{statistics.median(bench.setup_walls):.4f} s")
    for i, p in enumerate(passes):
        print(f"pass {i}: raw {p.raw_s:.4f} s (simulate "
              f"{p.ops['simulate'].wall_s:.4f}, analyze "
              f"{p.ops['analyze'].wall_s:.4f}); digests "
              + " ".join(f"{k}={v}" for k, v in
                         sorted(p.digests.items())))
    per_pass = [p.metrics(scale) for p in passes]
    values = {name: [m[name] for m in per_pass] for name in per_pass[0]}
    values["setup_s"] = [w * scale for w in bench.setup_walls]
    for name, unit in END_TO_END.items():
        print(summarize(name, unit, values[name]))
    return {name: statistics.median(values[name]) for name in END_TO_END}


def measure_layers(bench: Bench, seconds: float) -> Dict[str, float]:
    """Per-layer metrics from traced passes, each beside an untraced one."""
    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    bench.reference()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(bench.run_pass(2 * len(traced)))
        traced.append(bench.run_traced(2 * len(traced) + 1))
    passes = untraced + traced
    bench.digest(passes)
    check_outputs(passes, load_pins(bench.seed, bench.workload.name))
    scale = host_scale(bench.refs)
    for plain, p in zip(untraced, traced):
        print(f"traced pass: raw {p.raw_s:.4f} s, untraced raw "
              f"{plain.raw_s:.4f} s; host scale {scale:.4f}")
    samples = [layer_metrics(p, plain, bench.refs)
               for plain, p in zip(untraced, traced) if p.trace]
    units = per_layer_units()
    result = {}
    for name, unit in units.items():
        values = [sample[name] for sample in samples] or [0.0]
        print(summarize(name, unit, values))
        result[name] = statistics.median(values)
    return result


def layer_metrics(traced: PassResult, untraced: PassResult,
                  refs: Sequence[float]) -> Dict[str, float]:
    """One traced pass's per-layer metrics, times host-scaled."""
    trace, scale = traced.trace, host_scale(refs)
    self_s, counts = trace["self_s"], trace["counts"]
    metrics = {"cli.import_s": trace["import_s"] * scale}
    for name, span in LAYER_TIMES.items():
        metrics[name] = self_s.get(span, 0.0) * scale
    for name in LAYER_COUNTS:
        metrics[name] = counts.get(name, 0)
    generated = counts.get("collection.batches_generated", 0)
    metrics["collection.delivery_ratio"] = (
        counts.get("collection.batches_delivered", 0) / generated
        if generated else 0.0)
    metrics["traces.persist_mb"] = counts.get("traces.persist_bytes", 0) / 1e6
    requests = trace["cache_hits"] + trace["cache_misses"]
    metrics["analysis.cache_hit_rate"] = (
        trace["cache_hits"] / requests if requests else 0.0)
    metrics["analysis.cached_mb"] = trace["cached_bytes"] / 1e6
    metrics["trace.overhead_ratio"] = traced.raw_s / untraced.raw_s
    metrics["host.ref_s"] = statistics.median(refs)
    metrics["host.scale"] = scale
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {root / 'src' / 'repro'}; run "
              f"from the root of a source checkout", file=sys.stderr)
        return 2
    become_subreaper()
    bench = Bench(root, WORKLOADS[args.workload], args.seed)
    try:
        bench.prepare()
        if args.trace:
            metrics = measure_layers(bench, args.seconds)
            units = per_layer_units()
        else:
            metrics = measure_end_to_end(bench, args.seconds)
            units = END_TO_END
    finally:
        bench.cleanup()
    failed = [op for op in bench.ops if op.failed]
    for op in failed:
        print(f"FAILED {op.name}: exit {op.returncode}; leftovers "
              f"{op.leftovers}; mismatches {op.mismatches}; "
              f"{op.stderr.strip()[-300:]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(bench.ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
