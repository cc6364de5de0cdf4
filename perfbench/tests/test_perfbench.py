"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import statistics
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from ops import OpResult, run_op  # noqa: E402
from spans import Recorder, wrap_call, wrap_generator  # noqa: E402

NAME_RULE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RULE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def _op(name: str, **kwargs) -> OpResult:
    fields = dict(returncode=0, wall_s=1.0, peak_rss_mb=10.0, stdout="",
                  stderr="")
    fields.update(kwargs)
    return OpResult(name=name, **fields)


# -- host scaling -------------------------------------------------------

def test_host_scale_is_nominal_over_median_reading():
    assert run.host_scale([0.2, 0.4, 0.3], nominal=0.3) == pytest.approx(1.0)
    assert run.host_scale([0.5], nominal=0.25) == pytest.approx(0.5)
    # A slow reading does not move the median of three.
    assert run.host_scale([0.2, 0.2, 9.0], nominal=0.2) == pytest.approx(1.0)


@pytest.mark.parametrize("readings", [[], [0.2, 0.0], [-1.0]])
def test_host_scale_rejects_bad_readings(readings):
    with pytest.raises(ValueError):
        run.host_scale(readings)


def test_pass_metrics_scale_times_but_not_memory_or_disk(tmp_path):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "blob").write_bytes(b"x" * 2_000_000)
    result = run.PassResult(
        {"simulate": _op("simulate", wall_s=3.0, peak_rss_mb=100.0),
         "analyze": _op("analyze", wall_s=5.0, peak_rss_mb=50.0)},
        tmp_path,
    )
    metrics = result.metrics(scale=0.5)
    assert metrics["pass_s"] == pytest.approx(4.0)
    assert metrics["simulate_s"] == pytest.approx(1.5)
    assert metrics["analyze_s"] == pytest.approx(2.5)
    assert metrics["simulate_peak_rss_mb"] == 100.0
    assert metrics["analyze_peak_rss_mb"] == 50.0
    assert metrics["disk_mb"] == pytest.approx(2.0)


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    q1, median, q3 = run.quartiles(values)
    expected = statistics.quantiles(values, n=4)
    assert (q1, q3) == (expected[0], expected[2])
    assert median == 3.0
    assert run.quartiles([7.0]) == (7.0, 7.0, 7.0)


# -- spans and wrappers -------------------------------------------------

class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_generator_wrapper_charges_next_to_kernel_and_calls_to_pump():
    clock = FakeClock()
    recorder = Recorder(clock)

    def simulate_devices(n):
        for device in range(n):
            clock.now += 2.0  # kernel work for one device
            yield device

    def transmit_bulk(device):
        clock.now += 3.0  # collection work for one device

    kernel = wrap_generator(recorder, simulate_devices, "simulation.kernel",
                            count="simulation.devices")
    pump = wrap_call(recorder, transmit_bulk, "collection.pump")

    def execute(n):
        clock.now += 1.0  # the engine's own work
        for device in kernel(n):
            pump(device)

    wrap_call(recorder, execute, "engine.execute")(4)
    self_s = recorder.self_times()
    assert self_s["simulation.kernel"] == pytest.approx(8.0)
    assert self_s["collection.pump"] == pytest.approx(12.0)
    assert self_s["engine.execute"] == pytest.approx(1.0)
    assert recorder.counts["simulation.devices"] == 4


def test_creating_a_wrapped_generator_records_nothing():
    recorder = Recorder(FakeClock())

    def gen():
        yield 1

    wrap_generator(recorder, gen, "simulation.kernel")()
    assert recorder.spans == []


def test_self_time_nests_spans_of_one_name():
    clock = FakeClock()
    recorder = Recorder(clock)
    with recorder.span("traces.load"):
        clock.now += 1.0
        with recorder.span("traces.load"):
            clock.now += 2.0
        with recorder.span("analysis.clean"):
            clock.now += 4.0
    self_s = recorder.self_times()
    assert self_s["traces.load"] == pytest.approx(3.0)
    assert self_s["analysis.clean"] == pytest.approx(4.0)


def test_wrap_call_names_from_arguments_and_counts_outside_the_span():
    clock = FakeClock()
    recorder = Recorder(clock)

    def run_experiment(experiment_id, cache):
        clock.now += 1.0
        return experiment_id.upper()

    def after(result, experiment_id, cache):
        clock.now += 10.0  # must not be charged to the experiment
        recorder.count("results")

    wrapped = wrap_call(recorder, run_experiment,
                        lambda eid, *a: f"reporting.{eid}", after)
    assert wrapped("table6", None) == "TABLE6"
    assert recorder.self_times() == {"reporting.table6": pytest.approx(1.0)}
    assert recorder.counts["results"] == 1


def test_traced_install_wraps_every_entry_point_and_uninstalls():
    sys.path.insert(0, str(REPO / "src"))
    import traced

    recorder = Recorder()
    installed = traced.install(recorder, [])
    try:
        for owner, attr, original in installed:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        traced.uninstall(installed)
    for owner, attr, original in installed:
        assert getattr(owner, attr) is original
    spans = {f"analysis.{a}" for a in run.ARTIFACTS} | {
        "simulation.world", "simulation.kernel", "collection.pump",
        "engine.execute", "engine.merge", "traces.persist", "traces.spill",
        "traces.finalize", "traces.load", "obs.emit"}
    assert spans <= set(run.LAYER_TIMES.values())


# -- failure accounting -------------------------------------------------

def test_nonzero_exit_is_a_failed_operation(tmp_path):
    result = run_op("boom", [sys.executable, "-c", "raise SystemExit(3)"],
                    dict(os.environ), tmp_path, tmp_path / "logs")
    assert result.returncode == 3
    assert result.failed


def test_leftover_child_is_a_failed_operation_and_is_reaped(tmp_path):
    script = (
        "import subprocess, sys\n"
        "child = subprocess.Popen([sys.executable, '-c',"
        " 'import time; time.sleep(60)'])\n"
        "print(child.pid)\n"
    )
    start = time.monotonic()
    result = run_op("leaky", [sys.executable, "-c", script],
                    dict(os.environ), tmp_path, tmp_path / "logs")
    assert result.returncode == 0
    assert result.leftovers, "the sleeping child was not detected"
    assert result.failed
    pid = int(result.stdout.split()[0])
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().split(") ")[1][0]
        except OSError:
            break  # gone
        if state in "ZX":
            break
        time.sleep(0.05)
    else:
        pytest.fail(f"leftover pid {pid} is still running")
    assert time.monotonic() - start < 30


def test_clean_command_is_not_a_failed_operation(tmp_path):
    result = run_op("ok", [sys.executable, "-c", "print('hi')"],
                    dict(os.environ), tmp_path, tmp_path / "logs")
    assert not result.failed
    assert result.stdout == "hi\n"
    assert result.peak_rss_mb > 0


#: Stands in for ``python -m repro``: ``simulate`` leaves a spill
#: partition in its disk store, as a run killed before finalize would.
LEAKY_REPRO = (
    "import sys\n"
    "from pathlib import Path\n"
    "args = sys.argv[1:]\n"
    "if args[0] == 'simulate':\n"
    "    data = Path(args[args.index('--out') + 1])\n"
    "    (data / 'campaign2013' / 'parts' / 'shard-0000').mkdir("
    "parents=True)\n"
)


def test_orphan_partition_in_the_store_fails_the_simulate_command(
        tmp_path, monkeypatch):
    bench = run.Bench(REPO, run.WORKLOADS["disk_pass"], seed=1)
    bench.work = tmp_path
    bench.env["PYTHONPATH"] = str(REPO / "src")
    monkeypatch.setattr(bench, "repro",
                        lambda *args: [sys.executable, "-c", LEAKY_REPRO,
                                       *args])
    monkeypatch.setattr(bench, "reference", lambda: None)
    result = bench.run_pass(0)
    simulate, analyze = result.ops["simulate"], result.ops["analyze"]
    assert simulate.returncode == 0
    assert simulate.failed
    assert any("orphan partition shard-0000" in line
               for line in simulate.leftovers), simulate.leftovers
    # Charged once: the command after it did not leave it.
    assert not analyze.failed


def test_traced_pass_keeps_the_recorder_but_not_the_program_tracer():
    out = Path("out")
    plain = dict(run.WORKLOADS["disk_pass"].commands(out, 7))
    traced = dict(run.WORKLOADS["disk_pass"].commands(out, 7, traced=True))
    for name in ("simulate", "analyze"):
        assert "--telemetry" in plain[name]
        assert "--events" in traced[name]
        assert "--telemetry" not in traced[name]
        assert "--manifest" not in traced[name]
    assert run.WORKLOADS["clean_pass"].commands(out, 7) \
        == run.WORKLOADS["clean_pass"].commands(out, 7, traced=True)


def test_report_digest_masks_paths_and_ignores_the_manifest_line(tmp_path):
    text = f"saved {tmp_path}/data/campaign2013 (87 devices, 1 shards)\n"
    other = Path("/elsewhere")
    assert run.stdout_digest(text, tmp_path) == run.stdout_digest(
        text.replace(str(tmp_path), str(other)), other)
    with_manifest = text + f"wrote run manifest {tmp_path}/m.json\n"
    assert run.stdout_digest(with_manifest, tmp_path) \
        == run.stdout_digest(text, tmp_path)
    assert run.stdout_digest(text + "lost 3 batches\n", tmp_path) \
        != run.stdout_digest(text, tmp_path)


def _pass(tmp_path, **digests) -> "run.PassResult":
    result = run.PassResult(
        {"simulate": _op("simulate"), "analyze": _op("analyze")}, tmp_path)
    result.digests.update(digests)
    return result


def test_digest_mismatch_against_pins_fails_the_command_that_made_it(tmp_path):
    good = _pass(tmp_path, dataset="d", report="r", analysis="a")
    bad = _pass(tmp_path, dataset="d", report="r", analysis="other")
    run.check_outputs([good, bad], {"dataset": "d", "report": "r",
                                     "analysis": "a"})
    assert not good.ops["simulate"].failed
    assert not good.ops["analyze"].failed
    assert not bad.ops["simulate"].failed
    assert bad.ops["analyze"].failed


def test_unpinned_seed_requires_every_pass_to_agree(tmp_path):
    first = _pass(tmp_path, dataset="d", report="r", analysis="a")
    second = _pass(tmp_path, dataset="e", report="r", analysis="a")
    run.check_outputs([first, second], {})
    assert not first.ops["simulate"].failed
    assert second.ops["simulate"].failed


# -- names, units and the contract ---------------------------------------

def test_end_to_end_metrics_match_benchmark_json(tmp_path):
    spec = _benchmark_json()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    printed = set(_pass(tmp_path).metrics(1.0)) | {"setup_s"}
    assert printed == set(declared)


def test_per_layer_metrics_match_benchmark_json():
    spec = _benchmark_json()
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == run.per_layer_units()
    trace = {"import_s": 0.3, "walls": [1.0, 2.0], "self_s": {},
             "counts": {}, "cache_hits": 0, "cache_misses": 0,
             "cached_bytes": 0}
    traced = run.PassResult({"simulate": _op("simulate"),
                             "analyze": _op("analyze")}, Path("."),
                            trace=trace)
    printed = run.layer_metrics(traced, traced, [0.2])
    assert set(printed) == set(declared)


def test_benchmark_json_obeys_the_name_and_bound_rules():
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RULE.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT_RULE.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60


def test_pins_hold_the_disk_versus_memory_identity():
    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    assert pins["seed"] == run.DEFAULT_SEED
    assert set(pins["digests"]) == set(run.WORKLOADS)
    clean, disk = pins["digests"]["clean_pass"], pins["digests"]["disk_pass"]
    assert clean["dataset"] == disk["dataset"]
    assert clean["analysis"] == disk["analysis"]


def test_without_program_source_it_fails_and_prints_no_result(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "clean_pass", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
