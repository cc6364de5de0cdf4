"""Flight recorder: the one instrumentation spine, an append-only log.

The :class:`FlightRecorder` narrates a run *while it happens*: one JSON
object per line, written through an ``O_APPEND`` file descriptor with a
single ``os.write`` per event. POSIX appends of one small write are atomic,
so pool workers and the parent can share the file without interleaving, and
a ``kill -9`` at any instant leaves every fully-written event parseable —
at worst the final line is truncated, and :func:`parse_events` tolerates
exactly that.

Timed stages are spans on the same stream: ``with recorder.span(name,
**attrs)`` emits ``span_start``, and on exit ``span_end`` with monotonic
wall seconds (:func:`time.perf_counter`), process CPU seconds
(:func:`time.process_time`), an ok flag and the counters that
:meth:`FlightRecorder.count` added while the span was innermost. Every view
of a run is a fold over the parsed log: :func:`span_tree` rebuilds the
nested span tree (manifest ``spans``/``stages``), :func:`chrome_trace`
lays it out for ``chrome://tracing`` at the real start times, and
:func:`reconstruct` reads a postmortem — open spans included — from a
log a kill cut short.

Recording is **zero-overhead by default**: the process-global recorder is
a shared :class:`NoopRecorder` whose ``emit()``/``count()`` are a constant
``return None`` and whose ``span()`` returns one reusable no-op context
manager. A real recorder is installed by the CLI for ``--events``,
``--telemetry``, ``--progress`` or ``--prom`` (or inherited by pool
workers through ``$REPRO_EVENTS``). Nothing here touches RNG state —
recorded and unrecorded runs are bit-identical
(``tests/test_telemetry_identity.py``).

Stdlib-only so every layer (engine, collection, traces, CLI) can import it
without cycles.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

__all__ = [
    "EVENT_KINDS",
    "EVENTS_ENV_VAR",
    "FlightRecorder",
    "NoopRecorder",
    "NOOP_RECORDER",
    "Postmortem",
    "chrome_trace",
    "format_event",
    "get_recorder",
    "recorder_for",
    "set_recorder",
    "span_tree",
    "use_recorder",
    "parse_events",
    "load_events",
    "reconstruct",
    "summarize_events",
    "write_chrome_trace",
]

#: Setting this to a path enables flight recording process-wide; pool
#: workers inherit the environment and append to the same file (safe:
#: every event is one O_APPEND write).
EVENTS_ENV_VAR = "REPRO_EVENTS"

#: Every event kind the recorder may emit, with a one-line meaning. The
#: schema lint test cross-checks each ``emit("<kind>", ...)`` call in the
#: source tree against this table, and each kind against the event-schema
#: table in ARCHITECTURE.md — an undocumented kind fails CI.
EVENT_KINDS: Dict[str, str] = {
    "run_start": "command began: argv, config hash, seed, scale, pid",
    "run_end": "command finished: status (ok/failed/interrupted), exit code",
    "span_start": "a timed span opened: span name and attrs",
    "span_end": "a span closed: wall/CPU seconds, ok flag, its counters",
    "shard_queued": "a shard was scheduled for execution (year, shard, unit)",
    "shard_completed": "a shard's output was accepted by the parent",
    "shard_retry": "a shard attempt failed and will be retried or settled",
    "shard_stolen": "an idle worker slot stole a queued shard",
    "shard_dropped": "a shard exhausted retries and was dropped (partial)",
    "checkpoint_saved": "a completed shard was spilled to the checkpoint dir",
    "checkpoint_loaded": "a shard checkpoint was read on resume "
                         "(corrupt=True when it failed validation)",
    "spill": "a shard's columns were spilled to a store partition",
    "store_finalized": "a campaign store finalized its manifest on disk",
    "fault_loss": "the collection pipeline lost data for a device",
    "chaos": "the chaos harness injected a fault (crash/hang/kill)",
    "progress": "campaign progress: shards and devices done, rate, ETA",
    "resource_sample": "periodic RSS/CPU/shm/disk sample from the sampler",
    "verdict": "a gate verdict (bench --check / fidelity --check)",
}


class FlightRecorder:
    """Append-only JSONL event stream with flush-per-event durability.

    ``path=None`` runs listener-only (``--progress`` without ``--events``).
    ``listener`` — if given — sees every event dict after it is written;
    listener errors are swallowed so display code can never kill a run.
    """

    enabled = True

    def __init__(self, path: Optional[Union[str, os.PathLike]] = None,
                 listener: Optional[Callable[[dict], None]] = None) -> None:
        self.path: Optional[Path] = Path(path) if path is not None else None
        self.listener = listener
        self._fd: Optional[int] = None
        self._offset = 0
        self._open: List[_Span] = []
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                str(self.path),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
            self._offset = os.lseek(self._fd, 0, os.SEEK_END)

    def emit(self, kind: str, **fields: object) -> None:
        """Record one event; a single O_APPEND write makes it durable."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}; add it to "
                             f"repro.obs.recorder.EVENT_KINDS")
        event = {"ts": round(time.time(), 6), "pid": os.getpid(),
                 "kind": kind}
        event.update(fields)
        if self._fd is not None:
            line = json.dumps(event, separators=(",", ":"),
                              default=str) + "\n"
            os.write(self._fd, line.encode("utf-8"))
        if self.listener is not None:
            try:
                self.listener(event)
            except Exception:
                pass

    def span(self, name: str, **attrs: object) -> "_Span":
        """``with`` context emitting span_start/span_end around a block."""
        return _Span(self, name, attrs)

    def count(self, name: str, n: Union[int, float] = 1) -> None:
        """Add ``n`` to a counter of the innermost open span (if any)."""
        if self._open:
            counters = self._open[-1].counters
            counters[name] = counters.get(name, 0) + n

    def events(self) -> List[dict]:
        """The events in this recorder's log since it was opened."""
        if self.path is None:
            return []
        with open(self.path, "rb") as log:
            log.seek(self._offset)
            return parse_events(log.read())

    def snapshot(self) -> dict:
        """:func:`span_tree` of :meth:`events`, with this process's open
        spans (the command's root while it writes its manifest) timed up
        to now and carrying their counters so far."""
        tree = span_tree(self.events())
        pid = os.getpid()
        live = [node for node in (_walk(tree) if tree else ())
                if node.get("open") and node["pid"] == pid]
        wall, cpu = time.perf_counter(), time.process_time()
        for node, span in zip(live, self._open):
            node["wall_s"] = round(wall - span._t0, 6)
            node["cpu_s"] = round(cpu - span._c0, 6)
            if span.counters:
                node["counters"] = dict(span.counters)
        return tree

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except OSError:
            pass


class _Span:
    """Times one span; emits paired span_start/span_end events."""

    __slots__ = ("_recorder", "name", "attrs", "counters", "_t0", "_c0")

    def __init__(self, recorder: FlightRecorder, name: str,
                 attrs: dict) -> None:
        self._recorder = recorder
        self.name = name
        self.attrs = attrs
        self.counters: Dict[str, Union[int, float]] = {}

    def __enter__(self) -> "_Span":
        if self.attrs:
            self._recorder.emit("span_start", span=self.name,
                                attrs=self.attrs)
        else:
            self._recorder.emit("span_start", span=self.name)
        self._recorder._open.append(self)
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        wall_s = time.perf_counter() - self._t0
        cpu_s = time.process_time() - self._c0
        self._recorder._open.remove(self)
        fields: dict = {"span": self.name, "wall_s": round(wall_s, 6),
                        "cpu_s": round(cpu_s, 6), "ok": exc_type is None}
        if self.counters:
            fields["counters"] = self.counters
        self._recorder.emit("span_end", **fields)


class _NoopSpan:
    """Reusable do-nothing span context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class NoopRecorder:
    """The default recorder: every operation is a near-free no-op."""

    enabled = False
    path = None

    def emit(self, kind: str, **fields: object) -> None:
        return None

    def span(self, name: str, **attrs: object) -> _NoopSpan:
        return _NOOP_SPAN

    def count(self, name: str, n: Union[int, float] = 1) -> None:
        return None

    def snapshot(self) -> dict:
        return {}

    def close(self) -> None:
        return None


#: The shared no-op recorder; also the reset target for :func:`set_recorder`.
NOOP_RECORDER = NoopRecorder()

#: ``None`` means "not yet resolved": the first :func:`get_recorder` call
#: checks ``$REPRO_EVENTS`` so spawned pool workers (fresh interpreters)
#: pick up the parent's event file without any plumbing.
_RECORDER: Optional[Union[FlightRecorder, NoopRecorder]] = None


def get_recorder() -> Union[FlightRecorder, NoopRecorder]:
    """The process-global recorder (a shared no-op unless one was set)."""
    global _RECORDER
    if _RECORDER is None:
        path = os.environ.get(EVENTS_ENV_VAR, "").strip()
        _RECORDER = FlightRecorder(path) if path else NOOP_RECORDER
    return _RECORDER


def set_recorder(
    recorder: Optional[Union[FlightRecorder, NoopRecorder]]
) -> Optional[Union[FlightRecorder, NoopRecorder]]:
    """Install ``recorder`` globally; ``None`` resets to unresolved.

    Resetting to unresolved (rather than straight to the no-op) means the
    next :func:`get_recorder` re-checks ``$REPRO_EVENTS`` — the behaviour
    a freshly spawned worker sees.
    """
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder
    return previous


class use_recorder:
    """Temporarily install a recorder (tests and workers use this)."""

    def __init__(self,
                 recorder: Union[FlightRecorder, NoopRecorder]) -> None:
        self._recorder = recorder
        self._previous: Optional[Union[FlightRecorder, NoopRecorder]] = None

    def __enter__(self) -> Union[FlightRecorder, NoopRecorder]:
        self._previous = set_recorder(self._recorder)
        return self._recorder

    def __exit__(self, *exc_info) -> None:
        set_recorder(self._previous)


def recorder_for(path: Optional[str]) -> Union[FlightRecorder, NoopRecorder]:
    """This process's recorder, pointed at the event log ``path``.

    Shard work units name their run's log, and a pool worker calls this
    before it records anything: warm pools outlive runs, so a worker
    forked under an earlier run's recorder (or none) must follow the log
    of the run that sent the work. In the parent the names already match
    and the installed recorder (listener included) is returned as is.
    """
    current = get_recorder()
    wanted = Path(path) if path is not None else None
    if current.path == wanted:
        return current
    recorder = FlightRecorder(wanted) if wanted is not None else NOOP_RECORDER
    set_recorder(recorder)
    return recorder


# ----------------------------------------------------------------------
# Parsing — tolerant of the truncation kill -9 can leave behind
# ----------------------------------------------------------------------

def parse_events(data: bytes) -> List[dict]:
    """Decode an event-log byte string; any byte prefix of a valid log
    yields the events whose lines were fully written.

    The final line is allowed to be truncated (no trailing newline, or
    cut mid-JSON) — that is exactly the state a ``kill -9`` leaves. A
    malformed *interior* line (torn write from a dying process) is
    skipped rather than fatal: a postmortem must never refuse to read
    the black box.
    """
    events: List[dict] = []
    lines = data.split(b"\n")
    complete, last = lines[:-1], lines[-1]
    for raw in complete:
        if not raw.strip():
            continue
        try:
            event = json.loads(raw)
        except ValueError:
            continue
        if isinstance(event, dict) and "kind" in event:
            events.append(event)
    if last.strip():
        # No trailing newline: the final line is complete only if it
        # happens to parse (the write made it out before the kill).
        try:
            event = json.loads(last)
        except ValueError:
            event = None
        if isinstance(event, dict) and "kind" in event:
            events.append(event)
    return events


def load_events(path: Union[str, os.PathLike]) -> List[dict]:
    """Read and parse an ``events.jsonl`` file (truncation-tolerant)."""
    return parse_events(Path(path).read_bytes())


def format_event(event: dict) -> str:
    """One human line per event, for ``repro events --tail``."""
    ts = event.get("ts")
    stamp = (time.strftime("%H:%M:%S", time.localtime(ts))
             if isinstance(ts, (int, float)) else "--:--:--")
    kind = event.get("kind", "?")
    rest = " ".join(
        f"{key}={value}" for key, value in event.items()
        if key not in ("ts", "pid", "kind")
    )
    return f"{stamp} [{event.get('pid', '?')}] {kind:16s} {rest}".rstrip()


# ----------------------------------------------------------------------
# Span folds — the manifest tree and the Chrome trace
# ----------------------------------------------------------------------

def span_tree(events: List[dict]) -> dict:
    """Rebuild the nested span tree from a (possibly truncated) event log.

    Each node is ``{"name", "ts", "pid", "wall_s", "cpu_s"}`` plus
    ``attrs``, ``counters`` and ``children`` when non-empty, ``ok: False``
    for a span that raised, and ``open: True`` for a span whose
    ``span_end`` is not in the log (still running, or killed) — its
    ``wall_s`` then runs to the last event seen. Spans nest per process;
    a pool worker's top-level spans go under the span that is innermost
    in the run's parent process at that point in the log (the parent is
    the pid of the latest ``run_start``, else of the first event). A log
    with several top-level spans folds under a synthetic ``events`` root;
    one without spans folds to ``{}``.
    """
    roots: List[dict] = []
    stacks: Dict[object, List[dict]] = {}
    parent_pid: object = None
    last_ts = None
    for event in events:
        kind, pid, ts = event.get("kind"), event.get("pid"), event.get("ts")
        if isinstance(ts, (int, float)):
            last_ts = ts
        if kind == "run_start" or parent_pid is None:
            parent_pid = pid
        if kind == "span_start":
            node: dict = {"name": str(event.get("span", "?")), "ts": ts,
                          "pid": pid, "wall_s": 0.0, "cpu_s": 0.0,
                          "open": True}
            if event.get("attrs"):
                node["attrs"] = dict(event["attrs"])
            stack = stacks.setdefault(pid, [])
            host = stack or stacks.get(parent_pid) or [None]
            siblings = (host[-1].setdefault("children", [])
                        if host[-1] is not None else roots)
            siblings.append(node)
            stack.append(node)
        elif kind == "span_end":
            stack = stacks.get(pid, [])
            name = str(event.get("span", "?"))
            for depth in range(len(stack) - 1, -1, -1):
                if stack[depth]["name"] == name:
                    node = stack[depth]
                    del stack[depth:]
                    del node["open"]
                    node["wall_s"] = float(event.get("wall_s", 0.0))
                    node["cpu_s"] = float(event.get("cpu_s", 0.0))
                    if event.get("counters"):
                        node["counters"] = dict(event["counters"])
                    if event.get("ok") is False:
                        node["ok"] = False
                    break
    for root in roots:
        for node in _walk(root):
            if node.get("open") and isinstance(node["ts"], (int, float)):
                node["wall_s"] = round(last_ts - node["ts"], 6)
    if len(roots) == 1:
        return roots[0]
    if not roots:
        return {}
    return {"name": "events", "ts": roots[0]["ts"], "pid": roots[0]["pid"],
            "wall_s": sum(root["wall_s"] for root in roots),
            "cpu_s": sum(root["cpu_s"] for root in roots),
            "children": roots}


def _walk(node: dict):
    """``node`` and every descendant, depth-first preorder."""
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


def chrome_trace(tree: dict) -> dict:
    """A :func:`span_tree` as Chrome-trace JSON (chrome://tracing, Perfetto).

    Complete ("X") events in preorder at their real start times, in
    microseconds from the root's start; each process gets its own track
    (``tid`` is its pid). ``args`` carry the exact wall/CPU seconds, the
    attrs and the counters.
    """
    events: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
        "args": {"name": "repro"},
    }]
    origin = tree.get("ts") or 0.0
    for node in (_walk(tree) if tree else ()):
        args: dict = {"wall_s": node.get("wall_s", 0.0),
                      "cpu_s": node.get("cpu_s", 0.0)}
        for key in ("attrs", "counters", "open"):
            if node.get(key):
                args[key] = node[key]
        events.append({
            "name": node["name"], "ph": "X", "cat": "span",
            "pid": 1, "tid": node.get("pid") or 1,
            "ts": int(round(((node.get("ts") or origin) - origin) * 1e6)),
            "dur": max(int(round(float(node.get("wall_s", 0.0)) * 1e6)), 1),
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tree: dict, path: Union[str, os.PathLike]) -> None:
    """Write a span tree as a ``chrome://tracing``-loadable JSON file."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(chrome_trace(tree), indent=2) + "\n")


# ----------------------------------------------------------------------
# Postmortem reconstruction
# ----------------------------------------------------------------------

@dataclass
class Postmortem:
    """What a (possibly truncated) event log says happened to a run."""

    run: Optional[dict] = None          # the run_start event, if recorded
    status: str = "interrupted"         # ok | failed | interrupted
    exit_code: Optional[int] = None
    n_events: int = 0
    duration_s: float = 0.0
    open_phases: List[str] = field(default_factory=list)  # open spans
    last_phase: Optional[str] = None    # innermost span still open
    phases_seen: List[str] = field(default_factory=list)  # span names
    queued: List[List[int]] = field(default_factory=list)    # [year, shard]
    completed: List[List[int]] = field(default_factory=list)
    outstanding: List[List[int]] = field(default_factory=list)
    retries: int = 0
    failures_by_kind: Dict[str, int] = field(default_factory=dict)
    steals: int = 0
    dropped: List[List[int]] = field(default_factory=list)
    checkpoints_saved: int = 0
    checkpoints_loaded: int = 0
    checkpoints_corrupt: int = 0
    spills: int = 0
    losses: Dict[str, int] = field(default_factory=dict)
    chaos: List[dict] = field(default_factory=list)
    last_progress: Optional[dict] = None
    last_sample: Optional[dict] = None
    verdicts: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)

    def render(self) -> str:
        lines = [f"postmortem: {self.status} "
                 f"({self.n_events} events, {self.duration_s:.1f}s)"]
        if self.run is not None:
            command = self.run.get("command", "?")
            lines.append(
                f"  run: {command} seed={self.run.get('seed')} "
                f"scale={self.run.get('scale')} pid={self.run.get('pid')}"
            )
        if self.exit_code is not None:
            lines.append(f"  exit code: {self.exit_code}")
        if self.last_phase is not None:
            lines.append(f"  died in phase: {self.last_phase} "
                         f"(open: {' > '.join(self.open_phases)})")
        elif self.phases_seen:
            lines.append(f"  phases: {' -> '.join(self.phases_seen)}")
        lines.append(
            f"  shards: {len(self.completed)}/{len(self.queued)} completed"
            + (f", {len(self.outstanding)} in flight" if self.outstanding
               else "")
        )
        if self.outstanding:
            shown = ", ".join(
                f"{year}:{shard}" for year, shard in self.outstanding[:8]
            )
            more = ("..." if len(self.outstanding) > 8 else "")
            lines.append(f"  in flight: {shown}{more}")
        if self.retries:
            kinds = ", ".join(f"{kind}={count}" for kind, count
                              in sorted(self.failures_by_kind.items()))
            lines.append(f"  retries: {self.retries} ({kinds})")
        if self.steals:
            lines.append(f"  steals: {self.steals}")
        if self.dropped:
            lines.append(f"  dropped shards: {self.dropped}")
        if (self.checkpoints_saved or self.checkpoints_loaded
                or self.checkpoints_corrupt):
            line = (f"  checkpoints: {self.checkpoints_saved} saved, "
                    f"{self.checkpoints_loaded} loaded")
            if self.checkpoints_corrupt:
                line += f", {self.checkpoints_corrupt} corrupt"
            lines.append(line)
        if self.spills:
            lines.append(f"  store spills: {self.spills}")
        if self.losses:
            total = sum(self.losses.values())
            lines.append(f"  collection losses: {total} device(s) affected")
        for event in self.chaos:
            lines.append(f"  chaos: {event.get('fault', '?')} "
                         f"(shard={event.get('shard', '?')})")
        if self.last_progress is not None:
            progress = self.last_progress
            lines.append(
                f"  last progress: {progress.get('done')}/"
                f"{progress.get('total')} shards, "
                f"{progress.get('devices_done')}/"
                f"{progress.get('devices_total')} devices, "
                f"{progress.get('rate', 0.0):.1f} dev/s"
            )
        if self.last_sample is not None:
            sample = self.last_sample
            rss_mib = float(sample.get("rss_bytes", 0)) / 2**20
            child_mib = float(sample.get("children_rss_bytes", 0)) / 2**20
            shm_mib = float(sample.get("shm_bytes", 0)) / 2**20
            lines.append(
                f"  last sample: rss={rss_mib:.1f}MiB "
                f"children={child_mib:.1f}MiB shm={shm_mib:.1f}MiB "
                f"cpu={sample.get('cpu_s', 0.0):.1f}s"
            )
        for verdict in self.verdicts:
            lines.append(f"  verdict: {verdict.get('source', '?')} "
                         f"{verdict.get('gate', '?')}")
        return "\n".join(lines)


def reconstruct(events: List[dict]) -> Postmortem:
    """Rebuild run state from a (possibly truncated) event sequence."""
    post = Postmortem(n_events=len(events))
    stamps = [e["ts"] for e in events
              if isinstance(e.get("ts"), (int, float))]
    if stamps:
        post.duration_s = max(stamps) - min(stamps)
    queued: List[tuple] = []
    completed: List[tuple] = []
    for event in events:
        kind = event.get("kind")
        if kind == "run_start":
            post.run = event
        elif kind == "run_end":
            post.status = str(event.get("status", "ok"))
            code = event.get("exit_code")
            post.exit_code = int(code) if code is not None else None
        elif kind == "span_start":
            name = str(event.get("span", "?"))
            if name not in post.phases_seen:
                post.phases_seen.append(name)
        elif kind == "shard_queued":
            queued.append((event.get("year"), event.get("shard")))
        elif kind == "shard_completed":
            completed.append((event.get("year"), event.get("shard")))
        elif kind == "shard_retry":
            post.retries += 1
            fail_kind = str(event.get("failure", "?"))
            post.failures_by_kind[fail_kind] = (
                post.failures_by_kind.get(fail_kind, 0) + 1
            )
        elif kind == "shard_stolen":
            post.steals += 1
        elif kind == "shard_dropped":
            post.dropped.append(
                [event.get("year"), event.get("shard")]
            )
        elif kind == "checkpoint_saved":
            post.checkpoints_saved += 1
        elif kind == "checkpoint_loaded":
            if event.get("corrupt"):
                post.checkpoints_corrupt += 1
            else:
                post.checkpoints_loaded += 1
        elif kind == "spill":
            post.spills += 1
        elif kind == "fault_loss":
            device = str(event.get("device", "?"))
            post.losses[device] = post.losses.get(device, 0) + 1
        elif kind == "chaos":
            post.chaos.append(event)
        elif kind == "progress":
            post.last_progress = event
        elif kind == "resource_sample":
            post.last_sample = event
        elif kind == "verdict":
            post.verdicts.append(event)
    # The run's own open spans (outermost first); a worker's open spans
    # nest under them but are not where the run itself stood.
    run_pid = (post.run or (events[0] if events else {})).get("pid")
    tree = span_tree(events)
    post.open_phases = [node["name"] for node in (_walk(tree) if tree
                                                  else ())
                        if node.get("open") and node["pid"] == run_pid]
    post.last_phase = post.open_phases[-1] if post.open_phases else None
    post.queued = [list(pair) for pair in queued]
    post.completed = [list(pair) for pair in completed]
    done = set(completed)
    post.outstanding = [list(pair) for pair in queued if pair not in done]
    return post


def summarize_events(events: List[dict]) -> str:
    """Counts per kind plus run identity — ``repro events --summary``."""
    counts: Dict[str, int] = {}
    for event in events:
        kind = str(event.get("kind", "?"))
        counts[kind] = counts.get(kind, 0) + 1
    post = reconstruct(events)
    lines = [f"{len(events)} events over {post.duration_s:.1f}s "
             f"({post.status})"]
    if post.run is not None:
        lines.append(f"  command: {post.run.get('command', '?')} "
                     f"seed={post.run.get('seed')} "
                     f"scale={post.run.get('scale')}")
    for kind in EVENT_KINDS:
        if kind in counts:
            lines.append(f"  {kind:18s} {counts[kind]}")
    for kind, count in sorted(counts.items()):
        if kind not in EVENT_KINDS:  # forward-compat: foreign kinds
            lines.append(f"  {kind:18s} {count} (undocumented)")
    return "\n".join(lines)
