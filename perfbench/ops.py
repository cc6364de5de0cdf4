"""Run one CLI command as one benchmark operation, and account for it.

An operation is one command in a child process. It fails if it exits
non-zero, if its outputs do not match their digests (checked later, in
``run.py``), or if it leaves work behind: a process still alive after it
exited, or a shared-memory segment or orphan store partition (see
:func:`repro_leftovers`). A leftover process is killed and reaped at once,
so it cannot slow the next reference reading.

``run.py`` makes itself a child subreaper first, so a process a command
leaves behind is re-parented to it and can always be reaped.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Re-parent processes orphaned below this one to this one (Linux)."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err))


@dataclass
class OpResult:
    """What one command did: exit code, wall time, peak memory, output."""

    name: str
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    leftovers: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.returncode != 0 or bool(self.leftovers) \
            or bool(self.mismatches)


def _proc_stat(pid: int) -> "Optional[tuple[str, int, int]]":
    """(state, ppid, pgrp) of a live pid, or None if it is gone."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = raw[raw.rindex(")") + 2:].split()
    return fields[0], int(fields[1]), int(fields[2])


def stray_processes(pgid: int) -> Dict[int, str]:
    """Processes in group ``pgid`` or re-parented to this one: pid → state.
    """
    me = os.getpid()
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == me:
            continue
        stat = _proc_stat(int(entry))
        if stat is not None and (stat[2] == pgid or stat[1] == me):
            found[int(entry)] = stat[0]
    return found


def reap_strays(pgid: int) -> List[str]:
    """Kill and reap what a finished command left; names the live ones."""
    strays = stray_processes(pgid)
    live = [f"pid {pid} ({state})" for pid, state in sorted(strays.items())
            if state not in ("Z", "X")]
    for pid in strays:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    for pid in strays:
        while time.monotonic() < deadline:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break  # not our child: gone, or reaped by its own parent
            if done:
                break
            time.sleep(0.01)
    return live


def run_op(name: str, argv: Sequence[str], env: Dict[str, str],
           cwd: Path, log_dir: Path) -> OpResult:
    """Run ``argv`` to completion and measure it (wall, ``ru_maxrss``)."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / f"{name}.out", log_dir / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), env=env, cwd=cwd, stdout=out,
                                stderr=err, start_new_session=True)
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    leftovers = reap_strays(proc.pid)
    return OpResult(
        name=name, returncode=proc.returncode,
        wall_s=wall_s, peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
        leftovers=leftovers,
    )


def repro_leftovers(python: str, env: Dict[str, str], cwd: Path,
                    paths: Sequence[Path], log_dir: Path) -> Set[str]:
    """Shared-memory segments and orphan partitions, via ``repro clean``.

    Runs ``repro clean --dry-run`` over ``paths``, which removes nothing,
    and returns one line per leftover it would remove. Stale-telemetry
    lines are not leftovers of a run that just ended and are ignored.
    """
    result = run_op("clean", [python, "-m", "repro", "clean", "--dry-run",
                              *map(str, paths)], env, cwd, log_dir)
    if result.returncode != 0:
        raise RuntimeError(f"repro clean --dry-run failed: {result.stderr}")
    return {
        line.strip() for line in result.stdout.splitlines()
        if line.startswith("would remove ")
        and "stale telemetry" not in line
    }
