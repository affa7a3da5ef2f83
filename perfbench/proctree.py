"""Process-tree metering from ``/proc`` (``psutil`` is not installed).

The benchmark's Ray driver is a child process; ``ray.init`` inside it
starts the GCS, the raylet and the workers as its descendants. Every
figure here covers that whole tree. CPU seconds are per-process
``utime + stime`` deltas, sampled so that processes exiting during an
operation are charged too. Memory is the tree's summed ``Pss``
(proportional set size): a page shared by several processes, such as
the object store in ``/dev/shm`` or a loaded library, counts once in
the sum, split among them.
"""

from __future__ import annotations

import os
import signal
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")
# Summing Pss costs some 4 ms per process, so it is sampled less often
# than CPU ticks. Sampling Pss every 0.5 s and ticks every 0.1 s kept
# the meter busy a quarter of a core, which slowed what it measured;
# ticks every 0.25 s still took some 7% of one.
PERIOD_S = 0.5
PSS_EVERY = 4  # samples


def _stat(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # comm may hold spaces and parentheses: split after the last ')'
    return raw[raw.rindex(")") + 2 :].split()


def _table() -> tuple[dict[int, list[str]], dict[int, list[int]]]:
    stats: dict[int, list[str]] = {}
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                stats[int(name)] = st
                children.setdefault(int(st[1]), []).append(int(name))
    return stats, children


def snapshot(root: int) -> dict[tuple[int, str], int]:
    """``(pid, start time) -> user + system CPU ticks`` of ``root`` and its
    live descendants. The start time tells a process from a later one
    that reuses its pid."""
    stats, children = _table()
    out, todo = {}, [root]
    while todo:
        pid = todo.pop()
        if pid in stats:
            # fields 14, 15 and 22 of /proc/<pid>/stat: utime stime starttime
            st = stats[pid]
            out[(pid, st[19])] = int(st[11]) + int(st[12])
        todo.extend(children.get(pid, []))
    return out


def pss_mb(pids) -> float:
    """Summed proportional set size of ``pids``."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024


class Meter:
    """CPU seconds and peak memory of ``root``'s tree while active.

    Every ``PERIOD_S`` each process's CPU ticks are sampled; a process
    is charged its last sample minus its ticks at the start, so one that
    exits during the operation loses at most one period. (The parents'
    reaped-children time is no help: the raylet ignores ``SIGCHLD``, so
    the workers it loses never reach its ``cutime``.) At the start, the
    end and every ``PSS_EVERY``-th sample the tree's ``Pss`` is summed
    too; ``peak_mb`` is the largest sum."""

    def __init__(self, root: int):
        self.root = root
        self.start = snapshot(root)
        self.last = dict(self.start)
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self, pss: bool) -> None:
        ticks = snapshot(self.root)
        self.last.update(ticks)
        if pss:
            self.peak_mb = max(self.peak_mb, pss_mb(pid for pid, _ in ticks))

    def _run(self) -> None:
        n = 0
        while not self._stop.wait(PERIOD_S):
            n += 1
            self._sample(n % PSS_EVERY == 0)

    @property
    def cpu_s(self) -> float:
        return sum(t - self.start.get(k, 0) for k, t in self.last.items()) / _TICK

    @property
    def procs(self) -> set:
        """Every ``(pid, start time)`` seen in the tree."""
        return set(self.last)

    def __enter__(self) -> "Meter":
        self._sample(True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample(True)


def kill(procs) -> None:
    """SIGKILL each ``(pid, start time)`` still running, then wait until
    each is gone (or a zombie, which holds no resources)."""
    alive = []
    for pid, start in procs:
        st = _stat(pid)
        if st is not None and st[19] == start:
            try:
                os.kill(pid, signal.SIGKILL)
                alive.append(pid)
            except OSError:
                pass
    deadline = time.monotonic() + 20.0
    while alive and time.monotonic() < deadline:
        alive = [p for p in alive if (st := _stat(p)) is not None and st[0] not in "ZX"]
        time.sleep(0.05)
