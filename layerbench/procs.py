"""Process-tree memory accounting and leftover checks.

``peak_rss_mb`` is the sum of per-process high-water marks (``VmHWM``)
over a process tree: the study child plus its shard workers, or the
server plus its fold workers.  A background thread polls ``/proc``
while the tree runs, since a worker's high-water mark is gone once it
exits.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, Set

SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro-"


def _ppid_map() -> Dict[int, int]:
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after ')'.
        fields = stat[stat.rfind(")") + 2:].split()
        out[int(entry)] = int(fields[1])
    return out


def descendants(root: int) -> Set[int]:
    """``root`` and every live process below it."""
    children: Dict[int, list] = {}
    for pid, ppid in _ppid_map().items():
        children.setdefault(ppid, []).append(pid)
    found, todo = set(), [root]
    while todo:
        pid = todo.pop()
        if pid in found:
            continue
        found.add(pid)
        todo.extend(children.get(pid, ()))
    return found


def vm_hwm_kb(pid) -> int:
    """A process's resident high-water mark in KiB (0 once gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeWatch:
    """Polls the high-water mark of every process under ``root``."""

    def __init__(self, root: int, interval: float = 0.05, rescan_every: int = 5):
        self.root = root
        self.interval = interval
        self.rescan_every = rescan_every
        self.hwm_kb: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _poll(self, pids: Iterable[int]) -> None:
        for pid in pids:
            value = vm_hwm_kb(pid)
            if value > self.hwm_kb.get(pid, 0):
                self.hwm_kb[pid] = value

    def _run(self) -> None:
        tick = 0
        pids: Set[int] = {self.root}
        while not self._stop.is_set():
            if tick % self.rescan_every == 0:
                pids = descendants(self.root) | pids
            self._poll(pids)
            tick += 1
            self._stop.wait(self.interval)

    def start(self) -> "TreeWatch":
        self._thread.start()
        return self

    def stop(self) -> Dict[int, int]:
        """Stop polling; returns pid -> high-water mark (KiB)."""
        self._stop.set()
        self._thread.join()
        return dict(self.hwm_kb)


def alive(pids: Iterable[int]) -> Set[int]:
    """The pids still running (zombies count as exited)."""
    out = set()
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        if stat[stat.rfind(")") + 2:].split()[0] not in ("Z", "X"):
            out.add(pid)
    return out


def wait_exited(pids: Iterable[int], timeout: float = 10.0) -> Set[int]:
    """Wait up to ``timeout`` for ``pids`` to exit; returns the survivors.

    Helpers such as multiprocessing's resource tracker exit on their own
    shortly after their parent does.
    """
    deadline = time.monotonic() + timeout
    left = alive(pids)
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = alive(left)
    return left


def shm_segments() -> Set[str]:
    """Names of the program's shared-memory segments currently present."""
    try:
        return {p.name for p in SHM_DIR.iterdir() if p.name.startswith(SHM_PREFIX)}
    except OSError:
        return set()
