"""Bounded process plumbing shared by ``run.py`` and its repetitions.

Every wait here has a deadline that fires: lines are read from a child's
stdout on a reader thread so a silent child cannot block the caller, and
stopping a child escalates ``wait -> terminate -> kill`` with a timeout on
each step.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import threading
import time
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: working files (artifacts, journals, traces), inside the checkout.
WORK = os.path.join(ROOT, ".perfbench")


def child_env() -> dict:
    """Environment for children: the checkout's sources, a TMPDIR under WORK."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


class LineReader:
    """Reads a child's stdout lines on a daemon thread; ``get`` has a deadline."""

    def __init__(self, stream) -> None:
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._thread = threading.Thread(
            target=self._pump, args=(stream,), daemon=True
        )
        self._thread.start()

    def _pump(self, stream) -> None:
        for line in stream:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def get(self, deadline: float) -> Optional[str]:
        """Next line; ``None`` at EOF; raises ``TimeoutError`` at the deadline."""
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("deadline passed waiting for output")
        try:
            return self._lines.get(timeout=remaining)
        except queue.Empty:
            raise TimeoutError("deadline passed waiting for output") from None

    def wait_for(self, prefix: str, deadline: float) -> str:
        """The first line starting with ``prefix`` (earlier lines dropped)."""
        while True:
            line = self.get(deadline)
            if line is None:
                raise EOFError(f"child exited before printing {prefix!r}")
            if line.startswith(prefix):
                return line


def stop(proc: subprocess.Popen, grace: float, group: bool = False) -> str:
    """Wait for ``proc`` up to ``grace`` s, then terminate, then kill.

    Returns how it ended: ``exited``, ``terminated`` or ``killed``.  With
    ``group=True`` the signals go to the child's process group, which
    takes its own children down with it.
    """
    steps = (
        ("exited", None, grace),
        ("terminated", signal.SIGTERM, 5.0),
        ("killed", signal.SIGKILL, 5.0),
    )
    for outcome, sig, timeout in steps:
        if sig is not None and proc.poll() is None:
            try:
                if group:
                    os.killpg(proc.pid, sig)
                else:
                    proc.send_signal(sig)
            except ProcessLookupError:
                pass
        try:
            proc.wait(timeout=timeout)
            return outcome
        except subprocess.TimeoutExpired:
            continue
    raise RuntimeError(f"process {proc.pid} survived SIGKILL")
