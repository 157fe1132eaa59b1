"""Lifecycle of a ``repro serve`` daemon run as a child process.

The daemon binds an ephemeral port (``--port 0``) and announces its URL
on its first stdout line; start-up counts as ready once ``/healthz``
answers.  :meth:`Daemon.stop` interrupts it the way ctrl-c would (a
draining shutdown), kills it if that takes too long, and always waits
for the process to end.
"""

from __future__ import annotations

import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, List, Optional

from harness import child_env

_URL = re.compile(r"serving on (http://\S+)")


class DaemonError(RuntimeError):
    """The daemon did not come up."""


class Daemon:
    """One ``python -m repro serve`` child with its store in *workdir*."""

    def __init__(self, workdir: Path, workers: int = 2):
        self.workdir = Path(workdir)
        self.workers = workers
        self.url: Optional[str] = None
        self._proc: Optional[subprocess.Popen] = None
        self._log: Any = None

    def command(self) -> List[str]:
        return [
            sys.executable, "-u", "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--workers", str(self.workers),
            "--store", str(self.workdir / "store"),
        ]

    def start(self, timeout_s: float = 60.0) -> str:
        """Spawn the daemon and block until it answers its health probe."""
        from repro.serve import ServeClient

        self.workdir.mkdir(parents=True, exist_ok=True)
        self._log = (self.workdir / "daemon.log").open("w", encoding="utf-8")
        self._proc = subprocess.Popen(
            self.command(),
            stdout=subprocess.PIPE,
            stderr=self._log,
            stdin=subprocess.DEVNULL,
            env=child_env(),
            text=True,
        )
        deadline = time.monotonic() + timeout_s
        line = ""
        while not line:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self._proc.poll() is not None:
                raise DaemonError(f"daemon did not announce its URL; see {self._log.name}")
            ready, _, _ = select.select([self._proc.stdout], [], [], remaining)
            if ready:
                line = self._proc.stdout.readline()
                if not line:  # EOF: the daemon died
                    raise DaemonError(f"daemon exited during start-up; see {self._log.name}")
        match = _URL.search(line)
        if match is None:
            raise DaemonError(f"unexpected daemon banner: {line!r}")
        self.url = match.group(1)
        client = ServeClient(self.url, timeout_s=5.0, max_retries=0)
        while not client.health():
            if time.monotonic() > deadline or self._proc.poll() is not None:
                raise DaemonError(f"daemon never became healthy; see {self._log.name}")
            time.sleep(0.01)
        return self.url

    def stop(self, timeout_s: float = 20.0) -> None:
        """Drain-stop the daemon; kill it if it does not exit in time."""
        proc, self._proc = self._proc, None
        if proc is not None:
            try:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGINT)
                    try:
                        proc.wait(timeout=timeout_s)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
            finally:
                if proc.stdout is not None:
                    proc.stdout.close()
        if self._log is not None:
            self._log.close()
            self._log = None
        self.url = None

    def __enter__(self) -> "Daemon":
        self.start()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.stop()
