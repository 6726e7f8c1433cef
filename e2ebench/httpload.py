"""Server processes and keep-alive HTTP connections for the benchmark.

One :class:`ServerProcess` is one ``repro-rrq serve`` (or the traced
entry script) started from the checkout's ``src`` tree; one
:class:`Connection` is one persistent HTTP/1.1 connection, used by one
load thread at a time.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

#: BLAS/OpenMP thread count pinned in every server process.
BLAS_THREADS = 1

#: Per-request socket timeout; a request slower than this is a failure.
REQUEST_TIMEOUT_S = 30.0


def server_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def run_cli(src: Path, args: List[str], log: Path) -> None:
    """Run one ``repro-rrq`` subcommand to completion."""
    with open(log, "ab") as out:
        subprocess.run([sys.executable, "-m", "repro.cli", *args],
                       env=server_env(src), stdout=out,
                       stderr=subprocess.STDOUT, check=True, timeout=120)


class ServerProcess:
    """A ``serve`` process on a free local port."""

    def __init__(self, src: Path, serve_args: List[str], log: Path,
                 spans_out: Optional[Path] = None):
        self.port = free_port()
        args = ["serve", *serve_args, "--port", str(self.port)]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.cli", *args]
        else:
            script = Path(__file__).with_name("traced_serve.py")
            cmd = [sys.executable, str(script), str(spans_out), *args]
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(cmd, env=server_env(src),
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode}")
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                  timeout=1.0)
                conn.request("GET", "/healthz")
                ok = conn.getresponse().status == 200
                conn.close()
                if ok:
                    return
            except OSError:
                pass
            time.sleep(0.02)
        raise RuntimeError("server did not become ready")

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
            if resp.status != 200:
                raise RuntimeError(f"GET {path}: HTTP {resp.status}")
            return json.loads(body)
        finally:
            conn.close()

    def disk_write_bytes(self) -> int:
        """``write_bytes`` from the server's ``/proc/<pid>/io``."""
        for line in Path(f"/proc/{self.pid}/io").read_text().splitlines():
            if line.startswith("write_bytes:"):
                return int(line.split()[1])
        raise RuntimeError("no write_bytes in /proc/<pid>/io")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` (peak resident set) from ``/proc/<pid>/status``."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc/<pid>/status")

    def stop(self, timeout_s: float = 20.0) -> None:
        """SIGTERM, wait, SIGKILL if needed; always reaps the process."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=timeout_s)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=timeout_s)
        finally:
            self._log.close()


class Connection:
    """One keep-alive connection; reconnects after an error."""

    def __init__(self, port: int):
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def post(self, path: str, body: bytes, rid: str
             ) -> Tuple[Optional[int], bytes, float, float]:
        """``(status or None, body, sent, last byte)`` on the monotonic clock.

        ``status`` is ``None`` on a timeout or connection error.
        """
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        headers = {"Content-Type": "application/json", "X-Trace-Id": rid}
        sent = time.monotonic()
        try:
            self._conn.request("POST", path, body=body, headers=headers)
            resp = self._conn.getresponse()
            data = resp.read()
            return resp.status, data, sent, time.monotonic()
        except (OSError, http.client.HTTPException):
            self.close()
            return None, b"", sent, time.monotonic()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
