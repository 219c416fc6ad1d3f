"""Child processes for the benchmark: pinned BLAS threads, wall time and peak RSS from outside.

Every child runs with OpenBLAS, OpenMP and MKL pinned to one thread and
imports ``tsketch`` from the checkout's ``src/``. Children run one at a time. Peak RSS comes
from ``os.wait4`` on the child itself, which is per process, unlike
``RUSAGE_CHILDREN`` (a running maximum over every child reaped so far).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A child that runs longer than this is killed and counted as failed, so one
# stuck step cannot push a run past its time limit.
CHILD_TIMEOUT_S = 120.0


def pin_threads(env):
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def child_env(root):
    env = pin_threads(dict(os.environ))
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool = False

    def error_line(self):
        """The JSON error object the CLI prints on stderr, or None."""
        for line in self.stderr.splitlines():
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and "error" in obj:
                return obj["error"]
        return None

    def failure(self):
        """Why this process counts as failed, or None."""
        if self.timed_out:
            return f"timed out after {CHILD_TIMEOUT_S:.0f} s"
        if self.exit_code != 0:
            tail = self.stderr.strip().splitlines()[-1:] or [""]
            return f"exit code {self.exit_code}: {tail[0][:200]}"
        err = self.error_line()
        if err is not None:
            return f"error line on stderr: {err}"
        return None


class Runner:
    """Launches children from one directory with one environment, one at a time."""

    def __init__(self, env, cwd, scratch):
        self.env = env
        self.cwd = cwd
        self.scratch = scratch

    def python(self, args):
        """Run `python3 ARGS` to completion; return its exit code, output, wall time and peak RSS."""
        argv = [sys.executable, *(str(a) for a in args)]
        with tempfile.TemporaryFile(dir=self.scratch) as out, \
                tempfile.TemporaryFile(dir=self.scratch) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.cwd)
            timed_out = threading.Event()

            def kill():
                timed_out.set()
                proc.kill()

            timer = threading.Timer(CHILD_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            # wait4 reaped the child; tell Popen so it does not wait again.
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return ChildResult(
                exit_code=proc.returncode,
                wall_s=wall,
                peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
                stdout=out.read().decode("utf-8", "replace"),
                stderr=err.read().decode("utf-8", "replace"),
                timed_out=timed_out.is_set(),
            )
