"""Shared measurement helpers for the benchmark.

The orchestrator (``run.py``) imports this without importing the
simulator; numpy is only imported when the calibration kernel first runs,
which happens in workers.  It provides:

* a fresh subprocess per measurement, with a hard timeout that kills its
  whole process group (:func:`run_child`);
* the calibration kernel that measures how fast the host runs right now
  (:func:`calibrate`), used to scale timings to the recording host;
* peak RSS of a process and its reaped children, and a server's ``VmHWM``;
* percentiles and how many samples lie beyond them;
* host metadata: CPU count, Python and numpy versions, git revision, load.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import time
from pathlib import Path
from typing import Sequence

#: A percentile is only worth reporting when this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10

#: The calibration kernel's best-of-three time on the recording host when
#: nothing else ran (2-CPU VM, Python 3.11.7, numpy 2.4.6).  Calibrated
#: times are in seconds of that host: a wall time times REFERENCE_S over
#: the kernel time measured around it.
REFERENCE_S = 0.0075


class BenchError(RuntimeError):
    """The benchmark could not produce a result (not a wrong result)."""


def derive_seed(*parts: object) -> int:
    """A 32-bit seed derived from ``parts``; independent of the program's own RNG."""

    digest = hashlib.sha256("/".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


@functools.cache
def _calibration_tables():
    import numpy

    keys = [(i * 2654435761) % (1 << 32) for i in range(50_000)]
    table = dict(zip(keys, range(len(keys))))
    random.Random(0).shuffle(keys)
    values = numpy.random.default_rng(0).integers(0, 1000, size=100_000)
    return table, keys, values


def _calibration_kernel() -> float:
    """Seconds for a fixed slice of work that runs no repository code.

    Dict lookups over a table larger than L2, a tuple sort and numpy
    passes over a 0.8 MB array: the mix of interpreter, memory and numpy
    work the simulator does, so that a host slowed down by its neighbours
    slows this kernel about as much as it slows the workloads.
    """

    import numpy

    table, keys, values = _calibration_tables()
    start = time.perf_counter()
    total = 0
    for key in keys[:20_000]:
        total += table[key]
    sorted((key & 255, key) for key in keys[:8_000])
    numpy.bincount(values, minlength=1000)
    numpy.sort(values)
    return time.perf_counter() - start


def calibrate() -> float:
    """Calibration kernel seconds right now: the best of three runs."""

    return min(_calibration_kernel() for _ in range(3))


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) of ``samples``, linearly interpolated."""

    if not samples:
        raise BenchError("no samples to take a percentile of")
    if len(samples) == 1:
        return float(samples[0])
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])


def samples_beyond(samples: Sequence[float], q: float) -> int:
    """How many samples lie strictly beyond the ``q``-quantile."""

    cut = percentile(samples, q)
    return sum(1 for value in samples if value > cut)


def peak_rss_mb() -> float:
    """Max RSS of this process and of every child it has reaped, in MiB."""

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""

    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def git_revision(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""

    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def host_metadata(root: Path) -> dict:
    """What the numbers were measured on."""

    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": git_revision(root),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def run_child(cmd: Sequence[str], *, label: str, env: dict, timeout: float) -> dict:
    """Run ``cmd`` in its own process group; parse its last stdout line as JSON.

    stderr passes through.  On timeout the whole group (the child and
    anything it started) is killed and waited for.
    """

    proc = subprocess.Popen(
        list(cmd), env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise BenchError(f"{label} exceeded {timeout:.0f} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{label} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def child_env(root: Path) -> dict:
    """Environment for every benchmark child: the checkout's sources, a fixed
    hash seed, single-threaded numpy, and the default kernel selection."""

    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("REPRO_ENGINE", None)  # measure the kernel `auto` picks
    return env
