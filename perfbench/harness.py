"""Closed-loop job runner and metrics of the pibox benchmark.

One client in one process: the next job starts when the previous one
returns.  A CLI job is ``pibox.cli.main(argv)`` with stdout and stderr
captured in memory; a library job is one public call.  Only the call is
timed.  Its answer is checked right after, outside the timer, and a job
fails if it raises, exits with a code other than 0, or fails its check.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import importlib.util
import io
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import checks
import workloads

#: a run needs this many jobs, so that ten samples lie beyond latency_p90_s
MIN_JOBS = 100


class TooFewJobs(RuntimeError):
    """The run ended with too few jobs for a 90th percentile."""


@dataclass
class Stream:
    jobs: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (job index, reason)
    bytes_out: int = 0
    samples: dict = field(default_factory=dict)  # job kind -> (job, answer), for the negative control

    @property
    def busy_s(self) -> float:
        return float(sum(self.latencies))


def _run_vectors(pibox, job):
    p = dict(job.params)
    n = p["N"]
    robin = pibox.RobinParams(*(float(g) for g in p["gamma"]))
    h = pibox.build_hamiltonian(pibox.LatticeGrid(n), pibox.PhysicalConfig(), robin)
    return pibox.eigh_tridiagonal(h, want_vectors=True, weight=1.0 / n, select=p["select"])


LIBRARY_JOBS = {"vectors": _run_vectors}


def execute(pibox, job):
    """(latency_s, answer, failure reason or None) of one job."""
    if job.argv is None:
        t0 = time.perf_counter()
        try:
            answer = LIBRARY_JOBS[job.kind](pibox, job)
        except Exception as exc:  # a failed job is counted, not fatal
            return time.perf_counter() - t0, None, f"raised {exc!r}"
        return time.perf_counter() - t0, answer, None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = pibox.cli.main(list(job.argv))
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code
        except Exception as exc:
            return time.perf_counter() - t0, None, f"raised {exc!r}"
        latency = time.perf_counter() - t0
    if code != 0:
        return latency, None, f"exit code {code}: {err.getvalue().strip()[:200]}"
    return latency, out.getvalue(), None


def run_stream(pibox, workload, seed, seconds, cap_s, min_jobs=MIN_JOBS, replay=None, run=execute):
    """Run whole blocks of jobs with ``run`` until ``seconds`` of job time
    and ``min_jobs`` jobs are done, or ``cap_s`` of wall time (checks
    included) has passed; or run exactly the jobs of ``replay``."""
    s = Stream()
    t_start = time.perf_counter()
    blocks = ([replay] if replay is not None else
              (workloads.make_block(workload, seed, b) for b in range(10**9)))
    for block in blocks:
        for job in block:
            latency, answer, failure = run(pibox, job)
            if failure is None:
                failure = checks.check(job, answer)
            if failure is None:
                s.samples.setdefault(job.kind, (job, answer))
                s.bytes_out += len(answer) if isinstance(answer, str) else 0
            else:
                s.failures.append((len(s.jobs), failure))
            s.jobs.append(job)
            s.latencies.append(latency)
        if replay is None:
            if s.busy_s >= seconds and len(s.jobs) >= min_jobs:
                break
            if time.perf_counter() - t_start >= cap_s:
                break
    return s


def latency_summary(latencies) -> tuple[float, float]:
    """(p50, p90) of the job latencies; refuses runs under MIN_JOBS."""
    if len(latencies) < MIN_JOBS:
        raise TooFewJobs(f"{len(latencies)} jobs < {MIN_JOBS}: too few for latency_p90_s")
    return float(np.percentile(latencies, 50)), float(np.percentile(latencies, 90))


def negative_control(samples) -> list[str]:
    """Job kinds whose check accepted an answer spoiled beyond tolerance."""
    return [kind for kind, (job, answer) in sorted(samples.items())
            if checks.check(job, checks.perturb(answer)) is None]


def setup_seconds(src: str, repeats: int) -> list[float]:
    """Wall times of a fresh interpreter running ``import pibox, pibox.cli``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import pibox, pibox.cli"], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def environment(pibox, seed, stream) -> dict:
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pibox_backend": pibox.BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": blas_threads(),
        "seed": seed,
        "jobs": len(stream.jobs),
        "jobs_digest": workloads.digest(stream.jobs),
        "job_kinds": {k: sum(j.kind == k for j in stream.jobs) for k in sorted({j.kind for j in stream.jobs})},
    }
