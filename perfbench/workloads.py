"""Seeded job generator for the pibox benchmark.

A job is one thing a user does: a ``pibox`` verb (argv for
``pibox.cli.main``) or one public library call (kind ``vectors``).  Each
workload is a fixed mix of job kinds.  Jobs come in blocks; a block holds
``count`` jobs of every kind, in seeded random order.  A kind's sizes are
log-uniform over its range, placed by the golden-ratio sequence
u_i = frac(u_0 + i * 0.618...) from a seeded start u_0: its first n points
spread evenly over [0, 1) for every n, so each run covers every size range
evenly and runs with different seeds cost about the same.  Block 0 of every
run holds the two ends of every range instead, so the largest case (and
with it peak memory) is in every run.

Only the generated argv or arguments reach the package.  A block depends on
(workload, seed, block index) alone, so two runs that execute the same
number of jobs execute the same jobs; ``digest`` fingerprints that list.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple[str, ...] | None = None  # pibox CLI verb, or None for a library call
    params: tuple[tuple[str, object], ...] = ()  # library-call arguments

    def describe(self) -> str:
        if self.argv is not None:
            return "pibox " + " ".join(self.argv)
        return f"{self.kind}({', '.join(f'{k}={v}' for k, v in self.params)})"


def _num(x: float) -> str:
    # argparse takes "-1.2e-05" for an option flag, so no exponent notation
    s = format(float(x), ".6g")
    return format(float(x), ".6f") if "e" in s else s


def _odd(x: float) -> int:
    n = int(round(x))
    return n if n % 2 else n + 1


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _couplings(rng, lo=0.1, hi=100.0) -> list[str]:
    """Two positive Robin couplings, log-uniform and independent."""
    return [_num(_log_uniform(lo, hi, rng.random())) for _ in range(2)]


def _hard_wall_or_robin(rng) -> list[str]:
    return ["--bc", "dirichlet"] if rng.random() < 0.5 else ["--gamma", *_couplings(rng)]


def _ell(rng) -> str:
    return _num(rng.uniform(-0.9, 0.9))


# --- lattice_spectra ------------------------------------------------------
# The eigensolver does almost all the work, through three ways of calling
# eigh_tridiagonal, so a change that helps one call pattern and hurts
# another shows.  Quantization only supplies the continuum target of
# `converge`; measurement does nothing.

def _eig_all(u, rng):
    n = _odd(_log_uniform(51, 501, u))
    return Job("eig_all", ("spectrum", "--method", "lattice-eig", "--N", str(n),
                           "--levels", str(n), *_hard_wall_or_robin(rng)))


def _converge_energy(u, rng):
    n = _odd(_log_uniform(5, 45, u))
    bc = _hard_wall_or_robin(rng)
    level = int(rng.integers(1, 5)) if bc[0] == "--bc" else int(rng.integers(0, 4))
    return Job("converge_energy", ("converge", "--observable", "energy", "--level", str(level),
                                   "--N-list", str(n), str(3 * n), str(9 * n), *bc))


def _vectors(u, rng):
    n = _odd(_log_uniform(99, 501, u))
    hard = rng.random() < 0.5
    gammas = ("inf", "inf") if hard else tuple(_couplings(rng))
    return Job("vectors", None, (("N", n), ("gamma", gammas), ("select", (0, 31))))


# --- roots_and_outcomes ---------------------------------------------------
# The eigensolver does no work here.  Two thirds of the job time is the root
# finders of `quantization`; the bound-state jobs keep |gamma| up to 1000
# because `_bound_roots` scans a grid of about 1e4 |gamma| points, which is
# what peak_rss_mb must show.  The other third is momentum measurement:
# measurement, continuum and quadrature (the O(cutoff^2) quadrature overlap
# loop, the closed forms, the Fourier densities), plus the cli layer
# formatting the 20001-row closed-form tables.

def _momentum_root(u, rng):
    n = _odd(_log_uniform(51, 601, u))
    return Job("momentum_root", ("momentum", "--method", "lattice-root", "--N", str(n),
                                 "--ell", _ell(rng), _ell(rng)))


def _spectrum_root(u, rng):
    n = _odd(_log_uniform(51, 601, u))
    return Job("spectrum_root", ("spectrum", "--method", "lattice-root", "--N", str(n),
                                 "--levels", str(n), "--gamma", *_couplings(rng)))


def _converge_momentum(u, rng):
    n = _odd(_log_uniform(5, 55, u))
    ell = _ell(rng)
    label = int(rng.choice([-2, -1, 1, 2]))
    return Job("converge_momentum", ("converge", "--observable", "momentum", "--level", str(label),
                                     "--ell", ell, ell, "--N-list", str(n), str(3 * n), str(9 * n)))


def _bound_states(u, rng):
    a = float(_num(_log_uniform(1.0, 1000.0, u)))
    # a*b - a - b = 0 puts a bound state at kappa = 0, below the scan grid;
    # keep clear of that degenerate line (b = 1 always is)
    b = float(_num(_log_uniform(1.0, a, rng.random())))
    while abs(a * b - a - b) < 0.5:
        b = float(_num(_log_uniform(1.0, a, rng.random())))
    return Job("bound_states", ("spectrum", "--bound-states", "--gamma", _num(-a), _num(-b),
                                "--levels", "4"))


def _measure_quadrature(u, rng):
    cutoff = int(round(_log_uniform(24, 192, u)))
    ell = _ell(rng)
    return Job("measure_quadrature", ("measure", "--method", "quadrature", "--gamma", *_couplings(rng),
                                      "--level", str(int(rng.integers(0, 4))),
                                      "--cutoff", str(cutoff), "--ell", ell, ell))


def _measure_dirichlet(u, rng):
    level = 1 + int(u * 8 - 1e-9)
    return Job("measure_dirichlet", ("measure", "--bc", "dirichlet", "--level", str(level),
                                     "--cutoff", "10000"))


def _measure_neumann(u, rng):
    return Job("measure_neumann", ("measure", "--bc", "neumann", "--level", "0"))


def _fourier(u, rng):
    if rng.random() < 0.5:
        return Job("fourier", ("fourier", "--kind", "neumann"))
    return Job("fourier", ("fourier", "--kind", "dirichlet", "--level", str(1 + int(u * 8 - 1e-9))))


#: workload -> [(job maker, jobs of that kind per block)]
WORKLOADS = {
    "lattice_spectra": [(_eig_all, 4), (_converge_energy, 2), (_vectors, 2)],
    "roots_and_outcomes": [(_momentum_root, 3), (_spectrum_root, 3), (_converge_momentum, 2),
                           (_bound_states, 2), (_measure_quadrature, 2), (_measure_dirichlet, 1),
                           (_measure_neumann, 1), (_fourier, 1)],
}


_GOLDEN = (5**0.5 - 1) / 2


def make_block(workload: str, seed: int, index: int) -> list[Job]:
    """Block ``index`` of the job stream of ``workload`` for ``seed``."""
    mix = WORKLOADS[workload]
    stream = [seed, sorted(WORKLOADS).index(workload)]
    starts = np.random.default_rng(stream).random(len(mix))
    rng = np.random.default_rng(stream + [index])
    jobs = []
    for (maker, count), u0 in zip(mix, starts):
        if index == 0:
            us = [j / (count - 1) if count > 1 else 1.0 for j in range(count)]
        else:
            us = [(u0 + (index * count + j) * _GOLDEN) % 1.0 for j in range(count)]
        jobs.extend(maker(u, rng) for u in us)
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def warmup_block(workload: str) -> list[Job]:
    """One job of every kind at the small end of its range, run untimed so
    lazy imports inside numpy and scipy are done before timing."""
    rng = np.random.default_rng(0)
    return [maker(0.0, rng) for maker, _ in WORKLOADS[workload]]


def digest(jobs: list[Job]) -> str:
    text = json.dumps([[j.kind, j.argv, j.params] for j in jobs], default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]

