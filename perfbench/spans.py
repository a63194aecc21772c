"""Spans around the calls into each layer of pibox, for the traced run.

Only the benchmark's own code is instrumented: ``installed`` replaces each
layer's public functions (and a few methods) with timing wrappers where
their callers look them up, for example ``pibox.cli.eigh_tridiagonal`` and
``pibox.continuum.quadrature_nodes``, and puts the originals back on exit.
A span records name, layer, call pattern, start, end, parent, job id, and
the work the call returned (eigenvalues, roots, outcomes or quadrature
nodes) with its worst residual or mass defect.  Spans stay in memory until
``write`` at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

# span fields
ID, PARENT, JOB, LAYER, KEY, NAME, START, END, OK, WORK, WORST = range(11)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._paused = False

    @contextlib.contextmanager
    def span(self, layer, key, name):
        """Record one span; yields the record so callers can set WORK/WORST."""
        rec = [len(self.spans), self._stack[-1] if self._stack else None, self.job,
               layer, key, name, time.perf_counter(), None, False, 0, 0.0]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        try:
            yield rec
            rec[OK] = True
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, layer, key, measure=None):
        """``fn`` inside a span; ``key`` is a label or a function of the
        call's arguments, ``measure(result)`` gives (work, worst) and runs
        untraced after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            label = key(*args, **kwargs) if callable(key) else key
            with self.span(layer, label, fn.__qualname__) as rec:
                result = fn(*args, **kwargs)
            if measure is not None:
                self._paused = True
                try:
                    rec[WORK], rec[WORST] = measure(result)
                finally:
                    self._paused = False
            return result

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer, targets):
    """Swap in traced wrappers for ``targets`` = [(owner, attribute, layer,
    key, measure)] and restore the originals afterwards."""
    saved = []
    try:
        for owner, attr, layer, key, measure in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, layer, key, measure))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def paired(tracer: Tracer, targets, execute):
    """A job runner for ``harness.run_stream`` that runs every job untraced
    and traced, alternating which goes first, so the tracing overhead is
    measured on the same jobs under the same machine load.  Returns the
    runner, which reports the traced run, and the list it fills with the
    untraced latencies."""
    untraced = []

    def run(pibox, job):
        def traced():
            tracer.job = len(untraced)
            with installed(tracer, targets), tracer.span("job", job.kind, "job"):
                return execute(pibox, job)

        if len(untraced) % 2:
            outcome = traced()
            plain = execute(pibox, job)
        else:
            plain = execute(pibox, job)
            outcome = traced()
        untraced.append(plain[0])
        return outcome if plain[2] is None else plain

    return run, untraced


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            children[rec[PARENT]].append(rec)
    out = []
    for rec in spans:
        start, end = rec[START], rec[END]
        covered, reach = 0.0, start
        for child in sorted(children[rec[ID]], key=lambda c: c[START]):
            lo, hi = max(child[START], reach), min(child[END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def pibox_targets(pibox):
    """The wrapped call sites of every layer, with how each call is labelled
    and what work it reports."""
    from pibox import cli, continuum, convergence, eigensolver, measurement, quantization

    def eig_pattern(A, want_vectors=False, weight=1.0, select=None, seed=0):
        if want_vectors:
            return "vectors"
        if select is None or select[1] - select[0] + 1 == A.n:
            return "all_values"
        return "select"

    def eig_work(res):
        worst = 0.0 if res.residuals is None else float(res.residuals.max()) / eigensolver.RESIDUAL_BOUND
        return len(res.eigenvalues), worst

    def root_work(roots):
        bound = 0 if roots.bound_roots is None else len(roots.bound_roots)
        worst = float(roots.residuals.max(initial=0.0)) / quantization.RESIDUAL_BOUND
        return len(roots.real_roots) + bound, worst

    def outcome_work(dist):
        return len(dist.n), abs(dist.total_mass() - 1.0)

    def density_work(fd):
        return 0, abs(fd.total_mass() - 1.0)

    def node_work(nodes):
        return len(nodes[0]), 0.0

    T = []
    for owner in (cli, convergence, pibox):
        T.append((owner, "eigh_tridiagonal", "eigensolver", eig_pattern, eig_work))
        T.append((owner, "build_hamiltonian", "lattice", "build_hamiltonian", None))
    for owner in (cli, convergence):
        for name in ("solve_energy_continuum", "solve_momentum_continuum", "solve_momentum_lattice"):
            T.append((owner, name, "quantization", name[len("solve_"):], root_work))
    T.append((continuum, "solve_energy_continuum", "quantization", "energy_continuum", root_work))
    T += [
        (cli, "main", "cli", "main", None),
        (cli, "solve_energy_lattice", "quantization", "energy_lattice", root_work),
        (cli, "build_p_r", "lattice", "build_p_r", None),
        (measurement, "build_p_r", "lattice", "build_p_r", None),
        (measurement, "build_p_i", "lattice", "build_p_i", None),
        (eigensolver, "hermiticity_defect", "lattice", "hermiticity_defect", None),
        (pibox.ComplexTridiagonal, "matvec", "lattice", "matvec", None),
        (cli, "converge_energy", "convergence", "energy", None),
        (cli, "converge_momentum", "convergence", "momentum", None),
        (cli, "dirichlet_distribution", "measurement", "closed_form", outcome_work),
        (cli, "neumann_ground_distribution", "measurement", "closed_form", outcome_work),
        (cli, "general_distribution", "measurement", "general", outcome_work),
        (cli, "fourier_density", "measurement", "fourier", density_work),
        (measurement.FourierDensity, "total_mass", "measurement", "fourier", None),
        (cli, "p_expectations", "measurement", "p_expectations", None),
        (cli, "energy_eigenstate", "continuum", "energy_eigenstate", None),
        (measurement, "momentum_eigenstate", "continuum", "momentum_eigenstate", None),
        (measurement, "sample_scalar_on_grid", "continuum", "sample_scalar_on_grid", None),
        (continuum.MomentumEigenstate, "wavefunction", "continuum", "wavefunction", None),
        (continuum.EnergyEigenstate, "two_component", "continuum", "two_component", None),
        (continuum.TwoComponentWavefunction, "inner", "continuum", "inner", None),
        (continuum.TwoComponentWavefunction, "norm", "continuum", "norm", None),
        (continuum, "quadrature_nodes", "quadrature", "quadrature_nodes", node_work),
        (measurement, "quadrature_nodes", "quadrature", "quadrature_nodes", node_work),
    ]
    return T


def layer_metrics(spans, bytes_out: int) -> dict[str, float]:
    """The per-layer metrics of one traced run (zero where a layer did
    nothing), keyed as in BENCHMARK.json."""
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    worst = defaultdict(float)
    failures = defaultdict(int)
    by_id = {rec[ID]: rec for rec in spans}
    general_nodes = 0
    for rec, t in zip(spans, own):
        layer, key = rec[LAYER], rec[KEY]
        self_s[layer] += t
        self_s[f"{layer}.{key}"] += t
        calls[f"{layer}.{key}"] += 1
        work[layer] += rec[WORK]
        work[f"{layer}.{key}"] += rec[WORK]
        worst[layer] = max(worst[layer], rec[WORST])
        failures[layer] += not rec[OK]
        if layer == "quadrature":
            parent = rec[PARENT]
            while parent is not None and by_id[parent][KEY] != "general":
                parent = by_id[parent][PARENT]
            general_nodes += rec[WORK] if parent is not None else 0

    def rate(n, t):
        return n / t if t > 0 else 0.0

    m = {
        "eigensolver.all_values.self_s": self_s["eigensolver.all_values"],
        "eigensolver.select.self_s": self_s["eigensolver.select"],
        "eigensolver.vectors.self_s": self_s["eigensolver.vectors"],
        "eigensolver.eigenvalues": work["eigensolver"],
        "eigensolver.eigenvalues_per_s": rate(work["eigensolver"], self_s["eigensolver"]),
        "eigensolver.worst_residual_over_bound": worst["eigensolver"],
        "eigensolver.failures": failures["eigensolver"],
        "quantization.energy_lattice.self_s": self_s["quantization.energy_lattice"],
        "quantization.momentum_lattice.self_s": self_s["quantization.momentum_lattice"],
        "quantization.energy_continuum.self_s": self_s["quantization.energy_continuum"],
        "quantization.momentum_continuum.self_s": self_s["quantization.momentum_continuum"],
        "quantization.roots": work["quantization"],
        "quantization.roots_per_s": rate(work["quantization"], self_s["quantization"]),
        "quantization.worst_residual_over_bound": worst["quantization"],
        "quantization.failures": failures["quantization"],
        "measurement.general.self_s": self_s["measurement.general"],
        "measurement.closed_form.self_s": self_s["measurement.closed_form"],
        "measurement.fourier.self_s": self_s["measurement.fourier"],
        "measurement.p_expectations.self_s": self_s["measurement.p_expectations"],
        "measurement.outcomes": work["measurement"],
        "measurement.worst_mass_defect": worst["measurement"],
        "continuum.energy_eigenstate.calls": calls["continuum.energy_eigenstate"],
        "continuum.energy_eigenstate.self_s": self_s["continuum.energy_eigenstate"],
        "continuum.momentum_eigenstate.calls": calls["continuum.momentum_eigenstate"],
        "continuum.inner.calls": calls["continuum.inner"],
        "continuum.self_s": self_s["continuum"],
        "quadrature.nodes": work["quadrature"],
        "quadrature.nodes_per_outcome": rate(general_nodes, work["measurement.general"]),
        "quadrature.self_s": self_s["quadrature"],
        "cli.self_s": self_s["cli"],
        "cli.bytes_out": bytes_out,
        "lattice.self_s": self_s["lattice"],
        "convergence.calls": calls["convergence.energy"] + calls["convergence.momentum"],
        "convergence.self_s": self_s["convergence"],
    }
    return m
