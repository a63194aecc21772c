"""Tests of the benchmark harness itself: the seeded generator, span
self-time arithmetic, refusal of short runs, failure counting, the
per-job checks and their negative control."""

import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import harness  # noqa: E402
import pibox  # noqa: E402
import pibox.cli  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    def stream(seed):
        return [job for b in range(3) for job in workloads.make_block(workload, seed, b)]

    assert stream(3) == stream(3)
    assert workloads.digest(stream(3)) == workloads.digest(stream(3))
    assert workloads.digest(stream(3)) != workloads.digest(stream(4))
    assert len(workloads.make_block(workload, 3, 1)) == sum(c for _, c in workloads.WORKLOADS[workload])


def test_generated_numbers_never_read_as_flags():
    # argparse takes "-1.2e-05" for an option, so the generator writes -0.000012
    assert workloads._num(-1.2e-05) == "-0.000012"
    assert workloads._num(-1000.0) == "-1000"


def test_first_block_holds_the_ends_of_the_coupling_range():
    gammas = {job.argv[job.argv.index("--gamma") + 1]
              for job in workloads.make_block("roots_and_outcomes", 11, 0) if job.kind == "bound_states"}
    assert gammas == {"-1", "-1000"}


def _span(sid, parent, start, end):
    rec = [None] * 11
    rec[spans.ID], rec[spans.PARENT], rec[spans.START], rec[spans.END] = sid, parent, start, end
    return rec


def test_self_time_subtracts_the_time_children_cover():
    synthetic = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 9.0),
        _span(4, 0, 8.0, 9.5),  # overlaps its sibling: the union counts once
    ]
    assert spans.self_times(synthetic) == pytest.approx([2.5, 2.0, 1.0, 4.0, 1.5])


def test_wrappers_record_parents_and_are_removed_afterwards():
    owner = types.SimpleNamespace(inner=lambda: [1, 2, 3])
    owner.outer = lambda: owner.inner()
    original = owner.inner
    tracer = spans.Tracer()
    targets = [(owner, "outer", "cli", "outer", None),
               (owner, "inner", "quadrature", "inner", lambda r: (len(r), 0.0))]
    with spans.installed(tracer, targets):
        owner.outer()
    assert owner.inner is original
    outer, inner = tracer.spans
    assert inner[spans.PARENT] == outer[spans.ID] and outer[spans.PARENT] is None
    assert inner[spans.WORK] == 3 and inner[spans.OK]


def test_runs_under_min_jobs_are_refused():
    with pytest.raises(harness.TooFewJobs):
        harness.latency_summary([0.1] * (harness.MIN_JOBS - 1))
    p50, p90 = harness.latency_summary([float(i) for i in range(harness.MIN_JOBS)])
    assert p50 < p90


def test_failures_count_exceptions_exit_codes_and_failed_checks(monkeypatch):
    def boom(pibox, job):
        raise RuntimeError("boom")

    monkeypatch.setitem(harness.LIBRARY_JOBS, "boom", boom)
    good = ("spectrum", "--method", "lattice-eig", "--N", "9", "--levels", "9", "--gamma", "2", "2")
    jobs = [
        Job("eig_all", good),
        Job("boom"),                                                 # raises
        Job("eig_all", ("spectrum", "--bc", "robin")),              # exit code 2: no --gamma
        Job("eig_all", ("spectrum", "--no-such-flag")),             # argparse exits with 2
        Job("eig_all", good[:5] + ("--levels", "3") + good[7:]),    # 3 of 9 eigenvalues: check fails
    ]
    s = harness.run_stream(pibox, "lattice_spectra", 0, 0, 0, replay=jobs)
    assert len(s.jobs) == 5
    assert [i for i, _ in s.failures] == [1, 2, 3, 4]
    assert "raised" in s.failures[0][1] and "exit code 2" in s.failures[1][1]


def test_every_check_accepts_right_answers_and_rejects_spoiled_ones():
    samples = {}
    for workload in workloads.WORKLOADS:
        s = harness.run_stream(pibox, workload, 0, 0, 0, replay=workloads.warmup_block(workload))
        assert s.failures == []
        samples.update(s.samples)
    assert set(samples) == set(checks.CHECKS)
    assert harness.negative_control(samples) == []


def test_traced_run_attributes_time_to_the_eigensolver_patterns():
    tracer = spans.Tracer()
    run, untraced = spans.paired(tracer, spans.pibox_targets(pibox), harness.execute)
    jobs = workloads.warmup_block("lattice_spectra")
    s = harness.run_stream(pibox, "lattice_spectra", 0, 0, 0, replay=jobs, run=run)
    assert s.failures == [] and len(untraced) == len(jobs)
    assert not hasattr(pibox.cli.eigh_tridiagonal, "__wrapped__")
    m = spans.layer_metrics(tracer.spans, s.bytes_out)
    for key in ("all_values", "select", "vectors"):
        assert m[f"eigensolver.{key}.self_s"] > 0
    assert m["eigensolver.failures"] == 0 and m["convergence.calls"] == 1
