import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pibox
from pibox import (
    ComplexTridiagonal,
    LatticeGrid,
    RobinParams,
    build_hamiltonian,
    build_p_r,
    eigh_tridiagonal,
    phase_reduce,
    sturm_count,
)
from pibox.eigensolver import RESIDUAL_BOUND


def parity_conjugate(a: ComplexTridiagonal) -> ComplexTridiagonal:
    # reversal of a tridiagonal matrix is tridiagonal: U A U with U the flip
    return ComplexTridiagonal(
        a.diagonal[::-1].copy(), a.subdiagonal[::-1].copy(), a.superdiagonal[::-1].copy()
    )


def test_phase_reduce_real_input_is_identity():
    a = ComplexTridiagonal(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.25]), np.array([0.5, 0.25]))
    d, e, phases = phase_reduce(a)
    assert np.array_equal(phases, np.ones(3))
    assert np.array_equal(d, [1.0, 2.0, 3.0])
    assert np.array_equal(e, [0.5, 0.25])


def test_phase_reduce_p_r_gives_quarter_turns(ext_i):
    g = LatticeGrid(9, 1.0)
    a = build_p_r(g, ext_i)
    d, e, phases = phase_reduce(a)
    assert np.allclose(phases, 1j ** np.arange(9))
    assert np.allclose(e, 1.0 / (2 * g.spacing))
    # the reduction is a similarity: D^dagger A D real symmetric
    dm = np.diag(phases)
    reduced = dm.conj().T @ a.to_dense() @ dm
    assert np.max(np.abs(reduced.imag)) < 1e-15
    assert np.allclose(np.diag(reduced, 1), e)


def test_phase_reduce_zero_matrix():
    z = ComplexTridiagonal(np.zeros(4), np.zeros(3), np.zeros(3))
    d, e, phases = phase_reduce(z)
    assert np.array_equal(d, np.zeros(4))
    assert np.array_equal(e, np.zeros(3))
    assert np.array_equal(phases, np.ones(4))


def test_phase_reduce_rejects_non_hermitian():
    bad = ComplexTridiagonal(np.array([1j, 0.0]), np.array([1.0]), np.array([2.0]))
    with pytest.raises(ValueError):
        phase_reduce(bad)


def test_diagonal_matrix():
    a = ComplexTridiagonal(np.array([3.0, 1.0, 2.0]), np.zeros(2), np.zeros(2))
    res = eigh_tridiagonal(a, want_vectors=True)
    assert np.allclose(res.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)
    assert res.residuals.max() < 1e-12


def test_neumann_constant_mode_is_null(cfg):
    h = build_hamiltonian(LatticeGrid(99, 1.0), cfg, RobinParams(0.0, 0.0))
    res = eigh_tridiagonal(h, select=(0, 0))
    assert abs(res.eigenvalues[0]) <= 1e-10


def test_p_r_spectrum_against_dense_oracle(ext_i):
    g = LatticeGrid(9, 1.0)
    a = build_p_r(g, ext_i)
    mine = eigh_tridiagonal(a).eigenvalues
    oracle = np.linalg.eigvalsh(a.to_dense())
    assert np.max(np.abs(mine - oracle)) < 1e-12
    # lattice dispersion values, e.g. 9 sin(pi/9) = 3.07818...
    formula = np.sort([9.0 * math.sin(math.pi * n / 9) for n in range(-4, 5)])
    assert np.max(np.abs(mine - formula)) < 1e-13
    assert mine[5] == pytest.approx(9.0 * math.sin(math.pi / 9), abs=1e-13)


@pytest.mark.parametrize("n_sites", [9, 27, 99])
def test_hamiltonian_spectrum_against_dense_oracle(cfg, n_sites):
    h = build_hamiltonian(LatticeGrid(n_sites, 1.0), cfg, RobinParams(2.0, -3.0))
    mine = eigh_tridiagonal(h).eigenvalues
    oracle = np.linalg.eigvalsh(h.to_dense())
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(mine - oracle)) < 1e-12 * scale


def test_eigenvector_residuals_and_orthonormality(cfg, robin2):
    g = LatticeGrid(99, 1.0)
    h = build_hamiltonian(g, cfg, robin2)
    res = eigh_tridiagonal(h, want_vectors=True, weight=g.spacing, seed=3)
    assert res.residuals.max() <= 1e-10
    v = res.eigenvectors
    gram = g.spacing * v.conj().T @ v
    assert np.max(np.abs(gram - np.eye(99))) <= 1e-10
    assert res.meta["seed"] == 3


def test_select_range(cfg, robin2):
    h = build_hamiltonian(LatticeGrid(99, 1.0), cfg, robin2)
    full = eigh_tridiagonal(h).eigenvalues
    window = eigh_tridiagonal(h, select=(3, 7)).eigenvalues
    assert np.allclose(window, full[3:8], atol=1e-12)
    with pytest.raises(ValueError):
        eigh_tridiagonal(h, select=(5, 200))


def test_degenerate_cluster_orthogonalization():
    a = ComplexTridiagonal(np.ones(4), np.zeros(3), np.zeros(3))
    res = eigh_tridiagonal(a, want_vectors=True)
    assert np.allclose(res.eigenvalues, 1.0)
    gram = res.eigenvectors.conj().T @ res.eigenvectors
    assert np.max(np.abs(gram - np.eye(4))) < 1e-10


def test_sturm_count_matches_spectrum(cfg, robin2):
    h = build_hamiltonian(LatticeGrid(99, 1.0), cfg, robin2)
    ev = eigh_tridiagonal(h).eigenvalues
    for sigma in (-1.0, 0.0, ev[0] + 1e-6, 123.4, 5e3, 2e4):
        assert sturm_count(h, sigma) == int(np.sum(ev < sigma))


def test_parity_negates_spectrum(ext_i):
    g = LatticeGrid(27, 1.0)
    a = build_p_r(g, ext_i)
    spec = eigh_tridiagonal(a).eigenvalues
    conj_spec = eigh_tridiagonal(parity_conjugate(a)).eigenvalues
    assert np.max(np.abs(np.sort(-conj_spec) - spec)) < 1e-12


def test_large_problem_bound_state_window(cfg):
    # eigenvalue-range selection keeps the 2001-site problem cheap
    h = build_hamiltonian(LatticeGrid(2001, 1.0), cfg, RobinParams(-5.0, -5.0))
    low = eigh_tridiagonal(h, select=(0, 1)).eigenvalues
    assert low[0] < low[1] < 0


def test_sturm_count_at_an_exact_zero_pivot():
    # zero diagonal, unit couplings: sigma = 0 makes every other pivot vanish
    chain = ComplexTridiagonal(np.zeros(46), np.ones(45), np.ones(45))
    assert sturm_count(chain, 0.0) == 23


def test_window_edge_inside_a_multiple_eigenvalue():
    # split matrix: -1e4 is an eigenvalue of several blocks and the window starts inside it
    d = np.array([-1e4, 100, 100, 100, -1e4, -1e4, 100, 100, 100, -1e4, -1e4, -1e4,
                  -1e4, 100, 100, -1e4, 100, -1e4, 100, -1e4, 100, -1e4, 100, -1e4])
    e = np.zeros(23)
    e[[3, 5, 12, 14, 19, 22]] = [1e-3, 1e-2, 1e-1, 1e-3, 1e3, 1.0]
    a = ComplexTridiagonal(d, e, e)
    window = eigh_tridiagonal(a, select=(8, 19)).eigenvalues
    assert np.max(np.abs(window - np.linalg.eigvalsh(a.to_dense())[8:20])) <= 1e-12 * a.max_abs()


def test_vectors_of_a_graded_matrix_with_tight_clusters():
    # nearly decoupled unit chains of similar length give pairs of close eigenvalues
    e = np.ones(45)
    e[[1, 23, 24]] = [1e4, 10.0, 0.1]
    a = ComplexTridiagonal(np.zeros(46), e, e)
    res = eigh_tridiagonal(a, want_vectors=True, select=(0, 22))
    assert res.residuals.max() <= RESIDUAL_BOUND
    gram = res.eigenvectors.conj().T @ res.eigenvectors
    assert np.max(np.abs(gram - np.eye(23))) <= 1e-10


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg is imported on the first eigensolve, not by `import pibox`
    code = "import sys, pibox, pibox.cli; print('scipy.linalg' in sys.modules)"
    src = str(Path(pibox.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_leaves_scipy_special_unloaded():
    # scipy.special is imported by the first tail or zeta series that needs it
    code = "import sys, pibox, pibox.cli; print('scipy.special' in sys.modules)"
    src = str(Path(pibox.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


_magnitudes = st.floats(-3.0, 4.0).map(lambda x: 10.0**x)
_entries = st.one_of(st.just(0.0), st.builds(lambda s, m: s * m, st.sampled_from([-1.0, 1.0]), _magnitudes))


@st.composite
def hermitian_tridiagonals(draw):
    """Complex Hermitian tridiagonals with random off-diagonal phases,
    entries spanning 1e-3..1e4, optional zero off-diagonals (split
    matrices) and optionally exactly degenerate diagonals."""
    n = draw(st.integers(1, 60))
    if draw(st.booleans()):
        pool = draw(st.lists(_entries, min_size=1, max_size=3))
        diagonal = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    else:
        diagonal = draw(st.lists(_entries, min_size=n, max_size=n))
    moduli = np.array(draw(st.lists(_magnitudes, min_size=n - 1, max_size=n - 1)))
    if n > 1 and draw(st.booleans()):
        moduli[sorted(draw(st.sets(st.integers(0, n - 2), min_size=1)))] = 0.0
    angles = np.array(draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=n - 1, max_size=n - 1)))
    upper = moduli * np.exp(1j * angles)
    return ComplexTridiagonal(np.array(diagonal), upper, upper.conj())


@settings(max_examples=200, deadline=None)
@given(a=hermitian_tridiagonals(), data=st.data())
def test_random_hermitian_tridiagonals(a, data):
    n = a.n
    lo = data.draw(st.integers(0, n - 1), label="lo")
    hi = data.draw(st.integers(lo, n - 1), label="hi")
    weight = data.draw(st.floats(-4.0, 1.0).map(lambda x: 10.0**x), label="weight")
    scale = a.max_abs()
    oracle = np.linalg.eigvalsh(a.to_dense())

    res = eigh_tridiagonal(a, want_vectors=True, weight=weight, select=(lo, hi))
    assert np.max(np.abs(res.eigenvalues - oracle[lo : hi + 1])) <= 1e-12 * scale
    assert res.residuals.max() <= RESIDUAL_BOUND
    gram = weight * res.eigenvectors.conj().T @ res.eigenvectors
    assert np.max(np.abs(gram - np.eye(hi - lo + 1))) <= 1e-10

    window = eigh_tridiagonal(a, select=(lo, hi)).eigenvalues
    assert np.max(np.abs(window - oracle[lo : hi + 1])) <= 1e-12 * scale
    full = eigh_tridiagonal(a).eigenvalues
    assert np.max(np.abs(full - oracle)) <= 1e-12 * scale
    # Sturm counts in every resolvable gap and beyond both ends of the spectrum
    gaps = np.flatnonzero(np.diff(full) > 1e-12 * scale)
    sigmas = np.concatenate(([full[0] - 1.0 - scale], 0.5 * (full[gaps] + full[gaps + 1]), [full[-1] + 1.0 + scale]))
    for sigma in sigmas:
        assert sturm_count(a, sigma) == int(np.sum(full < sigma))
