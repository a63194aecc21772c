import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pibox import (
    LatticeGrid,
    MomentumExtension,
    PhysicalConfig,
    RobinParams,
    RootScanError,
    build_hamiltonian,
    build_p_r,
    eigh_tridiagonal,
    solve_energy_continuum,
    solve_energy_lattice,
    solve_momentum_continuum,
    solve_momentum_lattice,
)
from pibox.quantization import (
    _bisect,
    _energy_continuum_rhs,
    _energy_lattice_rhs,
    _momentum_continuum_rhs,
    _momentum_lattice_rhs,
    _phase_roots,
)

# two boundary-bound roots for gamma = -5 on both walls, L = 1
# (roots of exp(-k)(k+5) = -+(k-5), frozen at high precision)
KAPPA_HI = 5.063628083636587
KAPPA_LO = 4.928119358173284


def test_dirichlet_energy_levels(cfg):
    roots = solve_energy_continuum(cfg, RobinParams.dirichlet(), k_max=11 * math.pi)
    for l in range(1, 11):
        idx = list(roots.labels).index(l)
        target = math.pi**2 * l**2 / 2.0
        assert abs(roots.energies[idx] - target) <= 1e-12 * target
        assert roots.real_roots[idx] == pytest.approx(math.pi * l, abs=1e-12)


def test_neumann_energy_levels(cfg):
    roots = solve_energy_continuum(cfg, RobinParams.neumann(), k_max=6 * math.pi)
    assert roots.real_roots[0] == 0.0 and roots.energies[0] == 0.0
    assert roots.labels[0] == 0
    assert np.allclose(roots.real_roots[1:], math.pi * np.arange(1, roots.real_roots.size), atol=1e-12)


def test_energy_residuals_at_roots(cfg):
    for robin in (RobinParams(2.0, 2.0), RobinParams(0.7, -0.3), RobinParams.dirichlet()):
        roots = solve_energy_continuum(cfg, robin, k_max=8 * math.pi)
        assert roots.residuals.max() <= 1e-10


def test_root_monotonicity_and_no_duplicates(cfg):
    roots = solve_energy_continuum(cfg, RobinParams(5.0, -0.5), k_max=20 * math.pi)
    gaps = np.diff(roots.real_roots)
    assert np.all(gaps > 1e-12)


def test_empty_scan_reports_resolution(cfg):
    with pytest.raises(RootScanError, match="resolution"):
        solve_energy_continuum(cfg, RobinParams(2.0, 2.0), k_max=0.1 * math.pi)


def test_phase_cancellation_of_opposite_couplings(cfg):
    # gamma+ = -gamma-: the wall phases cancel and the spectrum is the
    # free-end one, plus a single bound level at kappa = |gamma|
    roots = solve_energy_continuum(cfg, RobinParams(5.0, -5.0), k_max=4 * math.pi)
    assert np.allclose(roots.real_roots, math.pi * np.arange(1, roots.real_roots.size + 1),
                       atol=1e-10)
    assert roots.bound_roots.size == 1
    assert roots.bound_roots[0] == pytest.approx(5.0, abs=1e-10)


@pytest.mark.parametrize("gp, gm", [(1e-7, -1e-7), (-1e-7, 1e-7), (1e-9, -1e-9), (-1e-9, 1e-9)])
def test_tiny_opposite_couplings_bind_one_level(cfg, gp, gm):
    # D = -g^2 L is tiny but not a zero mode: exp(g- x) binds at kappa = |g|
    roots = solve_energy_continuum(cfg, RobinParams(gp, gm), k_max=4 * math.pi)
    assert roots.bound_roots.size == 1
    assert roots.bound_roots[0] == pytest.approx(abs(gp), rel=1e-12, abs=0)
    assert roots.real_roots[0] > 0.0  # no zero mode


@pytest.mark.parametrize("gp, gm", [(1e-20, 1e-20), (1e-20, 0.0), (0.0, 1e-20), (1e-15, 1e-15)])
def test_tiny_same_sign_couplings_keep_the_ground_level(cfg, gp, gm):
    # D = g+ g- L + g+ + g- > 0 puts the ground level at k ~ sqrt(D/L); where that is
    # below the scan floor 1e-9 pi/L it is the k = 0 level, and above it a root, never both
    free = solve_energy_continuum(cfg, RobinParams.neumann(), k_max=4 * math.pi)
    roots = solve_energy_continuum(cfg, RobinParams(gp, gm), k_max=4 * math.pi)
    assert roots.bound_roots.size == 0 and list(roots.labels) == list(free.labels)
    assert roots.real_roots[0] == pytest.approx(math.sqrt(gp + gm), rel=1e-6, abs=1e-9)
    assert roots.energies[0] == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(roots.real_roots[1:], free.real_roots[1:], rtol=1e-12)


@pytest.mark.parametrize("gp, gm, ground", [(1e-20, 1e-20, True), (1e-15, 1e-15, True),
                                            (1e-7, -1e-7, False), (-1e-9, 1e-9, False)])
def test_lattice_ground_level_of_tiny_couplings(cfg, gp, gm, ground):
    # couplings of one sign keep a ground level near E = 0, reported once; couplings
    # of opposite sign bind it, and a bound level is not a real root
    grid = LatticeGrid(99, 1.0)
    roots = solve_energy_lattice(grid, cfg, RobinParams(gp, gm))
    free = solve_energy_lattice(grid, cfg, RobinParams.neumann())
    assert roots.real_roots.size == free.real_roots.size - (not ground)
    assert not ground or roots.energies[0] <= 1e-14
    np.testing.assert_allclose(roots.energies[ground:], free.energies[1:], rtol=1e-6)


@pytest.mark.parametrize("gp, gm", [(-5.0, -5.0), (3.0, -7.0), (1e-7, -1e-7), (0.3, 50.0), (0.0, 0.0)])
def test_lattice_labels_count_the_bound_levels_like_the_continuum(cfg, gp, gm):
    robin = RobinParams(gp, gm)
    latt = solve_energy_lattice(LatticeGrid(99, 1.0), cfg, robin)
    cont = solve_energy_continuum(cfg, robin, k_max=4 * math.pi)
    assert latt.labels[0] == cont.labels[0]
    assert np.array_equal(latt.labels, np.arange(latt.labels[0], latt.labels[0] + latt.labels.size))


def test_bound_states_for_attractive_walls(cfg):
    roots = solve_energy_continuum(cfg, RobinParams(-5.0, -5.0), k_max=4 * math.pi)
    assert roots.bound_roots.size == 2
    # stored descending kappa = ascending energy
    assert roots.bound_roots[0] == pytest.approx(KAPPA_HI, abs=1e-9)
    assert roots.bound_roots[1] == pytest.approx(KAPPA_LO, abs=1e-9)
    assert np.allclose(roots.bound_energies, [-KAPPA_HI**2 / 2, -KAPPA_LO**2 / 2], atol=1e-8)
    # real labels continue after the two bound levels
    assert roots.labels[0] == 2


def test_bound_states_against_lattice_oracle(cfg):
    roots = solve_energy_continuum(cfg, RobinParams(-5.0, -5.0), k_max=2 * math.pi)
    h = build_hamiltonian(LatticeGrid(2001, 1.0), cfg, RobinParams(-5.0, -5.0), boundary="folded")
    low = eigh_tridiagonal(h, select=(0, 1)).eigenvalues
    rel = np.abs(np.sort(roots.bound_energies) - low) / np.abs(low)
    assert rel.max() <= 1e-4


def test_no_bound_states_for_repulsive_walls(cfg):
    roots = solve_energy_continuum(cfg, RobinParams(3.0, 0.5), k_max=4 * math.pi)
    assert roots.bound_roots.size == 0


def test_single_attractive_wall_has_one_bound_state(cfg):
    roots = solve_energy_continuum(cfg, RobinParams(-4.0, 1.0), k_max=4 * math.pi)
    assert roots.bound_roots.size == 1


def test_lattice_energy_matches_eigensolver(cfg, robin2):
    grid = LatticeGrid(99, 1.0)
    roots = solve_energy_lattice(grid, cfg, robin2)
    assert roots.real_roots.size == 99
    eig = eigh_tridiagonal(build_hamiltonian(grid, cfg, robin2)).eigenvalues
    assert np.max(np.abs(np.sort(roots.energies) - eig)) <= 1e-9
    assert roots.residuals.max() <= 1e-10


def test_lattice_energy_neumann_roots(cfg):
    grid = LatticeGrid(99, 1.0)
    roots = solve_energy_lattice(grid, cfg, RobinParams(0.0, 0.0))
    assert roots.residuals.max() <= 1e-10
    # free corners quantize at exactly pi*l/L (including the zero mode)
    assert np.allclose(roots.real_roots, math.pi * np.arange(roots.real_roots.size), atol=1e-10)


def test_lattice_energy_continuum_limit(cfg, robin2):
    # the lattice condition deviates from the continuum one at O(a), so
    # the 1e-4 agreement window needs a span of ~1e4 sites
    cont = solve_energy_continuum(cfg, robin2, k_max=12 * math.pi)
    m = 8
    prev = None
    for n_sites in (999, 9999):
        latt = solve_energy_lattice(LatticeGrid(n_sites, 1.0), cfg, robin2)
        rel = np.abs(latt.energies[:m] - cont.energies[:m]) / cont.energies[:m]
        if prev is not None:
            assert np.all(rel < prev)  # errors shrink with the spacing
        prev = rel
    assert rel.max() <= 1e-4


@pytest.mark.parametrize("n_sites, gamma", [(5, 10.0), (3, 6.0)])
def test_lattice_energy_level_on_the_zone_edge_is_a_scan_error(cfg, n_sites, gamma):
    # gamma = 2/a on both walls puts a level of H exactly at the band top,
    # k = pi/a, which the open scan window leaves out
    with pytest.raises(RootScanError, match="zone edge"):
        solve_energy_lattice(LatticeGrid(n_sites, 1.0), cfg, RobinParams(gamma, gamma))


@pytest.mark.parametrize("n_sites, gp, gm, n_roots", [
    # the top level of H lies 7e-11 of the band top above it: no real root
    (759, 1518.000161756964, 1518.0000003146224, 758),
    # D = -4e-9: a bound state 5e-16 of the band top below E = 0
    (67, 1655.1445485704744, -1.014529272867658, 65),
])
def test_lattice_energy_count_check_spares_levels_just_outside_the_band(cfg, n_sites, gp, gm, n_roots):
    roots = solve_energy_lattice(LatticeGrid(n_sites, 1.0), cfg, RobinParams(gp, gm))
    assert roots.real_roots.size == n_roots


def test_lattice_energy_rejects_hard_walls(cfg):
    with pytest.raises(ValueError):
        solve_energy_lattice(LatticeGrid(9, 1.0), cfg, RobinParams.dirichlet())


def test_momentum_continuum_equal_parameters(cfg):
    for ell in (-1.0, 0.4, 1.0):
        roots = solve_momentum_continuum(cfg, MomentumExtension(ell, ell), k_max=5 * math.pi)
        expected = math.pi * roots.labels
        assert np.max(np.abs(roots.real_roots - expected)) < 1e-12


def test_momentum_continuum_mixed_parameters(cfg):
    roots = solve_momentum_continuum(cfg, MomentumExtension(1.0, 0.0), k_max=5 * math.pi)
    # right-hand side is (1+i)/(1-i) = i; roots at (pi/2 + 2 pi n)/(2 L)
    expected = (math.pi / 2 + 2 * math.pi * roots.labels) / 2.0
    assert np.max(np.abs(roots.real_roots - expected)) < 1e-12
    for k in roots.real_roots:
        assert abs(np.exp(2j * k) - 1j) <= 1e-12


def test_momentum_window_is_half_open(cfg):
    k_max = 2 * math.pi
    roots = solve_momentum_continuum(cfg, MomentumExtension(0.0, 0.0), k_max=k_max)
    assert roots.real_roots.min() > -k_max
    assert roots.real_roots.max() <= k_max
    assert np.array_equal(roots.labels, np.arange(-1, 3))


def test_momentum_lattice_equal_i(cfg, ext_i, grid9):
    roots = solve_momentum_lattice(grid9, ext_i)
    assert np.array_equal(roots.labels, np.arange(-4, 5))
    assert np.max(np.abs(roots.real_roots - math.pi * roots.labels)) < 1e-12
    assert roots.residuals.max() <= 1e-10


@pytest.mark.parametrize("n_sites", [9, 99])
@pytest.mark.parametrize("ells", [(1.0, 1.0), (-1.0, -1.0), (0.5, -0.3)])
def test_momentum_lattice_matches_eigensolver(cfg, n_sites, ells):
    grid = LatticeGrid(n_sites, 1.0)
    ext = MomentumExtension(*ells)
    roots = solve_momentum_lattice(grid, ext)
    assert roots.real_roots.size == n_sites
    eig = eigh_tridiagonal(build_p_r(grid, ext)).eigenvalues
    assert np.max(np.abs(np.sort(roots.k_hat) - eig)) <= 1e-10


def test_momentum_lattice_approaches_continuum(cfg):
    ext = MomentumExtension(1.0, 0.0)
    cont = solve_momentum_continuum(cfg, ext, k_max=3 * math.pi)
    k1 = cont.real_roots[list(cont.labels).index(1)]
    errors = []
    for n_sites in (27, 81, 243):
        latt = solve_momentum_lattice(LatticeGrid(n_sites, 1.0), ext)
        k_hat = latt.k_hat[list(latt.labels).index(1)]
        errors.append(abs(k_hat - k1))
    assert errors[0] > errors[1] > errors[2]
    order = np.polyfit(np.log([1 / 27, 1 / 81, 1 / 243]), np.log(errors), 1)[0]
    assert order >= 1.0


def test_momentum_lattice_root_count_failure(cfg, grid9):
    with pytest.raises(RootScanError):
        solve_momentum_lattice(grid9, MomentumExtension(3.0, 3.0))


def test_unimodularity_guard(cfg):
    # purely imaginary extensions always give a unimodular right side;
    # the guard is exercised through the public solver
    roots = solve_momentum_continuum(cfg, MomentumExtension(7.0, -2.0), k_max=2 * math.pi)
    assert roots.residuals.max() <= 1e-10


# ---------------------------------------------------------------------------
# the vectorized bisection against scalar bisection, bracket by bracket
# ---------------------------------------------------------------------------

def scalar_bisect(f, a, b, fa, fb, xtol=1e-13):
    """Reference: plain bisection of one bracket, to |b - a| <= xtol."""
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise RootScanError(f"lost bracket on [{a}, {b}]")
    while b - a > xtol:
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def scalar_phase_roots(phase, k_grid):
    """Reference: one scalar bisection per (grid cell, level) bracket."""
    values = phase(k_grid)
    two_pi = 2.0 * math.pi
    lo_lvl = np.ceil(np.minimum(values[:-1], values[1:]) / two_pi - 1e-12)
    hi_lvl = np.floor(np.maximum(values[:-1], values[1:]) / two_pi + 1e-12)
    roots, labels = [], []
    for i in np.nonzero(hi_lvl >= lo_lvl)[0]:
        for n in range(int(lo_lvl[i]), int(hi_lvl[i]) + 1):
            target = two_pi * n
            ga, gb = values[i] - target, values[i + 1] - target
            if ga * gb > 0:
                continue
            roots.append(scalar_bisect(lambda x: phase(np.asarray([x]))[0] - target,
                                       k_grid[i], k_grid[i + 1], ga, gb))
            labels.append(n)
    return np.asarray(roots), np.asarray(labels, dtype=int)


def test_bisection_matches_scalar_reference_bit_for_bit():
    # roots at an endpoint (exact zero there), at the first midpoint and at
    # a later dyadic midpoint (exact zero collapse), and off the dyadics
    cs = np.array([0.0, 1.0, 0.5, 0.375, 1.0 / 3.0, 0.1, math.pi / 4.0, 1.0 - 2.0**-40])
    a, b = np.zeros(cs.size), np.ones(cs.size)
    got = _bisect(lambda m, sel: m - cs[sel], a, b, a - cs, b - cs)
    want = [scalar_bisect(lambda x: x - c, 0.0, 1.0, -c, 1.0 - c) for c in cs]
    assert np.array_equal(got, want)
    assert got[0] == 0.0 and got[1] == 1.0 and got[2] == 0.5 and got[3] == 0.375


def test_bisection_rejects_a_bracket_without_sign_change():
    with pytest.raises(RootScanError, match="lost bracket"):
        _bisect(lambda m, sel: m, [1.0], [2.0], [1.0], [2.0])


def momentum_phase(n_sites, ell_p, ell_m):
    grid = LatticeGrid(n_sites, 1.0)
    a, L = grid.spacing, grid.box_length

    def phase(k):
        ka = k * a
        return (2.0 * k * (L - a) + 2.0 * np.arctan2(np.sin(ka) - ell_p, np.cos(ka))
                + 2.0 * np.arctan2(np.sin(ka) + ell_m, np.cos(ka)))

    edge = 0.5 * math.pi / a
    return phase, np.linspace(-edge * (1 - 1e-9), edge * (1 - 1e-9), 40 * n_sites + 1)


ells = st.floats(-0.99, 0.99, allow_nan=False)
odd_sizes = st.integers(1, 150).map(lambda j: 2 * j + 1)


@settings(max_examples=60, deadline=None)
@given(n_sites=st.integers(1, 50).map(lambda j: 2 * j + 1), ell_p=ells, ell_m=ells)
def test_phase_roots_match_scalar_reference_bit_for_bit(n_sites, ell_p, ell_m):
    phase, k_grid = momentum_phase(n_sites, ell_p, ell_m)
    roots, labels = _phase_roots(phase, k_grid)
    ref_roots, ref_labels = scalar_phase_roots(phase, k_grid)
    assert np.array_equal(roots, ref_roots)
    assert np.array_equal(labels, ref_labels)


def test_phase_roots_exact_zero_at_a_grid_point():
    # ell = 1: k = 0 is a root on the grid itself, label 0
    phase, k_grid = momentum_phase(9, 1.0, 1.0)
    k_grid = np.concatenate([k_grid, [0.0]])
    k_grid.sort()
    roots, labels = _phase_roots(phase, k_grid)
    ref_roots, ref_labels = scalar_phase_roots(phase, k_grid)
    assert np.array_equal(roots, ref_roots) and np.array_equal(labels, ref_labels)
    assert 0.0 in roots


# ---------------------------------------------------------------------------
# properties over random parameters
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(n_sites=odd_sizes, ell_p=ells, ell_m=ells)
# levels near the zone edge |k| = pi/(2a)
@example(n_sites=301, ell_p=0.99, ell_m=-0.99)
@example(n_sites=3, ell_p=0.99, ell_m=0.5)
def test_momentum_lattice_has_n_roots_matching_eigenvalues(n_sites, ell_p, ell_m):
    grid = LatticeGrid(n_sites, 1.0)
    ext = MomentumExtension(ell_p, ell_m)
    roots = solve_momentum_lattice(grid, ext)
    assert roots.real_roots.size == n_sites
    assert np.unique(roots.labels).size == n_sites
    eig = eigh_tridiagonal(build_p_r(grid, ext)).eigenvalues
    assert np.max(np.abs(np.sort(roots.k_hat) - eig)) <= 1e-10 / grid.spacing


finite_couplings = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-2.0, 2.0)).map(
    lambda t: t[0] * 10.0 ** t[1])


@settings(max_examples=60, deadline=None)
@given(n_sites=odd_sizes, gp=finite_couplings, gm=finite_couplings,
       length=st.floats(0.5, 2.0))
# the ground level returns to the phase level of k = 0 inside the first scan cell
@example(n_sites=3, gp=-0.01, gm=0.03162277660168379, length=1.0)
# zero modes follow the lattice condition (corner sites L - a apart): none here ...
@example(n_sites=3, gp=-1.0, gm=-1.0, length=2.0)
# ... and one here
@example(n_sites=3, gp=-1.0, gm=-1.0, length=3.0)
# levels near the zone edge k = pi/a: one wall at gamma a = 2, and strong
# or equal couplings
@example(n_sites=51, gp=102.0, gm=3.0, length=1.0)
@example(n_sites=301, gp=602.0, gm=-0.5, length=1.0)
@example(n_sites=9, gp=1e4, gm=-1e4, length=1.0)
@example(n_sites=99, gp=99.0, gm=99.0, length=1.0)
def test_lattice_energy_roots_are_the_in_band_eigenvalues(n_sites, gp, gm, length):
    cfg = PhysicalConfig(1.0, length)
    grid = LatticeGrid(n_sites, length)
    # keep clear of the folded singularity gamma = -2/a
    assume(min(abs(g + 2.0 / grid.spacing) for g in (gp, gm)) > 1e-3 / grid.spacing)
    robin = RobinParams(gp, gm)
    roots = solve_energy_lattice(grid, cfg, robin)
    eig = eigh_tridiagonal(build_hamiltonian(grid, cfg, robin)).eigenvalues
    band_top = (2.0 / grid.spacing) ** 2 / (2.0 * cfg.mass)
    # an exact zero mode may come out of the eigensolver at -1e-16
    in_band = eig[(eig >= -1e-12 * band_top) & (eig <= band_top)]
    scale = np.maximum(1.0, np.abs(in_band))
    assert roots.energies.size == in_band.size
    assert np.max(np.abs(np.sort(roots.energies) - in_band) / scale, initial=0.0) <= 1e-9


def analytic_bound_count(gp, gm, length):
    """Bound states of Robin walls: at most one per attractive wall."""
    finite = [g for g in (gp, gm) if not math.isinf(g)]
    attractive = sum(g < 0 for g in finite)
    if len(finite) < 2:
        return int(attractive == 1 and finite[0] * length < -1.0)
    d = gp * gm * length + gp + gm
    if attractive == 2 and d > 0:
        return 2
    if attractive == 1 and d < 0:
        return 1
    return max(attractive - 1, 0)


couplings = st.one_of(finite_couplings.filter(lambda g: abs(g) <= 20.0), st.just(math.inf))


@settings(max_examples=60, deadline=None)
@given(gp=couplings, gm=couplings, length=st.floats(0.5, 2.0))
@example(gp=math.inf, gm=-1.0, length=1.0)  # threshold: a zero mode, no bound state
@example(gp=-2.0, gm=-2.0, length=1.0)  # D = 0: one bound state and a zero mode
def test_bound_states_count_and_match_the_lattice(gp, gm, length):
    cfg = PhysicalConfig(1.0, length)
    robin = RobinParams(gp, gm)
    expected = analytic_bound_count(gp, gm, length)
    roots = solve_energy_continuum(cfg, robin, k_max=2.0 * math.pi / length)
    assert roots.bound_roots.size == expected
    assert np.all(np.diff(roots.bound_roots) <= 0.0)
    if not expected:
        return
    h = build_hamiltonian(LatticeGrid(2001, length), cfg, robin, boundary="folded")
    low = eigh_tridiagonal(h, select=(0, expected - 1)).eigenvalues
    bound = np.sort(roots.bound_energies)
    assert np.max(np.abs(bound - low) / np.maximum(1.0, np.abs(low))) <= 1e-4


# ---------------------------------------------------------------------------
# bound-state regressions
# ---------------------------------------------------------------------------

def test_weak_attractive_walls_bind_one_state(cfg):
    # the even state cosh(kappa x) binds with kappa tanh(kappa L/2) = |gamma|
    roots = solve_energy_continuum(cfg, RobinParams(-0.01, -0.01), k_max=2 * math.pi)
    assert roots.bound_roots.size == 1
    kappa = roots.bound_roots[0]
    assert kappa * math.tanh(kappa / 2) == pytest.approx(0.01, abs=1e-14)
    assert roots.bound_energies[0] == pytest.approx(-0.01002, abs=1e-5)
    assert roots.labels[0] == 1


def test_hard_wall_beside_an_attractive_wall_binds_one_state(cfg):
    # sinh(kappa (L/2 - x)) meets the Robin wall when kappa coth(kappa L) = |gamma|
    for robin in (RobinParams(math.inf, -5.0), RobinParams(-5.0, math.inf)):
        roots = solve_energy_continuum(cfg, robin, k_max=2 * math.pi)
        assert roots.bound_roots.size == 1
        kappa = roots.bound_roots[0]
        assert kappa / math.tanh(kappa) == pytest.approx(5.0, abs=1e-12)
        h = build_hamiltonian(LatticeGrid(2001, 1.0), cfg, robin)
        assert eigh_tridiagonal(h, select=(0, 0)).eigenvalues[0] == pytest.approx(-12.47, abs=0.01)
    # gamma L = -1 is the threshold: no bound state at or above it
    roots = solve_energy_continuum(cfg, RobinParams(math.inf, -1.0), k_max=2 * math.pi)
    assert roots.bound_roots.size == 0


def test_equal_strong_couplings_give_a_degenerate_pair(cfg):
    # the two levels split by ~ 4 |gamma| exp(-|gamma| L), far below the
    # float spacing at kappa = |gamma|
    roots = solve_energy_continuum(cfg, RobinParams(-1000.0, -1000.0), k_max=2 * math.pi)
    assert np.array_equal(roots.bound_roots, [1000.0, 1000.0])
    assert roots.labels[0] == 2


def test_bound_scan_memory_does_not_grow_with_the_coupling(cfg):
    tracemalloc.start()
    try:
        roots = solve_energy_continuum(cfg, RobinParams(-1e4, -1e4 + 1), k_max=2 * math.pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(roots.bound_roots, [1e4, 1e4 - 1])
    assert peak < 2_000_000


@settings(max_examples=40, deadline=None)
@given(n_sites=st.integers(2, 100).map(lambda j: 2 * j + 1), gp=st.floats(0.1, 100.0),
       gm=st.floats(0.1, 100.0), ell_p=ells, ell_m=ells)
def test_vectorized_residuals_match_the_per_root_reference(n_sites, gp, gm, ell_p, ell_m):
    # the per-root cmath forms the array expressions replaced; np.exp and the
    # array arithmetic may round differently, by a few ulps of the unit modulus
    cfg, grid = PhysicalConfig(1.0, 1.3), LatticeGrid(n_sites, 1.3)
    robin, ext = RobinParams(gp, gm), MomentumExtension(ell_p, ell_m)
    L, a = grid.box_length, grid.spacing
    cases = [
        (solve_energy_continuum(cfg, robin, k_max=40.0),
         lambda k: abs(cmath.exp(2j * k * L) - _energy_continuum_rhs(k, robin))),
        (solve_energy_lattice(grid, cfg, robin),
         lambda k: abs(cmath.exp(2j * k * (L - a)) - complex(_energy_lattice_rhs(k, grid, cfg, robin)))),
        (solve_momentum_continuum(cfg, ext),
         lambda k: abs(cmath.exp(2j * k * L) - _momentum_continuum_rhs(ext))),
        (solve_momentum_lattice(grid, ext),
         lambda k: abs(cmath.exp(2j * k * L) - complex(_momentum_lattice_rhs(k, grid, ext)))),
    ]
    for roots, reference in cases:
        want = [reference(k) for k in roots.real_roots]  # positive couplings: no zero mode
        assert np.allclose(roots.residuals, want, rtol=0.0, atol=2.0 * np.finfo(float).eps)
