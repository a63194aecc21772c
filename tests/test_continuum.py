import math

import numpy as np
import pytest

from pibox import (
    GeneralBCParams,
    LatticeGrid,
    MomentumExtension,
    PhysicalConfig,
    RobinParams,
    TwoComponentWavefunction,
    apply_p_r,
    build_doubled_hamiltonian_lattice,
    build_hamiltonian,
    eigh_tridiagonal,
    energy_eigenstate,
    momentum_bc_residual,
    momentum_eigenstate,
    probability_current,
    project,
    sample_two_component_on_grid,
    shift_commutator_residual,
    shift_operator,
    solve_energy_continuum,
    solve_momentum_continuum,
    validate_general_bc,
)
from pibox.continuum import ScalarWavefunction


def random_state(cfg, rng, n=65):
    xs = np.linspace(-cfg.box_length / 2, cfg.box_length / 2, n)
    return xs, TwoComponentWavefunction.from_arrays(
        xs,
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
        cfg,
    )


# ---------------------------------------------------------------------------
# momentum eigenstates
# ---------------------------------------------------------------------------

def test_sigma_closed_form(cfg, ext_i):
    state = momentum_eigenstate(cfg, ext_i, math.pi, 1)
    assert state.sigma == pytest.approx(-1j)
    for ell in (-3.0, 0.2, 7.0):
        st = momentum_eigenstate(cfg, MomentumExtension(ell, ell), 0.0, 0)
        assert abs(abs(st.sigma) - 1.0) <= 1e-15


def test_parity_reflection_negates_momentum(cfg, ext_i):
    # psi(x) -> psi(-x) maps the eigenstate at k onto the one at -k
    for n in (1, 2, 3):
        phi = momentum_eigenstate(cfg, ext_i, math.pi * n, n).wavefunction()
        mirror = momentum_eigenstate(cfg, ext_i, -math.pi * n, -n).wavefunction()
        x = np.linspace(-0.5, 0.5, 41)
        assert np.max(np.abs(phi.psi_e(-x) - mirror.psi_e(x))) <= 1e-13
        assert np.max(np.abs(phi.psi_o(-x) - mirror.psi_o(x))) <= 1e-13


def test_momentum_eigenstate_is_pointwise_eigenfunction(cfg, ext_i):
    state = momentum_eigenstate(cfg, ext_i, math.pi, 1)
    phi = state.wavefunction()
    applied = apply_p_r(phi)
    x = np.linspace(-0.5, 0.5, 101)
    assert np.max(np.abs(applied.psi_e(x) - math.pi * phi.psi_e(x))) <= 1e-12
    assert np.max(np.abs(applied.psi_o(x) - math.pi * phi.psi_o(x))) <= 1e-12
    assert phi.norm() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("label", [-2, -1, 0, 1, 2, 3])
def test_momentum_boundary_conditions(cfg, ext_i, label):
    k = math.pi * label
    phi = momentum_eigenstate(cfg, ext_i, k, label).wavefunction()
    res = momentum_bc_residual(phi, ext_i)
    assert max(res) <= 1e-12


def test_symmetric_sector_projection_is_plane_wave(cfg, ext_i):
    for label in (1, 2):
        phi = momentum_eigenstate(cfg, ext_i, math.pi * label, label).wavefunction()
        plus = project(phi, +1)
        x = np.linspace(-0.5, 0.5, 61)
        expected = np.exp(1j * math.pi * label * x) / (2.0 * math.sqrt(1.0))
        assert np.max(np.abs(plus.psi_e(x) - expected)) <= 1e-13
        assert np.max(np.abs(plus.psi_o(x) - expected)) <= 1e-13


def test_general_extension_eigenstate(cfg):
    ext = MomentumExtension(1.0, 0.0)
    roots = solve_momentum_continuum(cfg, ext, k_max=4 * math.pi)
    idx = list(roots.labels).index(1)
    state = momentum_eigenstate(cfg, ext, float(roots.real_roots[idx]), 1)
    phi = state.wavefunction()
    assert max(momentum_bc_residual(phi, ext)) <= 1e-12
    assert phi.norm() == pytest.approx(1.0, abs=1e-10)


def test_non_root_is_rejected(cfg):
    with pytest.raises(ValueError):
        momentum_eigenstate(cfg, MomentumExtension(1.0, 0.0), 1.0, 0)


def test_momentum_eigenstates_orthonormal(cfg, ext_i):
    states = [
        momentum_eigenstate(cfg, ext_i, math.pi * n, n).wavefunction()
        for n in range(-2, 3)
    ]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            assert abs(a.inner(b) - (i == j)) <= 1e-10


# ---------------------------------------------------------------------------
# apply_p_r / currents / projections
# ---------------------------------------------------------------------------

def test_apply_p_r_constant_pair(cfg):
    psi = TwoComponentWavefunction.constant(2.0 + 1j, 2.0 + 1j, cfg)
    out = apply_p_r(psi)
    x = np.linspace(-0.5, 0.5, 21)
    assert np.max(np.abs(out.psi_e(x))) == 0.0
    assert np.max(np.abs(out.psi_o(x))) == 0.0


def test_apply_p_r_plane_pair(cfg):
    k = 3.0
    psi = TwoComponentWavefunction.plane_pair(k, cfg)
    out = apply_p_r(psi)
    x = np.linspace(-0.5, 0.5, 33)
    assert np.max(np.abs(out.psi_e(x) - k * psi.psi_e(x))) <= 1e-12


def test_apply_p_r_sampled_fallback(cfg):
    # no analytic derivative: finite differences at O(h^2)
    k = 2.0 * math.pi
    x = np.linspace(-0.5, 0.5, 4097)
    vals = np.exp(1j * k * x)
    psi = TwoComponentWavefunction.from_arrays(x, vals, vals, cfg)
    out = apply_p_r(psi, num_samples=4097)
    mid = np.linspace(-0.4, 0.4, 101)
    assert np.max(np.abs(out.psi_e(mid) - k * np.exp(1j * k * mid))) <= 1e-4


def test_bc_residual_examples(cfg, ext_i):
    zero = TwoComponentWavefunction.constant(0.0, 0.0, cfg)
    assert momentum_bc_residual(zero, ext_i) == (0.0, 0.0)
    # free-end ground state: (1,1)/sqrt(2L) has residual |1 - i|/sqrt(2L) > 0
    ground = energy_eigenstate(cfg, RobinParams.neumann(), 0).two_component()
    res = momentum_bc_residual(ground, ext_i)
    expected = abs(1 - 1j) / math.sqrt(2.0)
    assert res[0] == pytest.approx(expected, rel=1e-12)
    assert res[1] == pytest.approx(expected, rel=1e-12)


def test_probability_current_examples(cfg):
    real_state = ScalarWavefunction(
        lambda x: np.cos(math.pi * np.asarray(x)),
        lambda x: -math.pi * np.sin(math.pi * np.asarray(x)),
        cfg,
    )
    assert probability_current(real_state, 0.3) == 0.0
    k = 2.5
    plane = ScalarWavefunction(
        lambda x: np.exp(1j * k * np.asarray(x)),
        lambda x: 1j * k * np.exp(1j * k * np.asarray(x)),
        cfg,
    )
    assert probability_current(plane, 0.1) == pytest.approx(k / cfg.mass, rel=1e-14)


def test_current_vanishes_at_walls_for_robin_state(cfg, robin2):
    state = energy_eigenstate(cfg, robin2, 1)
    assert abs(probability_current(state, 0.5)) <= 1e-10
    assert abs(probability_current(state, -0.5)) <= 1e-10


def test_projector_algebra(cfg, rng):
    xs, psi = random_state(cfg, rng)
    plus = project(psi, +1)
    minus = project(psi, -1)
    # idempotent, complementary, orthogonal
    pp = project(plus, +1)
    assert np.max(np.abs(pp.psi_e(xs) - plus.psi_e(xs))) <= 1e-14
    assert np.max(np.abs(project(plus, -1).psi_e(xs))) <= 1e-14
    total_e = plus.psi_e(xs) + minus.psi_e(xs)
    assert np.max(np.abs(total_e - psi.psi_e(xs))) <= 1e-14
    n2 = plus.norm_squared() + minus.norm_squared()
    assert n2 == pytest.approx(psi.norm_squared(), rel=1e-10)


def test_projector_fixed_points(cfg):
    sym = TwoComponentWavefunction.constant(1.0, 1.0, cfg)
    anti = TwoComponentWavefunction.constant(1.0, -1.0, cfg)
    x = np.linspace(-0.5, 0.5, 11)
    assert np.max(np.abs(project(sym, +1).psi_e(x) - sym.psi_e(x))) == 0.0
    assert np.max(np.abs(project(sym, -1).psi_e(x))) == 0.0
    assert np.max(np.abs(project(anti, +1).psi_e(x))) == 0.0


# ---------------------------------------------------------------------------
# energy eigenstates
# ---------------------------------------------------------------------------

def test_dirichlet_eigenstate_forms(cfg):
    odd = energy_eigenstate(cfg, RobinParams.dirichlet(), 1)
    even = energy_eigenstate(cfg, RobinParams.dirichlet(), 2)
    assert odd.kind == "dirichlet_cos" and even.kind == "dirichlet_sin"
    x = np.linspace(-0.5, 0.5, 41)
    assert np.allclose(odd.value(x), math.sqrt(2.0) * np.cos(math.pi * x), atol=1e-14)
    assert np.allclose(even.value(x), math.sqrt(2.0) * np.sin(2 * math.pi * x), atol=1e-13)
    assert max(odd.bc_residual()) <= 1e-12
    assert max(even.bc_residual()) <= 1e-12


def test_robin_eigenstate_residual_and_norm(cfg, robin2):
    for level in (0, 1, 2):
        state = energy_eigenstate(cfg, robin2, level)
        assert max(state.bc_residual()) <= 1e-10
        assert state.two_component().norm() == pytest.approx(1.0, abs=1e-10)
        roots = solve_energy_continuum(cfg, robin2)
        assert state.E == pytest.approx(roots.energies[level], rel=1e-12)


@pytest.mark.parametrize("couplings, level", [
    ((-2.0, -2.0), 1),  # D = g+ g- L + g+ + g- = 0: bound level 0, zero mode 1
    ((math.inf, -1.0), 0),  # hard wall beside gamma L = -1
    ((-1.0, math.inf), 0),
])
def test_linear_zero_modes_have_no_two_exponential_state(cfg, couplings, level):
    robin = RobinParams(*couplings)
    roots = solve_energy_continuum(cfg, robin)
    assert roots.real_roots[list(roots.labels).index(level)] == 0.0
    with pytest.raises(ValueError, match="no two-exponential form"):
        energy_eigenstate(cfg, robin, level)


def test_neumann_zero_mode_is_the_constant(cfg):
    state = energy_eigenstate(cfg, RobinParams.neumann(), 0)
    assert state.kind == "neumann" and state.bc_residual() == (0.0, 0.0)


@pytest.mark.parametrize("length", [1.0, 0.7, 2.2611424348480433])
def test_neumann_zero_mode_needs_no_root_scan(monkeypatch, length):
    import pibox.continuum

    def no_scan(*args, **kwargs):
        raise AssertionError("the free-end ground state ran the root scan")

    monkeypatch.setattr(pibox.continuum, "solve_energy_continuum", no_scan)
    state = energy_eigenstate(PhysicalConfig(1.0, length), RobinParams.neumann(), 0)
    assert (state.l, state.kind, state.E, state.k) == (0, "neumann", 0.0, 0.0)
    assert state.coefficient_a == state.coefficient_b == 0.5 / math.sqrt(length)
    with pytest.raises(AssertionError, match="root scan"):  # every other level still scans
        energy_eigenstate(PhysicalConfig(1.0, length), RobinParams.neumann(), 1)


@pytest.mark.parametrize("couplings", [(3.0, math.inf), (math.inf, 3.0), (1e-12, math.inf)])
def test_one_hard_wall_eigenstates(cfg, couplings):
    for level in (0, 1, 2):
        state = energy_eigenstate(cfg, RobinParams(*couplings), level)
        assert max(state.bc_residual()) <= 1e-10
        assert state.two_component().norm() == pytest.approx(1.0, abs=1e-10)


def test_domain_incompatibility_witness(cfg, robin2, ext_i):
    # momentum eigenstates violate the Hamiltonian domain ...
    phi = momentum_eigenstate(cfg, ext_i, math.pi, 1).wavefunction()
    plus = project(phi, +1)
    gamma = robin2.gamma_plus
    robin_residual = abs(
        gamma * complex(plus.psi_e(0.5)) + complex(plus.d_psi_e(0.5))
    )
    minus_at_wall = abs(complex(project(phi, -1).psi_e(0.5)))
    assert robin_residual > 1e-3
    assert minus_at_wall > 1e-3
    # ... and energy eigenstates violate the momentum domain
    state = energy_eigenstate(cfg, robin2, 0)
    res = momentum_bc_residual(state.two_component(), ext_i)
    assert min(res) > 1e-3


def test_parity_of_energy_eigenstates(cfg, robin2):
    state = energy_eigenstate(cfg, robin2, 0)
    x = np.linspace(-0.5, 0.5, 31)
    vals = state.value(x)
    assert np.max(np.abs(vals - vals[::-1])) <= 1e-10  # symmetric walls: even ground state


# ---------------------------------------------------------------------------
# shift operators
# ---------------------------------------------------------------------------

def test_shift_operators_at_walls(cfg):
    for sign in (+1, -1):
        op = shift_operator(sign, cfg)
        assert np.allclose(op.matrix_at(0.5), np.eye(2), atol=1e-15)
        assert np.allclose(op.matrix_at(-0.5), -np.eye(2), atol=1e-15)


def test_shift_operators_are_mutually_inverse(cfg, rng):
    xs, psi = random_state(cfg, rng)
    raised = shift_operator(+1, cfg).apply(shift_operator(-1, cfg).apply(psi))
    dense = np.linspace(-0.5, 0.5, 257)
    assert np.max(np.abs(raised.psi_e(dense) - psi.psi_e(dense))) <= 1e-12
    assert np.max(np.abs(raised.psi_o(dense) - psi.psi_o(dense))) <= 1e-12


def test_shift_operator_ladders_momentum(cfg, ext_i):
    # raising a quantized momentum eigenstate lands on the next root
    phi1 = momentum_eigenstate(cfg, ext_i, math.pi, 1).wavefunction()
    phi2 = momentum_eigenstate(cfg, ext_i, 2 * math.pi, 2).wavefunction()
    raised = shift_operator(+1, cfg).apply(phi1)
    overlap = abs(phi2.inner(raised))
    assert overlap == pytest.approx(1.0, abs=1e-10)
    assert max(momentum_bc_residual(raised, ext_i)) <= 1e-12


def test_shift_commutator_lattice_convergence(cfg, ext_i):
    orders = {}
    for sign in (+1, -1):
        resids = [
            shift_commutator_residual(LatticeGrid(n, 1.0), cfg, ext_i, sign)
            for n in (27, 81, 243)
        ]
        assert resids[0] > resids[1] > resids[2]
        fit = np.polyfit(np.log([1 / 27, 1 / 81, 1 / 243]), np.log(resids), 1)[0]
        orders[sign] = fit
    assert min(orders.values()) >= 1.0


# ---------------------------------------------------------------------------
# doubled Hamiltonian
# ---------------------------------------------------------------------------

def test_doubled_hamiltonian_zero_penalty_union(cfg):
    grid = LatticeGrid(99, 1.0)
    h2 = build_doubled_hamiltonian_lattice(grid, cfg, RobinParams(0.0, 0.0), 0.0)
    assert np.max(np.abs(h2 - h2.conj().T)) == 0.0
    spec = np.linalg.eigvalsh(h2)
    neumann = eigh_tridiagonal(build_hamiltonian(grid, cfg, RobinParams(0.0, 0.0))).eigenvalues
    hard = eigh_tridiagonal(build_hamiltonian(grid, cfg, RobinParams.dirichlet())).eigenvalues
    union = np.sort(np.concatenate([neumann, hard]))
    assert np.max(np.abs(spec - union)) <= 1e-9


def test_doubled_hamiltonian_penalty_removes_antisymmetric_sector(cfg, robin2):
    grid = LatticeGrid(99, 1.0)
    mu = 1e6
    h2 = build_doubled_hamiltonian_lattice(grid, cfg, robin2, mu)
    w, v = np.linalg.eigh(h2)
    robin_spec = eigh_tridiagonal(build_hamiltonian(grid, cfg, robin2)).eigenvalues
    rel = np.abs(w[:5] - robin_spec[:5]) / np.abs(robin_spec[:5])
    assert rel.max() <= 1e-6
    assert w[99] >= mu  # the next band sits at the penalty scale
    n = grid.num_sites
    for j in range(5):
        assert np.max(np.abs(v[:n, j] - v[n:, j])) <= 1e-8


def test_doubled_hamiltonian_rejects_negative_penalty(cfg, robin2):
    with pytest.raises(ValueError):
        build_doubled_hamiltonian_lattice(LatticeGrid(9, 1.0), cfg, robin2, -1.0)


# ---------------------------------------------------------------------------
# general boundary family
# ---------------------------------------------------------------------------

def test_general_bc_special_point(cfg):
    params = GeneralBCParams(c_plus=-4.0, c_minus=-4.0)
    result = validate_general_bc(params)
    assert result.passed
    assert result.reduces_to_special
    assert result.gamma_plus == pytest.approx(2.0)
    assert result.gamma_minus == pytest.approx(2.0)


def test_general_bc_determinant_failure():
    params = GeneralBCParams(a_plus=1.0, b_plus=0.0, c_plus=0.0, d_plus=1.0)
    result = validate_general_bc(params)
    assert not result.passed
    assert any("determinant_plus" in v for v in result.violations)


def test_general_bc_generic_self_adjoint_point():
    params = GeneralBCParams(
        a_plus=2.0, b_plus=1.0, c_plus=5.0, d_plus=2.0,
        a_minus=2.0, b_minus=1.0, c_minus=5.0, d_minus=2.0,
    )
    result = validate_general_bc(params)
    assert result.passed  # 2*2 - 1*5 = -1
    assert not result.reduces_to_special
    assert result.gamma_plus is None


def test_two_component_sampling_matches_lattice_eigenvector(cfg, ext_i):
    grid = LatticeGrid(27, 1.0)
    from pibox import build_p_r

    res = eigh_tridiagonal(build_p_r(grid, ext_i), want_vectors=True, weight=grid.spacing)
    phi = momentum_eigenstate(cfg, ext_i, math.pi, 1).wavefunction()
    probe = sample_two_component_on_grid(phi, grid).normalized()
    k_hat = math.sin(math.pi * grid.spacing) / grid.spacing
    idx = int(np.argmin(np.abs(res.eigenvalues - k_hat)))
    overlap = abs(grid.spacing * np.vdot(res.eigenvectors[:, idx], probe.values))
    assert overlap == pytest.approx(1.0, abs=1e-8)
