"""Spectra, momentum quantization and measurement statistics for a
quantum particle strictly confined to a 1-d box.

The package carries two coupled descriptions and the machinery to show
they agree in the continuum limit: a lattice regularization (Hermitian
tridiagonal operators with boundary couplings on the corner entries) and
a two-component continuum formulation in which the momentum admits
self-adjoint extensions.
"""

from .continuum import (
    EnergyEigenstate,
    GeneralBCParams,
    GeneralBCValidation,
    MomentumEigenstate,
    ScalarWavefunction,
    TwoComponentWavefunction,
    apply_p_r,
    build_doubled_hamiltonian_lattice,
    energy_eigenstate,
    momentum_bc_residual,
    momentum_eigenstate,
    probability_current,
    project,
    sample_scalar_on_grid,
    sample_two_component_on_grid,
    shift_commutator_residual,
    shift_operator,
    shift_operator_lattice,
    validate_general_bc,
)
from .convergence import ConvergenceReport, converge_energy, converge_momentum
from .eigensolver import (
    BACKEND,
    ConvergenceError,
    SpectrumResult,
    eigh_tridiagonal,
    phase_reduce,
    sturm_count,
)
from .lattice import (
    ComplexTridiagonal,
    LatticeGrid,
    LatticeWavefunction,
    MomentumExtension,
    PhysicalConfig,
    RobinParams,
    build_hamiltonian,
    build_p,
    build_p_backward,
    build_p_forward,
    build_p_i,
    build_p_r,
    build_parity,
    hermiticity_defect,
)
from .measurement import (
    FourierDensity,
    MomentumDistribution,
    dirichlet_distribution,
    fourier_density,
    general_distribution,
    neumann_ground_distribution,
    p_expectations,
)
from .quantization import (
    RootScanError,
    RootSet,
    solve_energy_continuum,
    solve_energy_lattice,
    solve_momentum_continuum,
    solve_momentum_lattice,
)

__version__ = "0.1.0"
