import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pibox import (
    MomentumExtension,
    PhysicalConfig,
    RobinParams,
    dirichlet_distribution,
    energy_eigenstate,
    fourier_density,
    general_distribution,
    neumann_ground_distribution,
    p_expectations,
)
from pibox.continuum import momentum_eigenstate


def prob(dist, n):
    return float(dist.probability[list(dist.n).index(n)])


def quadrature_probabilities(cfg, ext, state, labels):
    """Reference overlaps |<phi_k|psi>|^2 at k = pi*n/L by quadrature, one
    momentum eigenstate per outcome (the O(cutoff^2) route the closed form
    of ``general_distribution`` replaced)."""
    psi = state.two_component()
    return np.array([
        abs(momentum_eigenstate(cfg, ext, math.pi * n / cfg.box_length, int(n))
            .wavefunction().inner(psi)) ** 2
        for n in labels
    ])


# ---------------------------------------------------------------------------
# closed-form distributions
# ---------------------------------------------------------------------------

def test_dirichlet_level_one(cfg):
    d = dirichlet_distribution(cfg, 1, cutoff_n=100)
    assert prob(d, 1) == 0.25
    assert prob(d, -1) == 0.25
    assert prob(d, 0) == pytest.approx(4.0 / math.pi**2, rel=1e-15)
    # selection rule: n and l of equal parity (other than +-l) are forbidden
    assert prob(d, 3) == 0.0
    assert prob(d, -5) == 0.0
    # opposite parity follows the inverse-square-difference law
    assert prob(d, 2) == pytest.approx((4.0 / math.pi**2) / 9.0, rel=1e-15)


def test_dirichlet_level_two(cfg):
    d = dirichlet_distribution(cfg, 2, cutoff_n=100)
    assert prob(d, 1) == pytest.approx((4.0 / math.pi**2) * 4.0 / 9.0, rel=1e-15)
    assert prob(d, 0) == 0.0  # same parity as l = 2
    assert prob(d, 2) == 0.25


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_dirichlet_normalization_and_uncertainty(cfg, l):
    d = dirichlet_distribution(cfg, l, cutoff_n=10_000)
    assert abs(d.total_mass() - 1.0) <= 1e-6
    assert d.delta_k == math.pi * l  # exact by construction
    # moment route with the analytic remainder reproduces it
    assert d.delta_k_from_moments() == pytest.approx(math.pi * l, abs=1e-10)
    assert abs(d.first_moment()) <= 1e-12


def test_dirichlet_energy_uncertainty_identity(cfg):
    # E_l = (delta k)^2 / 2m, a hard-wall peculiarity
    for l in (1, 2, 3):
        d = dirichlet_distribution(cfg, l, cutoff_n=100)
        assert d.delta_k**2 / (2.0 * cfg.mass) == pytest.approx(
            math.pi**2 * l**2 / 2.0, rel=1e-14
        )


def test_dirichlet_tail_is_positive_and_small(cfg):
    d4 = dirichlet_distribution(cfg, 1, cutoff_n=10_000)
    d2 = dirichlet_distribution(cfg, 1, cutoff_n=100)
    assert 0 < d4.tail_mass < d2.tail_mass < 1e-4
    assert d4.cutoff_n == 10_000
    with pytest.raises(ValueError):
        dirichlet_distribution(cfg, 5, cutoff_n=4)
    with pytest.raises(ValueError):
        dirichlet_distribution(cfg, 0)


@pytest.mark.parametrize("l, exact", [(1, 1.35054390073785e-13), (2, 5.40379661223098e-13)])
def test_dirichlet_tail_at_the_default_cutoff(cfg, l, exact):
    # exact: the Hurwitz-zeta partial-fraction sum in mpmath; the digamma and
    # trigamma remainders cancel here to 3-4 correct digits
    assert dirichlet_distribution(cfg, l).tail_mass == pytest.approx(exact, rel=1e-12, abs=0)


@pytest.mark.parametrize("l", [1, 2, 5, 10, 11, 15, 39])
def test_dirichlet_tail_matches_a_brute_force_sum(cfg, l):
    # l <= 10 takes the zeta power series at cutoff 40, l >= 11 the polygamma form
    cutoff, stop = 40, 2_000_000
    n = np.arange(cutoff + 1 if (cutoff + 1 - l) % 2 else cutoff + 2, stop, 2, dtype=float)
    terms = ((8.0 / math.pi**2) * l**2 / (n**2 - l**2) ** 2).tolist()
    beyond = (8.0 / math.pi**2) * l**2 / (6.0 * (n[-1] + 2.0) ** 3)  # sum of 1/n^4, n >= stop, step 2
    brute = math.fsum(terms) + beyond
    assert dirichlet_distribution(cfg, l, cutoff).tail_mass == pytest.approx(brute, rel=1e-13, abs=0)


def test_neumann_ground_distribution(cfg):
    d = neumann_ground_distribution(cfg, cutoff_n=10_000)
    assert prob(d, 0) == 0.5
    assert prob(d, 1) == pytest.approx(2.0 / math.pi**2, rel=1e-15)
    assert prob(d, -1) == pytest.approx(2.0 / math.pi**2, rel=1e-15)
    assert prob(d, 2) == 0.0
    assert abs(d.total_mass() - 1.0) <= 1e-6
    assert math.isinf(d.delta_k)


def test_neumann_second_moment_diverges(cfg):
    d = neumann_ground_distribution(cfg, cutoff_n=10_000)
    small = d.partial_second_moment(100)
    large = d.partial_second_moment(10_000)
    assert large > 10.0 * small
    # each odd outcome contributes 2/L^2: the partial sum is linear in the window
    assert large == pytest.approx(2.0 * 10_000, rel=1e-10)


# ---------------------------------------------------------------------------
# the one outcome law against the rational laws and an mpmath oracle
# ---------------------------------------------------------------------------

def rational_dirichlet(l, cutoff_n):
    """The hard-wall rational law, in the operation order that the general
    law has to reproduce bit for bit."""
    n = np.arange(-cutoff_n, cutoff_n + 1)
    p = np.zeros(n.size)
    opposite = (n % 2) != (l % 2)
    with np.errstate(divide="ignore"):
        formula = (4.0 / math.pi**2) * l**2 / (l**2 - n.astype(float) ** 2) ** 2
    p[opposite] = formula[opposite]
    p[np.abs(n) == l] = 0.25
    return p


def rational_neumann(cutoff_n):
    n = np.arange(-cutoff_n, cutoff_n + 1)
    p = np.zeros(n.size)
    odd = n % 2 != 0
    p[odd] = 2.0 / (math.pi**2 * n[odd].astype(float) ** 2)
    p[n == 0] = 0.5
    return p


def rational_neumann_tail(cutoff_n):
    """The free-end tail 2 sum 2/(pi^2 n^2) over odd n > cutoff_n, as trigamma."""
    from scipy.special import polygamma

    j_min = cutoff_n + 1 if cutoff_n % 2 == 0 else cutoff_n + 2
    return float(polygamma(1, 0.5 * j_min)) / math.pi**2


LENGTHS = [0.3, 0.7, 1.0, 2.2611424348480433, 3.7]


@pytest.mark.parametrize("length", LENGTHS)
def test_hard_wall_cells_are_the_rational_law_bit_for_bit(length, ext_i):
    cfg = PhysicalConfig(1.0, length)
    for l in range(1, 21):
        state = energy_eigenstate(cfg, RobinParams.dirichlet(), l)
        for cutoff in sorted({l + 1, 300, 10_000}):
            p = dirichlet_distribution(cfg, l, cutoff).probability
            # peaks exactly 1/4, parity-forbidden outcomes exactly +0
            assert np.array_equal(p, rational_dirichlet(l, cutoff)) and not np.signbit(p).any()
            quad = general_distribution(cfg, RobinParams.dirichlet(), ext_i, state, cutoff)
            assert np.array_equal(quad.probability, p)


@pytest.mark.parametrize("length", LENGTHS)
def test_free_end_cells_are_the_rational_law_within_4_ulp(length):
    for cutoff in (1, 2, 7, 300, 10_000):
        p = neumann_ground_distribution(PhysicalConfig(1.0, length), cutoff).probability
        ref = rational_neumann(cutoff)
        assert p[cutoff] == 0.5 and np.array_equal(p == 0.0, ref == 0.0)
        assert np.all(np.abs(p - ref) <= 4 * np.spacing(ref))


@pytest.mark.parametrize("length", [0.7, 1.0, 2.2611424348480433])
@pytest.mark.parametrize("cutoff", [1, 2, 7, 40, 301, 10_000])
def test_free_end_tail_is_the_trigamma_tail(length, cutoff):
    dist = neumann_ground_distribution(PhysicalConfig(1.0, length), cutoff)
    assert dist.tail_mass == pytest.approx(rational_neumann_tail(cutoff), rel=1e-13, abs=0)


def two_sinc_oracle(state, t, L, labels):
    """(L/2)|a sinc(pi(t-n)/2) + b sinc(pi(t+n)/2)|^2 / N^2 in 40-digit mpmath,
    at the float t the code uses (q = pi t / L); sinc(pi u) = sinpi(u)/(pi u)."""
    import mpmath as mp

    with mp.workdps(40):
        a, b, t, L = mp.mpc(state.coefficient_a), mp.mpc(state.coefficient_b), mp.mpf(t), mp.mpf(L)
        sinc = lambda u: mp.mpf(1) if u == 0 else mp.sinpi(u) / (mp.pi * u)  # noqa: E731
        norm2 = L * (abs(a) ** 2 + abs(b) ** 2) + 2 * mp.re(a * mp.conj(b)) * L * sinc(t)
        return [float(L / 2 * abs(a * sinc((t - int(n)) / 2) + b * sinc((t + int(n)) / 2)) ** 2 / norm2)
                for n in labels]


signed_couplings = st.one_of(st.floats(-6.0, 4.0).map(lambda e: 10.0**e),
                             st.floats(-6.0, 1.0).map(lambda e: -(10.0**e)), st.just(math.inf))


@settings(max_examples=60, deadline=None)
@given(gp=signed_couplings, gm=signed_couplings, level=st.integers(0, 6),
       length=st.floats(0.3, 5.0), cutoff=st.integers(8, 400), data=st.data())
def test_outcomes_agree_with_an_mpmath_oracle_to_1e_13(gp, gm, level, length, cutoff, data):
    cfg, robin = PhysicalConfig(1.0, length), RobinParams(gp, gm)
    try:
        state = energy_eigenstate(cfg, robin, level)
    except ValueError:  # a bound level or linear zero mode: no two-exponential state
        assume(False)
    t = state.l if robin.is_dirichlet else state.k * length / math.pi
    assume(t < cutoff + 1)
    dist = general_distribution(cfg, robin, MomentumExtension(), state, cutoff)
    far = data.draw(st.lists(st.integers(-cutoff, cutoff), max_size=20))
    labels = np.unique(np.concatenate([np.arange(-12, 13), np.array(far, dtype=int), [-cutoff, cutoff]]))
    labels = labels[np.abs(labels) <= cutoff]
    got = dist.probability[labels + cutoff]
    ref = np.array(two_sinc_oracle(state, t, length, labels))
    assert np.all(np.abs(got - ref) <= 1e-13 * ref)
    assert abs(dist.total_mass() - 1.0) <= 4e-15


# ---------------------------------------------------------------------------
# general (two-sinc) closed form
# ---------------------------------------------------------------------------

positive_couplings = st.floats(-6.0, 4.0).map(lambda e: 10.0**e)


@settings(max_examples=60, deadline=None)
@given(gp=positive_couplings, gm=positive_couplings, level=st.integers(0, 4),
       ell=st.floats(-5.0, 5.0), ell2=st.floats(-5.0, 5.0), cutoff=st.integers(8, 256),
       length=st.floats(0.5, 2.0))
def test_general_distribution_properties(gp, gm, level, ell, ell2, cutoff, length):
    cfg = PhysicalConfig(1.0, length)
    robin = RobinParams(gp, gm)
    state = energy_eigenstate(cfg, robin, level)
    ext = MomentumExtension(ell, ell)
    dist = general_distribution(cfg, robin, ext, state, cutoff_n=cutoff)
    # against quadrature overlaps: every outcome near the peak and a few far out
    labels = np.unique(np.concatenate([np.arange(-8, 9), [cutoff, cutoff // 2, 1 - cutoff]]))
    quad = quadrature_probabilities(cfg, ext, state, labels)
    assert np.max(np.abs(dist.probability[labels + cutoff] - quad)) <= 1e-12
    assert abs(dist.total_mass() - 1.0) <= 1e-12
    assert abs(dist.first_moment()) <= 1e-12
    other = general_distribution(cfg, robin, MomentumExtension(ell2, ell2), state, cutoff_n=cutoff)
    assert np.array_equal(other.probability, dist.probability)
    assert other.tail_mass == dist.tail_mass
    # the tail is the sum of the outcomes beyond the cutoff
    wide = general_distribution(cfg, robin, ext, state, cutoff_n=2 * cutoff)
    beyond = wide.probability[np.abs(wide.n) > cutoff].sum()
    assert abs(dist.tail_mass - wide.tail_mass - beyond) <= 1e-14
    assert math.isinf(dist.delta_k)  # P ~ 1/n^2 unless psi vanishes at both walls


@pytest.mark.parametrize("l", [1, 2, 3])
def test_general_tail_matches_closed_forms(cfg, ext_i, l):
    hard = general_distribution(cfg, RobinParams.dirichlet(), ext_i,
                                energy_eigenstate(cfg, RobinParams.dirichlet(), l), cutoff_n=40)
    closed = dirichlet_distribution(cfg, l, cutoff_n=40)
    assert hard.tail_mass == pytest.approx(closed.tail_mass, rel=1e-12, abs=0)
    assert np.max(np.abs(hard.probability - closed.probability)) <= 1e-15
    free = general_distribution(cfg, RobinParams.neumann(), ext_i,
                                energy_eigenstate(cfg, RobinParams.neumann(), 0), cutoff_n=40)
    assert free.tail_mass == pytest.approx(neumann_ground_distribution(cfg, 40).tail_mass, rel=1e-12, abs=0)


def test_general_delta_k_finite_only_for_hard_walls(cfg, ext_i, robin2):
    for l in (1, 2):
        state = energy_eigenstate(cfg, RobinParams.dirichlet(), l)
        dist = general_distribution(cfg, RobinParams.dirichlet(), ext_i, state, cutoff_n=64)
        assert dist.delta_k == state.k == math.pi * l
    # sum k^2 P grows linearly with the window: the spread is a cutoff artefact
    state = energy_eigenstate(cfg, robin2, 3)
    dist = general_distribution(cfg, robin2, ext_i, state, cutoff_n=384)
    assert math.isinf(dist.delta_k)
    assert dist.partial_second_moment(384) > 1.8 * dist.partial_second_moment(192)
    neumann = energy_eigenstate(cfg, RobinParams.neumann(), 0)
    assert math.isinf(general_distribution(cfg, RobinParams.neumann(), ext_i, neumann).delta_k)


def test_general_distribution_rejects_cutoff_below_the_peak(cfg, ext_i):
    state = energy_eigenstate(cfg, RobinParams.dirichlet(), 9)
    with pytest.raises(ValueError, match="cutoff_n"):
        general_distribution(cfg, RobinParams.dirichlet(), ext_i, state, cutoff_n=4)

def test_general_matches_dirichlet_closed_form(cfg, ext_i):
    state = energy_eigenstate(cfg, RobinParams.dirichlet(), 1)
    quad = general_distribution(cfg, RobinParams.dirichlet(), ext_i, state, cutoff_n=32)
    closed = dirichlet_distribution(cfg, 1, cutoff_n=32)
    assert np.max(np.abs(quad.probability - closed.probability)) <= 1e-8


def test_general_matches_neumann_closed_form(cfg, ext_i):
    state = energy_eigenstate(cfg, RobinParams.neumann(), 0)
    quad = general_distribution(cfg, RobinParams.neumann(), ext_i, state, cutoff_n=32)
    closed = neumann_ground_distribution(cfg, cutoff_n=32)
    assert np.max(np.abs(quad.probability - closed.probability)) <= 1e-8


@pytest.mark.parametrize("ell", [-1.0, 0.0, 1.0, 5.0])
def test_probabilities_independent_of_extension(cfg, ell):
    state = energy_eigenstate(cfg, RobinParams.dirichlet(), 1)
    ext = MomentumExtension(ell, ell)
    quad = general_distribution(cfg, RobinParams.dirichlet(), ext, state, cutoff_n=16)
    closed = dirichlet_distribution(cfg, 1, cutoff_n=16)
    assert np.max(np.abs(quad.probability - closed.probability)) <= 1e-10


def test_general_normalization_with_closed_tail(cfg, ext_i):
    # two independent routes: quadrature entries plus the analytic tail of
    # the closed form must account for all probability
    state = energy_eigenstate(cfg, RobinParams.dirichlet(), 2)
    cutoff = 200
    quad = general_distribution(cfg, RobinParams.dirichlet(), ext_i, state, cutoff_n=cutoff)
    closed = dirichlet_distribution(cfg, 2, cutoff_n=cutoff)
    assert abs(quad.probability.sum() + closed.tail_mass - 1.0) <= 1e-6
    # the completeness-based tail agrees with the analytic one
    assert quad.tail_mass == pytest.approx(closed.tail_mass, rel=1e-4)


def test_general_distribution_for_robin_state(cfg, robin2, ext_i):
    state = energy_eigenstate(cfg, robin2, 0)
    dist = general_distribution(cfg, robin2, ext_i, state, cutoff_n=48)
    assert np.all(dist.probability >= 0)
    # overlaps decay like 1/n^4; the 48-window already carries ~99.8%
    assert dist.probability.sum() == pytest.approx(1.0, abs=5e-3)
    assert dist.tail_mass == pytest.approx(1.0 - dist.probability.sum())
    assert abs(dist.first_moment()) <= 1e-10  # parity-symmetric state


def test_general_distribution_requires_equal_parameters(cfg, robin2):
    state = energy_eigenstate(cfg, robin2, 0)
    with pytest.raises(ValueError):
        general_distribution(cfg, robin2, MomentumExtension(1.0, 0.0), state)


def test_general_distribution_rejects_unnormalized(cfg, ext_i):
    state = energy_eigenstate(cfg, RobinParams.dirichlet(), 1)
    bad = EnergyLike(state)
    with pytest.raises(ValueError):
        general_distribution(cfg, RobinParams.dirichlet(), ext_i, bad, cutoff_n=8)


class EnergyLike:
    """Wrap an eigenstate with a broken normalization."""

    def __init__(self, state):
        self._state = state
        self.kind = state.kind
        self.l = state.l
        self.cfg = state.cfg

    def two_component(self):
        inner = self._state.two_component()
        from pibox import TwoComponentWavefunction

        return TwoComponentWavefunction(
            lambda x: 2.0 * inner.psi_e(x),
            lambda x: 2.0 * inner.psi_o(x),
            self.cfg,
            wavenumber=inner.wavenumber,
        )


# ---------------------------------------------------------------------------
# lattice expectation values
# ---------------------------------------------------------------------------

def test_expectations_vanish_in_eigenstates(cfg):
    for state in (
        energy_eigenstate(cfg, RobinParams.dirichlet(), 1),
        energy_eigenstate(cfg, RobinParams.neumann(), 0),
    ):
        exp_r, exp_i = p_expectations(state)
        assert abs(exp_r) <= 1e-10
        assert abs(exp_i) <= 1e-10


def test_expectation_of_complex_superposition(cfg):
    # (psi_1 + i psi_2)/sqrt(2) carries momentum 8/(3L)
    s1 = energy_eigenstate(cfg, RobinParams.dirichlet(), 1)
    s2 = energy_eigenstate(cfg, RobinParams.dirichlet(), 2)

    class Mix:
        def __init__(self):
            self.cfg = cfg

        def value(self, x):
            return (s1.value(x) + 1j * s2.value(x)) / math.sqrt(2.0)

    exp_r, exp_i = p_expectations(Mix())
    assert exp_r == pytest.approx(8.0 / 3.0, abs=1e-4)
    assert exp_r != 0.0
    assert abs(exp_i) <= 1e-10


# ---------------------------------------------------------------------------
# unquantized (Fourier) momentum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("l", [1, 2])
def test_fourier_uncertainty_matches_quantized(cfg, l):
    fd = fourier_density(cfg, l, cutoff_K=200 * math.pi)
    target = math.pi * l
    assert abs(fd.delta_k - target) / target <= 0.005


def test_fourier_density_symmetric_and_normalized(cfg):
    fd = fourier_density(cfg, 1, cutoff_K=200 * math.pi)
    assert np.allclose(fd.density, fd.density[::-1], atol=1e-18)
    assert abs(fd.total_mass() - 1.0) <= 1e-4
    mean = np.trapezoid(fd.k * fd.density, fd.k)
    assert abs(mean) <= 1e-12


def test_fourier_second_moment_parseval(cfg):
    # <k^2> equals 2 m E_l = (pi l / L)^2
    for l in (1, 2):
        fd = fourier_density(cfg, l, cutoff_K=200 * math.pi)
        assert fd.delta_k**2 == pytest.approx((math.pi * l) ** 2, rel=0.005)


def test_fourier_cutoff_guard(cfg):
    with pytest.raises(ValueError):
        fourier_density(cfg, 1, cutoff_K=10.0)
    with pytest.raises(ValueError):
        fourier_density(cfg, 0, cutoff_K=200 * math.pi)


def test_fourier_neumann_divergence(cfg):
    fd = fourier_density(cfg, 0, cutoff_K=700.0, kind="neumann")
    assert math.isinf(fd.delta_k)
    assert abs(fd.total_mass() - 1.0) <= 1e-4
    small = fd.partial_second_moment(7.0)
    large = fd.partial_second_moment(700.0)
    assert large > 10.0 * small


@pytest.mark.parametrize("length", [0.5, 1.0, 2.2611424348480433])
@pytest.mark.parametrize("cutoff_K", [7.0, 60.0, 700.0, 5000.0])
def test_fourier_neumann_tail_is_exact(length, cutoff_K):
    fd = fourier_density(PhysicalConfig(1.0, length), 0, cutoff_K, kind="neumann")
    assert abs(fd.total_mass() - 1.0) <= 1e-13


def test_fourier_density_values_at_zero(cfg):
    # independent check of the closed form: psi~(0) = integral of the state,
    # which is 2 sqrt(2)/pi for l = 1 and 0 for the odd l = 2 state
    fd1 = fourier_density(cfg, 1, cutoff_K=200 * math.pi)
    i0 = int(np.argmin(np.abs(fd1.k)))
    assert fd1.density[i0] == pytest.approx((8.0 / math.pi**2) / (2.0 * math.pi), rel=1e-12)
    fd2 = fourier_density(cfg, 2, cutoff_K=200 * math.pi)
    assert fd2.density[int(np.argmin(np.abs(fd2.k)))] == 0.0
    # and the resonance value |psi~(q)|^2 = L/2
    res = fd1._density_exact(np.array([math.pi]))[0]
    assert res == pytest.approx(0.5 / (2.0 * math.pi), rel=1e-10)
