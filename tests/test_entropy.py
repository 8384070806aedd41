"""Entropy functionals, Gibbs states, and orbit minima."""

import math

import numpy as np
import pytest

from roofkit import (
    DensityMatrix,
    DimensionError,
    EnergyConstraint,
    InfeasibleError,
    ParameterError,
    ValidityError,
    binary_entropy,
    extended_entropy,
    gibbs_state,
    min_orbit_energy,
    mixed_with,
    power_trace,
    random_density,
    random_pure,
    random_unitary,
    relative_entropy,
    spectrum_entropy,
    von_neumann_entropy,
)

from oracles import exhaustive_min_orbit


class TestVonNeumann:
    def test_pure_state_is_zero(self):
        for seed in range(10):
            psi = random_pure(4, seed)
            assert von_neumann_entropy(psi.density()) < 1e-12

    def test_pure_spectrum_is_positive_zero(self):
        # -sum(w log w) over the spectrum [1] is -0.0; reports print +0.0
        for vals in ([1.0], [0.0, 1.0], [-1e-15, 0.0, 1.0]):
            assert math.copysign(1.0, spectrum_entropy(np.array(vals))) == 1.0
        pure = DensityMatrix(np.diag([1.0, 0.0]))
        assert math.copysign(1.0, von_neumann_entropy(pure)) == 1.0
        assert math.copysign(1.0, relative_entropy(pure, pure)) == 1.0

    def test_maximally_mixed(self):
        for d in (2, 3, 8):
            rho = DensityMatrix(np.eye(d) / d)
            assert von_neumann_entropy(rho) == pytest.approx(math.log(d), abs=1e-12)

    def test_known_spectrum(self):
        rho = DensityMatrix(np.diag([0.5, 0.25, 0.25]))
        assert von_neumann_entropy(rho) == pytest.approx(1.5 * math.log(2.0), abs=1e-12)

    def test_concavity(self):
        # S(t rho + (1-t) sigma) >= t S(rho) + (1-t) S(sigma)
        for seed in range(200):
            d = 2 + seed % 7
            rho = random_density(d, d, (seed, 0))
            sigma = random_density(d, max(1, d - 1), (seed, 1))
            t = 0.5 * (1.0 + math.sin(seed))
            mix = mixed_with(rho, sigma, 1.0 - t)
            lhs = von_neumann_entropy(mix)
            rhs = t * von_neumann_entropy(rho) + (1.0 - t) * von_neumann_entropy(sigma)
            assert lhs >= rhs - 1e-10

    def test_unitary_invariance(self):
        rho = random_density(4, 3, 5)
        u = random_unitary(4, 9)
        rotated = DensityMatrix(u @ rho.entries @ u.conj().T)
        assert von_neumann_entropy(rotated) == pytest.approx(von_neumann_entropy(rho), abs=1e-11)


class TestExtendedEntropy:
    def test_matches_on_unit_trace(self):
        for seed in range(10):
            rho = random_density(3, 3, seed)
            assert extended_entropy(rho.entries) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-12
            )

    def test_known_subnormalized_value(self):
        # H(diag(.2,.2)) = -2(.2 ln .2) + .4 ln .4 = .4 ln 2
        val = extended_entropy(np.diag([0.2, 0.2]))
        assert val == pytest.approx(0.4 * math.log(2.0), abs=1e-12)

    def test_zero_operator(self):
        assert extended_entropy(np.zeros((3, 3))) == 0.0

    def test_homogeneity(self):
        # H(c A) = c H(A) for c > 0
        rng = np.random.default_rng(77)
        for _ in range(50):
            a = random_density(4, 4, rng).entries
            c = float(rng.uniform(0.1, 3.0))
            assert extended_entropy(c * a) == pytest.approx(
                c * extended_entropy(a), abs=1e-9
            )

    def test_rejects_negative_operator(self):
        with pytest.raises(ValidityError):
            extended_entropy(np.diag([1.0, -0.5]))


class TestRelativeEntropy:
    def test_self_distance_is_zero(self):
        rho = random_density(3, 3, 2)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_known_diagonal_value(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        sigma = DensityMatrix(np.diag([0.5, 0.5]))
        expected = 0.7 * math.log(1.4) + 0.3 * math.log(0.6)
        assert relative_entropy(rho, sigma) == pytest.approx(expected, abs=1e-12)

    def test_support_violation_is_infinite(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        sigma = DensityMatrix(np.diag([1.0, 0.0]))
        assert math.isinf(relative_entropy(rho, sigma))

    def test_nonnegative(self):
        for seed in range(50):
            d = 2 + seed % 4
            rho = random_density(d, d, (seed, 3))
            sigma = random_density(d, d, (seed, 4))
            assert relative_entropy(rho, sigma) >= -1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            relative_entropy(random_density(2, 2, 0), random_density(3, 3, 0))


class TestBinaryEntropy:
    def test_endpoints_and_midpoint(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_symmetry(self):
        for p in (0.1, 0.25, 0.4):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-15)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ParameterError):
            binary_entropy(-0.1)
        with pytest.raises(ParameterError):
            binary_entropy(1.1)


class TestPowerTrace:
    def test_pure_state(self):
        psi = random_pure(3, 4)
        assert power_trace(psi.density(), 0.5) == pytest.approx(1.0, abs=1e-10)

    def test_uniform_spectrum(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert power_trace(rho, 0.5) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        rho3 = DensityMatrix(np.eye(3) / 3)
        assert power_trace(rho3, 0.5) == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_exceeds_one_on_mixed_states(self):
        for seed in range(10):
            rho = random_density(4, 4, seed)
            assert power_trace(rho, 0.3) > 1.0

    def test_rejects_exponent_outside_open_interval(self):
        for bad in (0.0, 1.0, 2.0, -0.5):
            with pytest.raises(ParameterError):
                power_trace(random_density(2, 2, 0), bad)


class TestSpectrumEntropy:
    def test_matches_matrix_route(self):
        rho = random_density(5, 5, 8)
        assert spectrum_entropy(rho.eigenvalues()) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-12
        )

    @pytest.mark.parametrize("vals", [[math.nan, 1.0], [math.inf], [-math.inf, 1.0]])
    def test_rejects_non_finite_spectra(self, vals):
        # NaN used to drop out of the positive filter and give 0.0; inf gave -inf
        with pytest.raises(ValidityError, match="spectrum has non-finite entries"):
            spectrum_entropy(vals)


class TestGibbs:
    H2 = np.diag([0.0, 1.0])

    def test_centered_level_is_maximally_mixed(self):
        state, beta, entropy = gibbs_state(EnergyConstraint(self.H2, 0.5))
        assert abs(beta) < 1e-6
        assert np.abs(state.entries - np.eye(2) / 2).max() < 1e-8
        assert entropy == pytest.approx(math.log(2.0), abs=1e-8)

    def test_quarter_level_closed_form(self):
        # p_1 = 1/4 forces e^{-beta} = 1/3
        state, beta, entropy = gibbs_state(EnergyConstraint(self.H2, 0.25))
        assert beta == pytest.approx(math.log(3.0), abs=1e-6)
        assert entropy == pytest.approx(binary_entropy(0.25), abs=1e-9)
        assert state.entries[1, 1].real == pytest.approx(0.25, abs=1e-9)

    def test_energy_matches_level(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            evals = np.sort(rng.uniform(0.0, 3.0, size=d))
            u = random_unitary(d, rng)
            ham = u @ np.diag(evals) @ u.conj().T
            level = float(rng.uniform(evals[0] + 1e-3, evals[-1] - 1e-3))
            state, _, _ = gibbs_state(EnergyConstraint(ham, level))
            energy = float(np.trace(ham @ state.entries).real)
            assert abs(energy - level) < 1e-9

    def test_extremal_levels_project(self):
        state, beta, entropy = gibbs_state(EnergyConstraint(self.H2, 0.0))
        assert math.isinf(beta) and beta > 0
        assert np.abs(state.entries - np.diag([1.0, 0.0])).max() < 1e-12
        assert entropy == pytest.approx(0.0, abs=1e-12)
        state, beta, _ = gibbs_state(EnergyConstraint(self.H2, 1.0))
        assert math.isinf(beta) and beta < 0
        assert np.abs(state.entries - np.diag([0.0, 1.0])).max() < 1e-12

    def test_degenerate_extreme_spreads_over_eigenspace(self):
        ham = np.diag([0.0, 0.0, 1.0])
        state, beta, entropy = gibbs_state(EnergyConstraint(ham, 0.0))
        assert math.isinf(beta)
        assert np.abs(state.entries - np.diag([0.5, 0.5, 0.0])).max() < 1e-12
        assert entropy == pytest.approx(math.log(2.0), abs=1e-12)

    def test_infeasible_level(self):
        with pytest.raises(InfeasibleError):
            gibbs_state(EnergyConstraint(self.H2, 1.5))
        with pytest.raises(InfeasibleError):
            gibbs_state(EnergyConstraint(self.H2, -0.5))

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_non_finite_level_rejected(self, level):
        message = rf"energy level must lie in \(-inf, inf\), got {level!r}"
        with pytest.raises(ParameterError, match=message):
            EnergyConstraint(self.H2, level)

    def test_dominates_energy_constrained_states(self):
        # with the level below the maximally mixed energy (beta > 0) the Gibbs
        # state maximizes entropy over every state with Tr(H rho) <= level
        ham = np.diag([0.0, 1.0, 2.0])
        level = 0.8
        _, beta, best = gibbs_state(EnergyConstraint(ham, level))
        assert beta > 0.0
        rng = np.random.default_rng(91)
        found = 0
        while found < 30:
            rho = random_density(3, 3, rng)
            if float(np.trace(ham @ rho.entries).real) > level:
                continue
            found += 1
            assert von_neumann_entropy(rho) <= best + 1e-8


class TestMinOrbit:
    def test_maximally_mixed_is_invariant(self):
        ham = np.diag([0.0, 1.0, 2.0])
        rho = DensityMatrix(np.eye(3) / 3)
        assert min_orbit_energy(ham, rho) == pytest.approx(1.0, abs=1e-12)

    def test_known_alignment(self):
        # sorted spectra pair in opposite order: 0*.5 + 1*.3 + 2*.2 = 0.7
        ham = np.diag([0.0, 1.0, 2.0])
        rho = DensityMatrix(np.diag([0.2, 0.3, 0.5]))
        assert min_orbit_energy(ham, rho) == pytest.approx(0.7, abs=1e-12)

    def test_matches_exhaustive_permutations(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            evals = rng.uniform(0.0, 2.0, size=d)
            u = random_unitary(d, rng)
            ham = u @ np.diag(evals) @ u.conj().T
            rho = random_density(d, d, rng)
            expected = exhaustive_min_orbit(evals, np.sort(rho.eigenvalues()))
            # orbit minimum pairs sorted spectra in opposite orders, so it is
            # also the permutation minimum of the two spectra
            got = min_orbit_energy(ham, rho)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_lower_bounds_actual_energy(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            ham = np.diag(rng.uniform(0.0, 2.0, size=d))
            rho = random_density(d, d, rng)
            actual = float(np.trace(ham @ rho.entries).real)
            assert min_orbit_energy(ham, rho) <= actual + 1e-12
