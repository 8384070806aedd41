"""State containers, tensor helpers, and truncation primitives."""

import re

import numpy as np
import pytest

from roofkit import (
    DegenerateTruncationError,
    DensityMatrix,
    DimensionError,
    EnergyConstraint,
    ParameterError,
    PureState,
    SubsystemShape,
    TruncationProjector,
    ValidityError,
    basis_state,
    extended_entropy,
    is_psd,
    measure_prepare,
    min_orbit_energy,
    marginals,
    mixed_with,
    partial_trace,
    partial_transpose,
    purify,
    random_density,
    random_pure,
    random_unitary,
    rng_for,
    tensor,
    top_eigenbasis,
    trace_norm,
    trace_out,
    truncate_state,
)
from roofkit.core import hermitian_eig, require_hermitian


class TestDensityMatrix:
    def test_accepts_valid_state(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        assert rho.dim == 3
        assert np.allclose(rho.eigenvalues(), [0.5, 0.3, 0.2])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidityError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidityError):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidityError):
            DensityMatrix(np.diag([1.2, -0.2]))

    def test_entries_are_frozen(self):
        rho = random_density(3, 3, 11)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.0

    def test_eigenvalues_descend(self):
        for seed in range(10):
            vals = random_density(5, 5, seed).eigenvalues()
            assert np.all(np.diff(vals) <= 1e-14)


class TestPureState:
    def test_normalization_enforced(self):
        with pytest.raises(ValidityError):
            PureState(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValidityError, match="pure state has non-finite entries"):
            PureState([bad, 1.0])

    def test_density_matches_projector(self):
        psi = random_pure(4, 3)
        assert np.allclose(psi.density().entries, psi.projector())
        assert abs(np.trace(psi.projector()) - 1.0) < 1e-12

    def test_basis_state(self):
        e1 = basis_state(3, 1)
        assert np.allclose(e1.amplitudes, [0.0, 1.0, 0.0])
        with pytest.raises(ParameterError):
            basis_state(3, 3)


class TestSubsystemShape:
    def test_total_is_product(self):
        shape = SubsystemShape((2, 3, 4))
        assert shape.total == 24
        assert shape.factors == 3

    def test_require_total_mismatch(self):
        with pytest.raises(DimensionError):
            SubsystemShape((2, 3)).require_total(7)

    def test_rejects_non_positive_factor(self):
        with pytest.raises(ParameterError):
            SubsystemShape((2, 0))


class TestTensorAndPartialTrace:
    def test_partial_trace_recovers_factors(self):
        shape = SubsystemShape((3, 4))
        for seed in range(20):
            a = random_density(3, 3, (seed, 0))
            b = random_density(4, 2, (seed, 1))
            joint = DensityMatrix(tensor(a.entries, b.entries))
            left = partial_trace(joint, shape, keep=(0,))
            right = partial_trace(joint, shape, keep=(1,))
            assert np.abs(left.entries - a.entries).max() < 1e-12
            assert np.abs(right.entries - b.entries).max() < 1e-12

    def test_three_factor_middle(self):
        a = random_density(2, 2, 5)
        b = random_density(3, 3, 6)
        c = random_density(2, 1, 7)
        joint = DensityMatrix(tensor(tensor(a.entries, b.entries), c.entries))
        mid = partial_trace(joint, SubsystemShape((2, 3, 2)), keep=(1,))
        assert np.abs(mid.entries - b.entries).max() < 1e-12

    def test_trace_out_matches_partial_trace(self):
        joint = random_density(6, 6, 9)
        kept = trace_out(joint.entries, (2, 3), keep=(0,))
        via_shape = partial_trace(joint, SubsystemShape((2, 3)), keep=(0,))
        assert np.abs(kept - via_shape.entries).max() < 1e-14

    def test_marginals_order(self):
        a = random_density(2, 2, 1)
        b = random_density(3, 3, 2)
        joint = DensityMatrix(tensor(a.entries, b.entries))
        parts = marginals(joint, SubsystemShape((2, 3)))
        assert np.abs(parts[0].entries - a.entries).max() < 1e-12
        assert np.abs(parts[1].entries - b.entries).max() < 1e-12

    def test_partial_transpose_involution(self):
        joint = random_density(4, 4, 3).entries
        twice = partial_transpose(partial_transpose(joint, (2, 2), 1), (2, 2), 1)
        assert np.abs(twice - joint).max() == 0.0

    def test_partial_transpose_on_product(self):
        a = random_density(2, 2, 4).entries
        b = random_density(2, 2, 5).entries
        pt = partial_transpose(tensor(a, b), (2, 2), 1)
        assert np.abs(pt - tensor(a, b.T)).max() < 1e-14


class TestPurify:
    def test_marginal_recovers_state(self):
        for seed in range(10):
            rho = random_density(3, 2, seed)
            psi = purify(rho)
            shape = SubsystemShape((3, psi.dim // 3))
            back = partial_trace(DensityMatrix(psi.projector()), shape, keep=(0,))
            assert np.abs(back.entries - rho.entries).max() < 1e-10

    def test_pure_input_stays_rank_one(self):
        psi = random_pure(4, 8)
        lifted = purify(psi.density())
        vals = DensityMatrix(lifted.projector()).eigenvalues()
        assert vals[0] > 1.0 - 1e-10


class TestHermitianEig:
    def test_descending_and_reconstructs(self):
        rho = random_density(5, 5, 13)
        vals, vecs = hermitian_eig(rho.entries)
        assert np.all(np.diff(vals) <= 1e-14)
        rebuilt = (vecs * vals) @ vecs.conj().T
        assert np.abs(rebuilt - rho.entries).max() < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidityError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestRandomSampling:
    def test_unitary_is_unitary(self):
        for d in (2, 3, 5):
            u = random_unitary(d, d)
            assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-10

    def test_density_rank(self):
        rho = random_density(6, 2, 17)
        vals = rho.eigenvalues()
        assert (vals > 1e-12).sum() == 2

    def test_seed_determinism(self):
        a = random_density(4, 4, (3, 1)).entries
        b = random_density(4, 4, (3, 1)).entries
        assert np.array_equal(a, b)
        c = random_density(4, 4, (3, 2)).entries
        assert not np.array_equal(a, c)

    def test_rng_for_rejects_generator_extension(self):
        gen = np.random.default_rng(0)
        assert rng_for(gen) is gen
        with pytest.raises(ParameterError):
            rng_for(gen, 1)


class TestPsdAndNorms:
    def test_is_psd_gram_construction(self):
        rng = np.random.default_rng(21)
        c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        ok, lam = is_psd(c @ c.conj().T)
        assert ok and lam > -1e-12
        bad, worst = is_psd(np.diag([1.0, -1e-6]))
        assert not bad
        assert worst == pytest.approx(-1e-6, rel=1e-9)

    def test_trace_norm_of_difference(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        sigma = DensityMatrix(np.diag([0.3, 0.7]))
        assert abs(trace_norm(rho.entries - sigma.entries) - 0.8) < 1e-12

    def test_mixed_with_endpoints(self):
        rho = random_density(3, 3, 1)
        sigma = random_density(3, 1, 2)
        assert np.abs(mixed_with(rho, sigma, 0.0).entries - rho.entries).max() < 1e-14
        assert np.abs(mixed_with(rho, sigma, 1.0).entries - sigma.entries).max() < 1e-14
        with pytest.raises(ParameterError):
            mixed_with(rho, sigma, 1.5)

    def test_top_eigenbasis_projects_onto_leaders(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        basis = top_eigenbasis(rho, 2)
        assert basis.shape == (3, 2)
        overlap = basis.conj().T @ rho.entries @ basis
        assert abs(np.trace(overlap).real - 0.8) < 1e-12


class TestTruncation:
    def test_identity_projector_keeps_state(self):
        omega = random_density(4, 4, 31)
        w = TruncationProjector([np.eye(2), np.eye(2)])
        out, weight = truncate_state(omega, w)
        assert weight == pytest.approx(1.0, abs=1e-12)
        assert np.abs(out.entries - omega.entries).max() < 1e-12

    def test_projector_requires_orthonormal_columns(self):
        with pytest.raises(ValidityError):
            TruncationProjector([np.array([[1.0], [1.0]]), np.eye(2)])

    def test_rank_one_cut_of_product_pure(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        omega = DensityMatrix(tensor(np.outer(plus, plus), np.outer(plus, plus)))
        w = TruncationProjector([np.eye(2)[:, :1], np.eye(2)])
        out, weight = truncate_state(omega, w)
        assert weight == pytest.approx(0.5, abs=1e-12)
        assert abs(out.entries.trace().real - 1.0) < 1e-12

    def test_unsupported_cut_raises(self):
        omega = DensityMatrix(tensor(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])))
        w = TruncationProjector([np.eye(2)[:, :1], np.eye(2)])
        with pytest.raises(DegenerateTruncationError):
            truncate_state(omega, w)

    def test_nested_cuts_gain_weight(self):
        omega = random_density(9, 9, 41)
        weights = []
        for n in (1, 2, 3):
            w = TruncationProjector([np.eye(3)[:, :n], np.eye(3)])
            _, weight = truncate_state(omega, w)
            weights.append(weight)
        assert weights[0] <= weights[1] + 1e-12 <= weights[2] + 2e-12
        assert weights[2] == pytest.approx(1.0, abs=1e-12)


def _off_hermitian(base, delta):
    """`base` with `delta` added to one off-diagonal entry only."""
    arr = np.array(base, dtype=complex)
    arr[0, 1] += delta
    return arr


def _povm_channel(delta):
    # the two elements carry opposite perturbations, so they still sum to I
    # exactly and only the first element's hermiticity is at stake
    e0 = _off_hermitian(np.diag([1.0, 0.0]), delta)
    e1 = _off_hermitian(np.diag([0.0, 1.0]), -delta)
    return measure_prepare([e0, e1], [DensityMatrix(np.eye(2) / 2)] * 2)


# every call site of require_hermitian, with the tolerance it applies
HERMITIAN_SITES = {
    "DensityMatrix": (1e-10, lambda d: DensityMatrix(_off_hermitian(np.eye(2) / 2, d))),
    "hermitian_eig": (1e-8, lambda d: hermitian_eig(_off_hermitian(np.diag([1.0, 2.0]), d))),
    "is_psd": (1e-8, lambda d: is_psd(_off_hermitian(np.eye(2), d))),
    "extended_entropy": (1e-8, lambda d: extended_entropy(_off_hermitian(np.eye(2), d))),
    "EnergyConstraint": (
        1e-10, lambda d: EnergyConstraint(_off_hermitian(np.diag([0.0, 1.0]), d), 0.5)
    ),
    "min_orbit_energy": (
        1e-10,
        lambda d: min_orbit_energy(
            _off_hermitian(np.diag([0.0, 1.0]), d), DensityMatrix(np.eye(2) / 2)
        ),
    ),
    "measure_prepare": (1e-9, _povm_channel),
}


class TestRequireHermitian:
    @pytest.mark.parametrize("site", sorted(HERMITIAN_SITES))
    def test_each_site_keeps_its_tolerance(self, site):
        tol, call = HERMITIAN_SITES[site]
        call(0.5 * tol)
        with pytest.raises(ValidityError, match=re.escape(f"not Hermitian within {tol:g}")):
            call(2.0 * tol)

    def test_returns_the_hermitian_part(self):
        a = _off_hermitian(np.diag([1.0, 2.0]), 1e-9)
        out = require_hermitian(a, 1e-8, "matrix")
        assert np.array_equal(out, out.conj().T)
        assert out[0, 1] == pytest.approx(0.5e-9, abs=1e-24)

    @pytest.mark.parametrize("site", sorted(HERMITIAN_SITES))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_each_site_rejects_non_finite_entries(self, site, bad):
        # a NaN deviation compares false against every tolerance
        with pytest.raises(ValidityError, match="has non-finite entries"):
            HERMITIAN_SITES[site][1](bad)

    def test_exactly_hermitian_input_keeps_its_bits(self):
        a = random_density(4, 3, 11).entries
        assert require_hermitian(a, 1e-10, "matrix").tobytes() == a.tobytes()

    def test_non_square_raises_dimension_error(self):
        with pytest.raises(DimensionError, match="matrix must be a square matrix"):
            require_hermitian(np.ones((2, 3)), 1e-8, "matrix")
