"""Channel constructors, complements, phase-noise family, and tail bounds."""

import math

import numpy as np
import pytest

from roofkit import (
    Channel,
    DensityMatrix,
    DimensionError,
    GaussianDensity,
    ParameterError,
    RandomPhaseSpec,
    ResolutionError,
    SubsystemShape,
    TabulatedDensity,
    UniformDensity,
    UnsupportedError,
    ValidityError,
    apply,
    basis_state,
    binary_entropy,
    choi,
    complementary,
    completely_depolarizing,
    dephasing,
    direct_sum_mixture,
    is_ppt_choi,
    measure_prepare,
    noiseless,
    output_entropy,
    partial_trace,
    partial_trace_channel,
    phase_channel_complement_mp,
    phase_complement_gram_deviation,
    random_density,
    random_phase_channel,
    random_pure,
    random_stinespring,
    schur_matrix,
    tail_entropy_bound,
    tail_quantities,
    tensor,
    tensor_channel,
    von_neumann_entropy,
)

from oracles import quadrature_phase_output, entropy_nats


def _nonzero_spectrum(rho: DensityMatrix, tol: float = 1e-9) -> np.ndarray:
    vals = rho.eigenvalues()
    return vals[vals > tol]


class TestChannelValidation:
    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ValidityError):
            Channel([np.eye(2) * 0.9])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_kraus_entries(self, bad):
        with pytest.raises(ValidityError, match="Kraus operator has non-finite entries"):
            Channel([[[bad, 0.0], [0.0, 1.0]]])

    def test_rejects_mismatched_kraus_shapes(self):
        with pytest.raises(DimensionError):
            Channel([np.eye(2), np.eye(3)])

    def test_rejects_empty_kraus_list(self):
        with pytest.raises(ParameterError):
            Channel([])

    def test_dims_and_stack(self):
        ch = random_stinespring(2, 3, 4, 7)
        assert (ch.in_dim, ch.out_dim, ch.env_dim) == (2, 3, 4)
        assert ch.kraus_stack().shape == (4, 3, 2)


class TestApply:
    def test_noiseless_is_identity(self):
        rho = random_density(3, 3, 1)
        out = apply(noiseless(3), rho)
        assert np.abs(out.entries - rho.entries).max() < 1e-14

    def test_depolarizing_is_constant(self):
        ch = completely_depolarizing(2)
        for seed in range(5):
            out = apply(ch, random_density(2, 2, seed))
            assert np.abs(out.entries - np.eye(2) / 2).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply(noiseless(2), random_density(3, 3, 0))

    def test_output_is_valid_state(self):
        ch = random_stinespring(3, 4, 2, 11)
        out = apply(ch, random_density(3, 2, 12))
        assert out.dim == 4
        assert out.eigenvalues()[-1] > -1e-12


class TestOutputEntropy:
    def test_dephasing_on_plus_state(self):
        plus = PureStatePlus()
        for q in (0.1, 0.25, 0.5, 0.8):
            val = output_entropy(dephasing(q), plus)
            assert val == pytest.approx(binary_entropy(q), abs=1e-12)

    def test_noiseless_returns_input_entropy(self):
        rho = random_density(4, 3, 3)
        assert output_entropy(noiseless(4), rho) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-12
        )


def PureStatePlus() -> DensityMatrix:
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    return DensityMatrix(np.outer(plus, plus))


class TestTensorChannel:
    def test_acts_factorwise_on_products(self):
        phi = dephasing(0.3)
        psi = completely_depolarizing(2)
        joint = tensor_channel(phi, psi)
        a = random_density(2, 2, 4)
        b = random_density(2, 1, 5)
        omega = DensityMatrix(tensor(a.entries, b.entries))
        expected = tensor(apply(phi, a).entries, apply(psi, b).entries)
        assert np.abs(apply(joint, omega).entries - expected).max() < 1e-10

    def test_dims_multiply(self):
        joint = tensor_channel(random_stinespring(2, 3, 2, 0), random_stinespring(2, 2, 3, 1))
        assert (joint.in_dim, joint.out_dim, joint.env_dim) == (4, 6, 6)


class TestComplementary:
    def test_noiseless_complement_is_constant(self):
        comp = complementary(noiseless(3))
        assert comp.out_dim == 1
        assert output_entropy(comp, random_density(3, 3, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_shared_spectra_on_pure_inputs(self):
        # both outputs are marginals of one pure dilation
        for seed in range(30):
            d = 2 + seed % 4
            ch = random_stinespring(d, d + 1, 3, (seed, 0))
            psi = random_pure(d, (seed, 1)).density()
            a = _nonzero_spectrum(apply(ch, psi))
            b = _nonzero_spectrum(apply(complementary(ch), psi))
            n = min(len(a), len(b))
            assert np.abs(a[:n] - b[:n]).max() < 1e-9
            assert output_entropy(ch, psi) == pytest.approx(
                output_entropy(complementary(ch), psi), abs=1e-9
            )

    def test_tensor_complement_compatibility(self):
        phi = random_stinespring(2, 2, 2, 5)
        psi = dephasing(0.35)
        joint_comp = complementary(tensor_channel(phi, psi))
        comp_tensor = tensor_channel(complementary(phi), complementary(psi))
        for seed in range(10):
            omega = random_pure(4, (seed, 9)).density()
            assert output_entropy(joint_comp, omega) == pytest.approx(
                output_entropy(comp_tensor, omega), abs=1e-8
            )


class TestChoi:
    def test_noiseless_gives_bell_projector(self):
        c = choi(noiseless(2))
        vals = np.linalg.eigvalsh(c)
        assert abs(np.trace(c).real - 2.0) < 1e-12
        assert (vals > 1e-9).sum() == 1
        assert vals[-1] == pytest.approx(2.0, abs=1e-12)

    def test_depolarizing_choi_is_uniform(self):
        c = choi(completely_depolarizing(2))
        assert np.abs(c - np.eye(4) / 2).max() < 1e-12

    def test_partial_trace_is_input_identity(self):
        ch = random_stinespring(3, 2, 2, 9)
        c = choi(ch)
        reduced = np.trace(c.reshape(3, 2, 3, 2), axis1=1, axis2=3)
        assert np.abs(reduced - np.eye(3)).max() < 1e-10

    def test_rank_counts_independent_kraus(self):
        for seed in range(5):
            ch = random_stinespring(2, 3, 3, seed)
            vals = np.linalg.eigvalsh(choi(ch))
            assert (vals > 1e-9).sum() == ch.env_dim

    def test_ppt_flags(self):
        flat = DensityMatrix(np.eye(2) / 2)
        mp = measure_prepare([np.eye(2)], [flat])
        ok, _ = is_ppt_choi(mp)
        assert ok
        entangled, lam = is_ppt_choi(noiseless(2))
        assert not entangled
        assert lam < -1e-3


class TestDirectSumMixture:
    def test_endpoint_q_one_embeds_input(self):
        ch = direct_sum_mixture(1.0, dephasing(0.5))
        rho = random_density(2, 2, 1)
        out = apply(ch, rho).entries
        assert np.abs(out[:2, :2] - rho.entries).max() < 1e-12
        assert np.abs(out[2:, 2:]).max() < 1e-12

    def test_endpoint_q_zero_embeds_inner_output(self):
        inner = dephasing(0.5)
        ch = direct_sum_mixture(0.0, inner)
        rho = random_density(2, 2, 2)
        out = apply(ch, rho).entries
        assert np.abs(out[2:, 2:] - apply(inner, rho).entries).max() < 1e-12
        assert np.abs(out[:2, :2]).max() < 1e-12

    def test_entropy_identity(self):
        # H(mixture) = q S(rho) + (1-q) H_inner(rho) + h2(q)
        inner = dephasing(0.5)
        q = 0.3
        ch = direct_sum_mixture(q, inner)
        for seed in range(20):
            rho = random_density(2, 2, (seed, 6))
            lhs = output_entropy(ch, rho)
            rhs = (
                q * von_neumann_entropy(rho)
                + (1.0 - q) * output_entropy(inner, rho)
                + binary_entropy(q)
            )
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(ParameterError):
            direct_sum_mixture(1.2, dephasing(0.5))


class TestMeasurePrepare:
    def test_trivial_povm_gives_constant_channel(self):
        target = random_density(3, 2, 8)
        ch = measure_prepare([np.eye(2)], [target])
        for seed in range(5):
            out = apply(ch, random_density(2, 2, seed))
            assert np.abs(out.entries - target.entries).max() < 1e-10

    def test_basis_measurement_dephases_completely(self):
        povm = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        outputs = [basis_state(2, 0).density(), basis_state(2, 1).density()]
        ch = measure_prepare(povm, outputs)
        rho = random_density(2, 2, 10)
        expected = np.diag(np.diag(rho.entries))
        assert np.abs(apply(ch, rho).entries - expected).max() < 1e-10

    def test_matches_defining_formula(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m0 = a @ a.conj().T
        m0 /= np.linalg.eigvalsh(m0)[-1] * 1.5
        povm = [m0, np.eye(3) - m0]
        outputs = [random_density(2, 2, 15), random_density(2, 1, 16)]
        ch = measure_prepare(povm, outputs)
        for seed in range(5):
            rho = random_density(3, 3, (seed, 20))
            direct = sum(
                float(np.trace(rho.entries @ m).real) * out.entries
                for m, out in zip(povm, outputs)
            )
            assert np.abs(apply(ch, rho).entries - direct).max() < 1e-10

    def test_incomplete_povm_rejected(self):
        with pytest.raises(ValidityError):
            measure_prepare([np.eye(2) * 0.5], [random_density(2, 2, 0)])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            measure_prepare(
                [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                [random_density(2, 2, 0)],
            )


PARTIAL_TRACE_CASES = [
    (dims, keep)
    for dims in [(2, 2), (2, 3), (2, 2, 2, 2), (3, 2, 3, 2)]
    for keep in [(0,), (1,), (0, 2), (1, 3)]
    if keep[-1] < len(dims)
]


class TestPartialTraceChannel:
    @pytest.mark.parametrize(
        "dims, keep",
        PARTIAL_TRACE_CASES,
        ids=["x".join(map(str, d)) + "-keep" + "".join(map(str, k)) for d, k in PARTIAL_TRACE_CASES],
    )
    def test_matches_partial_trace(self, dims, keep):
        shape = SubsystemShape(dims)
        ch = partial_trace_channel(shape, keep=keep)
        dim = shape.total
        for seed in range(10):
            omega = random_density(dim, dim, (seed, 30))
            direct = partial_trace(omega, shape, keep=keep)
            assert np.abs(apply(ch, omega).entries - direct.entries).max() < 1e-12

    def test_bell_marginal_is_maximally_mixed(self):
        bell = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                bell[i, j] = 0.5
        ch = partial_trace_channel(SubsystemShape((2, 2)), keep=(1,))
        out = apply(ch, DensityMatrix(bell))
        assert np.abs(out.entries - np.eye(2) / 2).max() < 1e-12


class TestDensities:
    def test_gaussian_characteristic_closed_form(self):
        dens = GaussianDensity(1.5)
        u = np.linspace(-2.0, 2.0, 9)
        assert np.abs(dens.characteristic(u) - np.exp(-(1.5**2) * u**2 / 2.0)).max() < 1e-14

    def test_uniform_characteristic_is_sinc(self):
        w = 2.0
        dens = UniformDensity(w)
        u = np.array([0.5, 1.0, 2.0])
        expected = np.sin(w * u) / (w * u)
        assert np.abs(dens.characteristic(u) - expected).max() < 1e-14
        assert dens.characteristic(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-15)

    def test_pdf_normalization(self):
        ts = np.linspace(-6.0, 6.0, 8001)
        gauss = np.trapezoid([GaussianDensity(0.7).pdf(float(t)) for t in ts], ts)
        assert gauss == pytest.approx(1.0, abs=1e-6)
        # trapezoid converges only linearly across the jump at the endpoints
        flat = np.trapezoid([UniformDensity(3.0).pdf(float(t)) for t in ts], ts)
        assert flat == pytest.approx(1.0, abs=1e-3)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            GaussianDensity(0.0)
        with pytest.raises(ParameterError):
            UniformDensity(-1.0)

    def test_tabulated_matches_weighted_sum(self):
        pts = np.array([-1.0, 0.0, 1.0])
        vals = np.array([0.25, 0.5, 0.25])
        wts = np.array([1.0, 1.0, 1.0])
        dens = TabulatedDensity(pts, vals, wts)
        u = np.array([0.0, 0.7])
        expected = np.array(
            [sum(w * v * np.exp(-1j * t * uu) for t, v, w in zip(pts, vals, wts)) for uu in u]
        )
        assert np.abs(dens.characteristic(u) - expected).max() < 1e-12

    def test_tabulated_validation(self):
        pts = np.array([-1.0, 1.0])
        with pytest.raises(ParameterError):
            TabulatedDensity(pts, np.array([0.5, -0.5]), np.ones(2))
        with pytest.raises(ParameterError):
            TabulatedDensity(pts, np.array([0.1, 0.1]), np.ones(2))

    def test_tabulated_has_no_tail_data(self):
        dens = TabulatedDensity(np.array([-1.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25]), np.ones(3))
        with pytest.raises(UnsupportedError):
            tail_quantities(dens, 2.0)


class TestRandomPhaseChannel:
    def test_midpoint_grid(self):
        spec = RandomPhaseSpec(1.0, 8, GaussianDensity(1.0))
        expected = -1.0 + (np.arange(8) + 0.5) * 0.25
        assert np.abs(spec.grid() - expected).max() < 1e-15

    def test_schur_matrix_closed_form(self):
        spec = RandomPhaseSpec(1.0, 8, GaussianDensity(1.0))
        x = spec.grid()
        expected = np.exp(-((x[:, None] - x[None, :]) ** 2) / 2.0)
        assert np.abs(schur_matrix(spec) - expected).max() < 1e-14

    def test_schur_action_and_diagonal_preservation(self):
        spec = RandomPhaseSpec(1.0, 6, GaussianDensity(0.8))
        ch = random_phase_channel(spec)
        b = schur_matrix(spec)
        for seed in range(5):
            rho = random_density(6, 6, (seed, 40))
            out = apply(ch, rho).entries
            assert np.abs(out - b * rho.entries).max() < 1e-10
            assert np.abs(np.diag(out) - np.diag(rho.entries)).max() < 1e-12

    def test_psd_unit_diagonal_across_widths(self):
        for s in (0.1, 1.0, 10.0):
            for d in (4, 8, 16):
                spec = RandomPhaseSpec(1.0, d, GaussianDensity(s))
                b = schur_matrix(spec)
                assert np.abs(np.diag(b) - 1.0).max() < 1e-8
                assert np.linalg.eigvalsh(b)[0] > -1e-8

    def test_small_width_limit_is_noiseless(self):
        spec = RandomPhaseSpec(1.0, 8, GaussianDensity(1e-6))
        ch = random_phase_channel(spec)
        rho = random_density(8, 8, 44)
        assert np.abs(apply(ch, rho).entries - rho.entries).max() < 1e-6

    def test_large_width_limit_dephases(self):
        spec = RandomPhaseSpec(1.0, 8, GaussianDensity(1e6))
        ch = random_phase_channel(spec)
        rho = random_density(8, 8, 45)
        out = apply(ch, rho).entries
        off = out - np.diag(np.diag(out))
        assert np.abs(off).max() < 1e-6

    def test_matches_quadrature_oracle(self):
        dens = GaussianDensity(1.0)
        spec = RandomPhaseSpec(1.0, 8, dens)
        ch = random_phase_channel(spec)
        uniform = np.full((8, 8), 1.0 / 8.0)
        direct = apply(ch, DensityMatrix(uniform)).entries
        quad = quadrature_phase_output(uniform, spec.grid(), dens.pdf, 8.0, points=2001)
        assert abs(entropy_nats(direct) - entropy_nats(quad)) < 1e-4

    def test_non_psd_characteristic_rejected(self):
        # unit diagonal but definitely not positive semidefinite (2I - J)
        class NotPsd:
            def characteristic(self, u):
                u = np.asarray(u, dtype=float)
                return np.where(np.abs(u) < 1e-12, 1.0, -1.0)

        spec = RandomPhaseSpec(1.0, 8, NotPsd())
        with pytest.raises(ResolutionError):
            random_phase_channel(spec)

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            RandomPhaseSpec(0.0, 8, GaussianDensity(1.0))
        with pytest.raises(ParameterError):
            RandomPhaseSpec(1.0, 0, GaussianDensity(1.0))


class TestPhaseComplement:
    def test_single_point_grid_gives_constant(self):
        spec = RandomPhaseSpec(1.0, 1, GaussianDensity(1.0))
        comp = phase_channel_complement_mp(spec)
        out = apply(comp, DensityMatrix(np.eye(1)))
        assert von_neumann_entropy(out) == pytest.approx(0.0, abs=1e-9)

    def test_complement_is_ppt(self):
        spec = RandomPhaseSpec(1.0, 4, GaussianDensity(1.0))
        comp = phase_channel_complement_mp(spec)
        ok, _ = is_ppt_choi(comp)
        assert ok

    def test_gram_matches_schur_matrix(self):
        for s in (0.5, 1.0, 2.0):
            spec = RandomPhaseSpec(1.0, 8, GaussianDensity(s))
            assert phase_complement_gram_deviation(spec, t_points=64, t_half_width=8.0) < 1e-8

    def test_entropy_cross_check(self):
        spec = RandomPhaseSpec(1.0, 8, GaussianDensity(1.0))
        ch = random_phase_channel(spec)
        comp = phase_channel_complement_mp(spec, t_points=64, t_half_width=8.0)
        for seed in range(5):
            psi = random_pure(8, (seed, 50)).density()
            assert abs(output_entropy(comp, psi) - output_entropy(ch, psi)) <= 0.05


class TestTails:
    def test_compact_support_has_no_tail(self):
        dens = UniformDensity(2.0)
        alpha, beta, gamma = tail_quantities(dens, 2.0)
        assert alpha == 0.0 and beta == 0.0 and gamma == 0.0

    def test_gaussian_tail_mass_is_erfc(self):
        alpha, _, _ = tail_quantities(GaussianDensity(1.0), 2.0)
        assert alpha == pytest.approx(math.erfc(math.sqrt(2.0)), abs=1e-12)
        assert alpha == pytest.approx(0.045500, abs=5e-7)

    def test_lattice_tail_bounded_by_shifted_mass(self):
        dens = GaussianDensity(1.0)
        for d in range(3, 9):
            alpha_prev, _, _ = tail_quantities(dens, float(d - 1))
            _, _, gamma = tail_quantities(dens, float(d))
            assert gamma <= alpha_prev + 1e-12

    def test_tail_quantities_decrease(self):
        dens = GaussianDensity(1.0)
        rows = [tail_quantities(dens, float(d)) for d in range(1, 9)]
        for (a0, _, g0), (a1, _, g1) in zip(rows, rows[1:]):
            assert a1 <= a0 + 1e-15
            assert g1 <= g0 + 1e-15

    def test_bound_vanishes_on_compact_support(self):
        dens = UniformDensity(1.5)
        assert tail_entropy_bound(dens, 4.0, entropy_cap=2.0, out_entropy=1.0) == 0.0

    def test_bound_finite_positive_and_decreasing(self):
        dens = GaussianDensity(1.0)
        cap = math.log(8.0)
        values = [tail_entropy_bound(dens, float(d), cap, 1.0) for d in range(3, 9)]
        assert all(v > 0.0 for v in values)
        assert all(math.isfinite(v) for v in values)
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-15

    def test_bound_parameter_guards(self):
        dens = GaussianDensity(1.0)
        with pytest.raises(ParameterError):
            tail_entropy_bound(dens, 0.5, 1.0, 1.0)
        with pytest.raises(ParameterError):
            tail_entropy_bound(dens, 4.0, -1.0, 1.0)
        with pytest.raises(ParameterError):
            tail_quantities(dens, 0.0)
