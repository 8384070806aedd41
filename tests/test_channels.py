"""Channel constructors, complements, phase-noise family, and tail bounds."""

import json
import math
import re
import time

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
    channel_from_family,
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
    rng_for,
    schur_matrix,
    tail_entropy_bound,
    tail_quantities,
    tensor,
    tensor_channel,
    von_neumann_entropy,
)
from roofkit.serialize import _FAMILIES, decode_channel, encode_channel

import oracles
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

    @pytest.mark.parametrize("stack", [np.eye(2), np.ones((1, 1, 1, 1))], ids=["2d", "4d"])
    def test_rejects_a_stack_that_is_not_3d(self, stack):
        with pytest.raises(DimensionError, match="^Kraus operators must share one rectangular shape$"):
            Channel(stack)

    @pytest.mark.parametrize("shape", [(1, 2, 0), (1, 0, 2), (2, 0, 0)])
    def test_rejects_zero_size_kraus_operators(self, shape):
        # numpy's max has no identity on the empty trace-preservation residual
        with pytest.raises(DimensionError, match="Kraus operators must be at least 1 x 1"):
            Channel(np.zeros(shape))

    def test_dims_and_stack(self):
        ch = random_stinespring(2, 3, 4, 7)
        assert (ch.in_dim, ch.out_dim, ch.env_dim) == (2, 3, 4)
        assert ch.kraus.shape == (4, 3, 2)


_PHASE_SPEC = RandomPhaseSpec(1.5, 6, GaussianDensity(0.7))
_MP_POVM = [np.diag([0.7, 0.2]), np.diag([0.3, 0.8])]
_MP_OUTPUTS = [random_density(3, 2, 40), random_density(3, 3, 41)]


def _family(**descriptor):
    return lambda: channel_from_family(descriptor, rng_for(0))


def _listed(ops):
    return lambda: Channel(ops), lambda: ops


def _drawn_outers(dim, outcomes):
    return lambda: oracles.prepare_outers(*oracles.measure_prepare_draws(dim, outcomes, rng_for(0)))


_DEPHASING = [math.sqrt(0.75) * np.eye(2), math.sqrt(0.25) * np.diag([1.0, -1.0])]
# three operators in the span of two: the rows of a 3 x 2 isometry mix dephasing's pair
_MIX = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 0.0]]) / [math.sqrt(3.0), math.sqrt(2.0)]
_MIXED = [sum(w * k for w, k in zip(row, _DEPHASING)) for row in _MIX]

# each builder and its per-operator formula, from the same inputs; then a
# channel per serialize._FAMILIES row, drawn from rng_for(0), and Kraus lists
# with a zero, a repeated and a linearly dependent operator
BUILDERS = {
    "tensor": (
        lambda: tensor_channel(random_stinespring(2, 3, 2, 1), dephasing(0.3)),
        lambda: oracles.kron_pairs(random_stinespring(2, 3, 2, 1).kraus, dephasing(0.3).kraus),
    ),
    "complement": (
        lambda: complementary(random_stinespring(3, 2, 4, 2)),
        lambda: oracles.swapped_axes(random_stinespring(3, 2, 4, 2).kraus),
    ),
    "partial-trace": (
        lambda: partial_trace_channel(SubsystemShape((2, 3, 2)), (0, 2)),
        lambda: oracles.trace_rows((2, 3, 2), (0, 2)),
    ),
    "partial-trace-first": (
        lambda: partial_trace_channel(SubsystemShape((3, 2)), (1,)),
        lambda: oracles.trace_rows((3, 2), (1,)),
    ),
    # 10 operators of Choi rank 6
    "measure-prepare": (
        lambda: measure_prepare(_MP_POVM, _MP_OUTPUTS),
        lambda: oracles.prepare_outers(_MP_POVM, [s.entries for s in _MP_OUTPUTS]),
    ),
    "depolarizing": (
        lambda: completely_depolarizing(3),
        lambda: oracles.unit_matrices(3),
    ),
    "random-phase": (
        lambda: random_phase_channel(_PHASE_SPEC),
        lambda: oracles.multiplier_diagonals(schur_matrix(_PHASE_SPEC)),
    ),
    "stinespring": (
        lambda: random_stinespring(2, 3, 4, np.random.default_rng(8)),
        lambda: oracles.isometry_slices(2, 3, 4, np.random.default_rng(8)),
    ),
    "direct-sum": (
        lambda: direct_sum_mixture(0.3, random_stinespring(2, 3, 2, 3)),
        lambda: oracles.direct_sum_blocks(0.3, random_stinespring(2, 3, 2, 3).kraus, 2),
    ),
    "family:noiseless": (_family(family="noiseless", dim=3), lambda: [np.eye(3)]),
    "family:dephasing": (_family(family="dephasing"), lambda: _DEPHASING),
    "family:depolarizing": (_family(family="depolarizing", dim=2), lambda: oracles.unit_matrices(2)),
    "family:random": (
        _family(family="random", dim=2), lambda: oracles.isometry_slices(2, 2, 2, rng_for(0))
    ),
    "family:measure_prepare": (
        _family(family="measure_prepare", dim=2, outcomes=2), _drawn_outers(2, 2)
    ),
    "family:phase": (
        _family(family="phase", a=1.5, d=6),
        lambda: oracles.multiplier_diagonals(
            schur_matrix(RandomPhaseSpec(1.5, 6, GaussianDensity(1.0)))
        ),
    ),
    # 5 operators on 2 x 2 matrices span at most 4 dimensions
    "random:2:2:5": (
        _family(family="random", dim=2, out=2, env=5),
        lambda: oracles.isometry_slices(2, 2, 5, rng_for(0)),
    ),
    "measure_prepare:3": (_family(family="measure_prepare", dim=3), _drawn_outers(3, 3)),
    "zero-operator": _listed([np.eye(2), np.zeros((2, 2))]),
    "repeated-operator": _listed([_DEPHASING[0] / math.sqrt(2.0)] * 2 + _DEPHASING[1:]),
    "dependent-operators": _listed(_MIXED),
    # more operators than matrix entries: reduced through the 4 x 4 matrix R* R
    "repeated-five-times": _listed([np.eye(2) / math.sqrt(5.0)] * 5),
}


class TestKrausStack:
    def test_caller_arrays_stay_writeable(self):
        ops = [np.eye(2, dtype=complex)]
        ch = Channel(ops)
        assert ops[0].flags.writeable
        assert not ch.kraus.flags.writeable
        ops[0][0, 0] = 5.0
        assert ch.kraus[0, 0, 0] == 1.0

    def test_one_contiguous_complex_stack(self):
        ch = Channel([np.eye(2) / math.sqrt(2.0), np.diag([1.0, -1.0]) / math.sqrt(2.0)])
        assert ch.kraus.shape == (2, 2, 2)
        assert ch.kraus.dtype == complex
        assert ch.kraus.flags.c_contiguous

    def test_builders_cover_every_family(self):
        assert {f"family:{name}" for name in _FAMILIES} <= set(BUILDERS)

    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_builder_matches_per_operator_formula(self, name):
        # the given stack's Choi matrix, held in Choi-rank operators: the same bytes when the
        # given operators are independent, and after a JSON round trip
        build, formula = BUILDERS[name]
        ch, ops = build(), np.array(formula(), dtype=complex)
        given = oracles.choi_sum(ops)
        rank = int(np.count_nonzero(np.linalg.eigvalsh(given) > 1e-9))
        assert np.abs(choi(ch) - given).max() < 1e-12
        assert ch.env_dim == rank
        if len(ops) == rank:
            assert ch.kraus.tobytes() == ops.tobytes()
        back = decode_channel(json.loads(json.dumps(encode_channel(ch))))
        assert back.kraus.shape == ch.kraus.shape
        assert back.kraus.tobytes() == ch.kraus.tobytes()

    def test_phase_complement_holds_one_operator_per_grid_point(self):
        # one operator |p_i><i| per grid point: 16, never 16 * 64 * 16 handed to Channel
        spec = RandomPhaseSpec(1.0, 16, GaussianDensity(1.0))
        start = time.perf_counter()
        assert phase_channel_complement_mp(spec).kraus.shape == (16, 64, 16)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_apply_raw_matches_per_operator_sum(self, name):
        ch = BUILDERS[name][0]()
        rho = random_density(ch.in_dim, 2, 42).entries
        assert ch.apply_raw(rho).tobytes() == oracles.kraus_sum(ch.kraus, rho).tobytes()

    def test_apply_raw_on_a_one_dimensional_output(self):
        # a 1 x 1 output still adds its terms one operator at a time
        ch = complementary(noiseless(9))
        for rank in (1, 4, 9):
            rho = random_density(9, rank, (43, rank)).entries
            assert ch.apply_raw(rho).tobytes() == oracles.kraus_sum(ch.kraus, rho).tobytes()

    def test_choi_is_the_sum_of_vectorized_outer_products(self):
        ch = random_stinespring(2, 3, 4, 44)
        assert np.abs(choi(ch) - oracles.choi_sum(ch.kraus)).max() < 1e-15


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

    def test_stack_and_list_build_the_same_operators(self):
        rng = np.random.default_rng(24)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m0 = a @ a.conj().T
        m0 /= np.linalg.eigvalsh(m0)[-1] * 1.5
        povm = [m0, np.eye(3) - m0]
        outputs = [random_density(2, 2, 25), random_density(2, 1, 26)]
        from_list = measure_prepare(povm, outputs).kraus
        from_stack = measure_prepare(np.stack(povm), outputs).kraus
        assert from_list.shape == from_stack.shape
        assert from_list.tobytes() == from_stack.tobytes()

    @pytest.mark.parametrize("povm", [[], np.zeros((0, 2, 2))], ids=["list", "stack"])
    def test_empty_povm_rejected(self, povm):
        with pytest.raises(ParameterError, match="need equally many POVM elements"):
            measure_prepare(povm, [])

    def test_incomplete_povm_rejected(self):
        with pytest.raises(ValidityError):
            measure_prepare([np.eye(2) * 0.5], [random_density(2, 2, 0)])

    @pytest.mark.parametrize(
        "povm, outputs, error, message",
        [
            ([np.eye(2), np.zeros((3, 3))], [random_density(2, 2, 0)] * 2, DimensionError,
             "POVM elements must be square and share one dimension"),
            ([np.ones((2, 3))], [random_density(2, 2, 0)], DimensionError,
             "POVM elements must be square and share one dimension"),
            ([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
             [random_density(2, 2, 0), random_density(3, 3, 0)], DimensionError,
             "output states must share one dimension"),
            # sums to the identity, but the second effect is not positive
            ([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])], [random_density(2, 2, 0)] * 2,
             ValidityError, "POVM element has eigenvalue -5.000e-01"),
        ],
        ids=["povm-dims", "povm-not-square", "output-dims", "negative-effect"],
    )
    def test_refusals_name_their_rule(self, povm, outputs, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            measure_prepare(povm, outputs)

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

        def trapezoid(pdf):
            y = np.array([pdf(float(t)) for t in ts])
            return float(((y[1:] + y[:-1]) * np.diff(ts)).sum() / 2.0)

        gauss = trapezoid(GaussianDensity(0.7).pdf)
        assert gauss == pytest.approx(1.0, abs=1e-6)
        # trapezoid converges only linearly across the jump at the endpoints
        flat = trapezoid(UniformDensity(3.0).pdf)
        assert flat == pytest.approx(1.0, abs=1e-3)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            GaussianDensity(0.0)
        with pytest.raises(ParameterError):
            UniformDensity(-1.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_positive_parameters_must_be_finite(self, bad):
        # an infinite width used to reach numpy as inf * 0 and the tails as an OverflowError
        for build in (GaussianDensity, UniformDensity):
            with pytest.raises(ParameterError, match=r"must lie in \(0, inf\)"):
                build(bad)
        with pytest.raises(ParameterError, match=r"half width must lie in \(0, 8\.98847e\+307\)"):
            RandomPhaseSpec(bad, 3, GaussianDensity(1.0))
        spec = RandomPhaseSpec(1.0, 3, GaussianDensity(1.0))
        with pytest.raises(ParameterError, match=r"t-grid half width must lie in \(0, inf\)"):
            phase_channel_complement_mp(spec, t_half_width=bad)

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
        with pytest.raises(ParameterError, match="^points, values and weights must be 1-d and equally"):
            TabulatedDensity(pts, np.array([1.0]), np.ones(2))
        with pytest.raises(ParameterError, match="^empty tabulation$"):
            TabulatedDensity(np.array([]), np.array([]), np.array([]))

    @pytest.mark.parametrize("column", range(3))
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_tabulated_entries_must_be_finite(self, column, bad):
        # a NaN mass fails every comparison, so it used to be accepted
        table = [[0.0], [1.0], [1.0]]
        table[column] = [bad]
        with pytest.raises(ParameterError, match="points, values and weights have non-finite entries"):
            TabulatedDensity(*table)

    @pytest.mark.parametrize(
        "half_width, points",
        [(1e300, [-1e10, 0.0, 1e10]), (1.0, [-1e155, 0.0, 1e155]), (1e300, [-1.0, 0.0, 1e300])],
        ids=["wide-grid", "wide-profile-reach", "both-wide"],
    )
    def test_tabulated_phases_must_stay_finite(self, half_width, points):
        # u x overflowed for grid differences u and tabulation points x, and the channel
        # reached the eigensolver with NaN entries after three RuntimeWarnings
        dens = TabulatedDensity(np.array(points), np.array([0.25, 0.5, 0.25]), np.ones(3))
        message = "^" + re.escape(f"half width {half_width:g} and tabulated points up to |x| = {points[-1]:g} ")
        with pytest.raises(ParameterError, match=message):
            RandomPhaseSpec(half_width, 3, dens)
        # the widest grid whose phases, and the complement's, stay finite
        widest = RandomPhaseSpec(1e300, 3, TabulatedDensity(
            np.array([-1.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25]), np.ones(3)))
        assert np.isfinite(schur_matrix(widest)).all()

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

    @pytest.mark.parametrize("density", [GaussianDensity(1.0), UniformDensity(1.0), UniformDensity(1e10)],
                             ids=["gaussian", "uniform", "wide-uniform"])
    def test_extreme_half_width_dephases_without_warnings(self, density):
        # (s u)^2 and w u overflowed to inf, with a RuntimeWarning; the multiplier is the identity
        ch = random_phase_channel(RandomPhaseSpec(1e300, 3, density))
        rho = random_density(3, 3, 46)
        assert np.abs(apply(ch, rho).entries - np.diag(np.diag(rho.entries))).max() <= 1e-15

    def test_gaussian_forms_vanish_where_their_square_overflows(self):
        u = np.array([1e300, -1e300, 0.0])
        for form in (GaussianDensity(1.0).characteristic, GaussianDensity(1e300).profile):
            assert form(u).tolist() == [0.0, 0.0, 1.0]

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            RandomPhaseSpec(0.0, 8, GaussianDensity(1.0))
        with pytest.raises(ParameterError):
            RandomPhaseSpec(1.0, 0, GaussianDensity(1.0))
        for d in [4.5, True, "4"]:
            with pytest.raises(ParameterError, match="grid size"):
                RandomPhaseSpec(1.0, d, GaussianDensity(1.0))
        assert RandomPhaseSpec(1.0, 4.0, GaussianDensity(1.0)).grid_size == 4


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

    def test_profile_off_the_t_grid_is_refused(self):
        # a std-10 profile shifted by -10 leaves no weight on the t-grid [-0.1, 0.1]
        spec = RandomPhaseSpec(10.0, 2, GaussianDensity(10.0))
        with pytest.raises(ResolutionError, match="^a shifted profile has no support on the t-grid"):
            phase_channel_complement_mp(spec, t_points=8, t_half_width=0.1)

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


    def test_stack_is_the_measure_prepare_map(self):
        # acceptance criterion 09's spec and inputs; the stack used to come from measure_prepare
        spec = RandomPhaseSpec(1.0, 8, GaussianDensity(1.0))
        comp = phase_channel_complement_mp(spec, t_points=64, t_half_width=8.0)
        t = -8.0 + (np.arange(64) + 0.5) * (16.0 / 64)
        prof = np.exp(-((t[:, None] - spec.grid()[None, :]) ** 2))
        prof /= np.linalg.norm(prof, axis=0)
        povm = [np.diag(e) for e in np.eye(8)]
        via_mp = measure_prepare(povm, [DensityMatrix(np.outer(p, p)) for p in prof.T])
        assert comp.kraus.shape == (8, 64, 8)
        for i in range(20):
            psi = random_pure(8, (900, i)).density()
            assert np.abs(apply(comp, psi).entries - apply(via_mp, psi).entries).max() <= 1e-12

    @pytest.mark.parametrize(
        "density, reach",
        [
            (GaussianDensity(0.5), 8.0),
            (UniformDensity(1.5), 30.0 * math.pi / 1.5),
            (TabulatedDensity(np.array([-2.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25]), np.ones(3)),
             12.0),
        ],
        ids=["gaussian", "uniform", "custom"],
    )
    def test_default_t_grid_reaches_past_the_grid_by_the_profile_reach(self, density, reach):
        spec = RandomPhaseSpec(1.0, 4, density)
        assert density.profile_reach() == reach
        default = phase_channel_complement_mp(spec, t_points=32).kraus
        explicit = phase_channel_complement_mp(spec, t_points=32, t_half_width=1.0 + reach).kraus
        assert default.tobytes() == explicit.tobytes()

    def test_custom_density_prepares_its_shifted_profiles(self):
        points, values = np.array([-1.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25])
        spec = RandomPhaseSpec(1.0, 3, TabulatedDensity(points, values, np.ones(3)))
        comp = phase_channel_complement_mp(spec, t_points=16, t_half_width=5.0)
        t = -5.0 + (np.arange(16) + 0.5) * (10.0 / 16)
        for i, x in enumerate(spec.grid()):
            # the inverse transform of sqrt(pdf), sampled at t - x_i
            p = np.exp(1j * np.multiply.outer(t - x, points)) @ np.sqrt(values)
            p /= np.linalg.norm(p)
            out = apply(comp, basis_state(3, i).density()).entries
            assert np.abs(out - np.outer(p, p.conj())).max() <= 1e-12


# the Gaussian lattice tail as it was once summed: term by term down to TERM_FLOOR,
# with the index of the last term, so the mass left out is alpha(d + last)
def _lattice_tail_term_by_term(dens, d):
    total, m = 0.0, 0
    while True:
        term = dens.pdf(d + m) + dens.pdf(-d - m)
        total += term
        if term < 1e-14:
            return total, m
        m += 1


def _lattice_tail_reference(std, d):
    """2 sum_m p(d + m) over every term that does not underflow, summed exactly."""
    m = np.arange(int(40 * std) + 2)
    z = (d + m) / std
    return math.fsum(2.0 * np.exp(-z * z / 2.0) / (std * math.sqrt(2 * math.pi)))


WIDTHS = [10.0 ** k for k in range(-3, 15)]


class TestTails:
    @pytest.mark.parametrize("d", [1.0, 2.0, 5.0])
    @pytest.mark.parametrize("std", WIDTHS)
    def test_gaussian_lattice_tail_lies_between_the_shifted_masses(self, std, d):
        # the sum took one term per unit of std, and stopped at once with 8e-15
        # once the peak fell below 1e-14 (std 1e14: gamma(2) = 8e-15, alpha(2) ~ 1)
        dens = GaussianDensity(std)
        started = time.perf_counter()
        alpha, _, gamma = tail_quantities(dens, d)
        assert time.perf_counter() - started < 0.1
        assert alpha - 1e-12 <= gamma <= dens.tail_mass(d - 1.0) + 1e-12

    @pytest.mark.parametrize("d", [1.0, 2.0, 5.0])
    @pytest.mark.parametrize("std", [s for s in WIDTHS if s <= 1e4] + [50.0, 100.0, 101.0, 300.0])
    def test_gaussian_lattice_tail_matches_its_terms(self, std, d):
        dens = GaussianDensity(std)
        gamma = dens.lattice_tail(d)
        assert abs(gamma - _lattice_tail_reference(std, d)) <= 1e-12
        # the term-by-term sum is exact up to the mass it leaves out: 1.4e-12 at
        # std 1e3 and 1.5e-11 at std 1e4
        looped, last = _lattice_tail_term_by_term(dens, d)
        assert -1e-12 <= gamma - looped <= dens.tail_mass(d + last) + 1e-12
        if std <= 100.0:
            assert gamma == looped

    @pytest.mark.parametrize("d", [1.0, 2.0, 5.0])
    @pytest.mark.parametrize("width", [0.3, 1.0, 2.5, 7.0, 1e3, 1e9])
    def test_uniform_lattice_tail_lies_between_the_shifted_masses(self, width, d):
        dens = UniformDensity(width)
        alpha, _, gamma = tail_quantities(dens, d)
        assert alpha - 1e-12 <= gamma <= dens.tail_mass(d - 1.0) + 1e-12
        if width <= 1e3:    # the lattice sum of pdf values, term by term
            terms = [dens.pdf(d + m) + dens.pdf(-d - m) for m in range(int(width) + 2)]
            assert gamma == pytest.approx(math.fsum(terms), abs=1e-12)

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
        # an infinite cutoff gave beta = inf * 0 = NaN, reported as null
        with pytest.raises(ParameterError, match=r"cutoff must lie in \(0, inf\), got inf"):
            tail_quantities(dens, math.inf)
        with pytest.raises(ParameterError, match=r"cutoff must lie in \[1, inf\), got inf"):
            tail_entropy_bound(dens, math.inf, 1.0, 1.0)
        # NaN fails a `< 0.0` test and came back as a NaN bound
        with pytest.raises(ParameterError, match=r"entropy cap must lie in \[0, inf\)"):
            tail_entropy_bound(dens, 3.0, math.nan, 1.0)
        with pytest.raises(ParameterError, match=r"output entropy must lie in \[0, inf\)"):
            tail_entropy_bound(dens, 3.0, 1.0, math.nan)
        # a std of 1e300 puts all but about 1e-300 of the mass beyond d = 1: alpha rounds to 1
        with pytest.raises(ParameterError, match="^tail mass 1.0 leaves nothing inside the cutoff$"):
            tail_entropy_bound(GaussianDensity(1e300), 1.0, 1.0, 1.0)

    def test_huge_std_log_mass_is_finite(self):
        # log(s sqrt(2 pi)) overflowed to inf once s > 7.2e307, and beta was reported as null
        for std in (7.5e307, 1e308, np.finfo(float).max):
            _, beta, _ = tail_quantities(GaussianDensity(std), 2.0)
            assert math.isfinite(beta) and beta > 0.0, std

    @pytest.mark.parametrize("std", [0.1, 0.3, 1.0, 2.5, 7.5])
    def test_log_mass_sum_matches_the_log_of_the_product(self, std):
        dens = GaussianDensity(std)
        for d in (0.5, 1.0, 2.0, 4.0):
            y = d / std
            half_moment = y * math.exp(-y * y / 2.0) / math.sqrt(2 * math.pi) + math.erfc(y / math.sqrt(2.0)) / 2.0
            product_form = abs(-half_moment - math.log(std * math.sqrt(2 * math.pi)) * dens.tail_mass(d))
            assert dens.tail_log_mass(d) == pytest.approx(product_form, rel=1e-15, abs=0.0), d

    # the last column: whether the profile reach 4 / std, and so the default t-grid, is finite
    @pytest.mark.parametrize(
        "std, finite_reach", [(1e-300, True), (1e-308, False), (5e-324, False)]
    )
    def test_tiny_std_tails_are_finite(self, std, finite_reach):
        # s * s underflowed to 0 and the second moment divided by it
        dens = GaussianDensity(std)
        assert tail_quantities(dens, 2.0) == (0.0, 0.0, 0.0)
        assert tail_entropy_bound(dens, 2.0, 1.0, 1.0) == 0.0
        assert math.isfinite(dens.tail_log_mass(0.0))
        # the profile formed s^2 u^2, 0 * inf on the t-grid, with RuntimeWarnings (errors here)
        # and a NaN deviation; (s u)^2 stays finite
        spec = RandomPhaseSpec(1.0, 3, dens)
        if finite_reach:
            assert phase_complement_gram_deviation(spec, t_points=16) < 1e-12
        else:
            message = r"^t-grid half width must lie in \(0, inf\), got inf$"
            with pytest.raises(ParameterError, match=message):
                phase_complement_gram_deviation(spec, t_points=16)
