"""State containers, tensor helpers, and truncation primitives."""

import ast
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from roofkit import (
    DegenerateTruncationError,
    DensityMatrix,
    DimensionError,
    EnergyConstraint,
    GaussianDensity,
    NumericError,
    ParameterError,
    PureState,
    RandomPhaseSpec,
    RoofOptions,
    SubsystemShape,
    TruncationProjector,
    UniformDensity,
    ValidityError,
    basis_state,
    binary_entropy,
    cli,
    completely_depolarizing,
    continuity_probe,
    dephasing,
    direct_sum_mixture,
    extended_entropy,
    is_psd,
    margin_check,
    measure_prepare,
    min_orbit_energy,
    marginals,
    mixed_with,
    noiseless,
    partial_trace,
    partial_trace_channel,
    partial_transpose,
    phase_channel_complement_mp,
    power_trace,
    purify,
    random_density,
    random_phase_channel,
    random_pure,
    random_stinespring,
    random_unitary,
    rng_for,
    scan_random,
    tail_entropy_bound,
    tail_quantities,
    tensor,
    top_eigenbasis,
    trace_norm,
    trace_out,
    truncate_state,
    truncation_experiment,
)
from roofkit.core import has_type, hermitian_eig, require_hermitian, require_keep


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

    def test_repr_names_the_dimension(self):
        assert repr(random_pure(3, 0)) == "PureState(dim=3)"

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
        for dims in [(2.5, 2), (True, 2), ("2", 2)]:
            with pytest.raises(ParameterError, match="factor dimension must be an integer >= 1"):
                SubsystemShape(dims)
        with pytest.raises(ParameterError, match="a shape needs at least one factor dimension"):
            SubsystemShape(())

    def test_integral_float_factors_become_ints(self):
        dims = SubsystemShape((2.0, np.int64(3))).factor_dims
        assert dims == (2, 3)
        assert all(type(d) is int for d in dims)


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

    def test_solver_failure_is_a_numeric_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericError, match="^eigensolver did not converge: Eigen") as exc:
            hermitian_eig(np.eye(2))
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


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


# each seeded constructor, as the bytes it draws from a seed
SEEDED = {
    "random_density": lambda seed: random_density(3, 2, seed).entries,
    "random_pure": lambda seed: random_pure(3, seed).amplitudes,
    "random_stinespring": lambda seed: random_stinespring(2, 2, 2, seed).kraus,
    "random_unitary": lambda seed: random_unitary(3, seed),
}


@pytest.mark.parametrize("name", sorted(SEEDED))
@pytest.mark.parametrize("seed", [1.5, True, (0, 1.5)], ids=["float", "bool", "float-in-tuple"])
def test_seeds_must_be_integers(name, seed):
    # int() used to truncate 1.5 and True to the stream of seed 1
    bad = seed[1] if isinstance(seed, tuple) else seed
    message = f"seed or stream index must be an integer >= 0, got {bad!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        SEEDED[name](seed)


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_numpy_integer_seeds_draw_like_ints(name):
    for seed, same in ((np.int64(7), 7), ((np.int64(3), np.uint8(1)), (3, 1))):
        assert SEEDED[name](seed).tobytes() == SEEDED[name](same).tobytes()


FAST = RoofOptions(restarts=1, max_iterations=20)


def _phase_channel_report(samples):
    args = cli.build_parser().parse_args(["phase-channel", "--spec", '{"a": 1.0, "d": 3}'])
    args.samples = samples
    return cli.cmd_phase_channel(args)


# every count and index argument, as (what it builds from the count, its least value);
# each reads it through require_count
COUNTS = {
    "random_unitary.dim": (lambda n: random_unitary(n, 1), 1),
    "random_pure.dim": (lambda n: random_pure(n, 1).amplitudes, 1),
    "random_density.dim": (lambda n: random_density(n, 1, 1).entries, 1),
    "random_density.rank": (lambda n: random_density(3, n, 1).entries, 1),
    "top_eigenbasis.count": (lambda n: top_eigenbasis(random_density(3, 3, 1), n), 1),
    "basis_state.dim": (lambda n: basis_state(n, 1).amplitudes, 1),
    "basis_state.index": (lambda n: basis_state(3, n).amplitudes, 0),
    "partial_transpose.sys":
        (lambda n: partial_transpose(random_density(8, 8, 1).entries, (2, 2, 2), n), 0),
    "trace_out.dims": (lambda n: trace_out(np.eye(4) / 4, (n, 2), (1,)), 1),
    "partial_transpose.dims": (lambda n: partial_transpose(np.eye(4) / 4, (n, 2), 0), 1),
    "noiseless.dim": (lambda n: noiseless(n).kraus, 1),
    "completely_depolarizing.dim": (lambda n: completely_depolarizing(n).kraus, 1),
    "random_stinespring.in_dim": (lambda n: random_stinespring(n, 2, 2, 1).kraus, 1),
    "random_stinespring.out_dim": (lambda n: random_stinespring(2, n, 2, 1).kraus, 1),
    "random_stinespring.env_dim": (lambda n: random_stinespring(2, 2, n, 1).kraus, 1),
    "RandomPhaseSpec.grid_size":
        (lambda n: random_phase_channel(RandomPhaseSpec(1.0, n, GaussianDensity(1.0))).kraus, 1),
    "phase_channel_complement_mp.t_points": (lambda n: phase_channel_complement_mp(
        RandomPhaseSpec(1.0, 2, GaussianDensity(1.0)), t_points=n).kraus, 1),
    "RoofOptions.restarts": (lambda n: RoofOptions(restarts=n), 1),
    "RoofOptions.max_iterations": (lambda n: RoofOptions(max_iterations=n), 1),
    "RoofOptions.ensemble_size": (lambda n: RoofOptions(ensemble_size=n), 1),
    "RoofOptions.seed": (lambda n: RoofOptions(seed=n), 0),
    "continuity_probe.steps":
        (lambda n: continuity_probe(dephasing(0.25), random_density(2, 2, 1), n, options=FAST), 1),
    "scan_random.samples": (lambda n: scan_random(
        {"family": "noiseless", "dim": 2}, {"family": "dephasing", "q": 0.25}, n, options=FAST), 0),
    "phase-channel.--samples": (_phase_channel_report, 1),
    "SubsystemShape.factor_dims": (lambda n: SubsystemShape((n, 2)), 1),
    # an integral float index such as (1.0,) failed in numpy's transpose
    "partial_trace_channel.keep":
        (lambda n: partial_trace_channel(SubsystemShape((2, 2, 2)), (n,)).kraus, 0),
    "truncation_experiment.ranks": (lambda n: truncation_experiment(
        random_density(16, 16, 1), SubsystemShape((2, 2, 2, 2)), (n,), FAST), 1),
    "rng_for.stream": (lambda n: rng_for(0, n).random(), 0),
}


def _raw(result):
    return result.tobytes() if isinstance(result, np.ndarray) else repr(result)


@pytest.mark.parametrize("bad", ["fraction", "bool", "string", "below least"])
@pytest.mark.parametrize("name", sorted(COUNTS))
def test_counts_must_be_integers_in_range(name, bad):
    build, least = COUNTS[name]
    value = {"fraction": 2.5, "bool": True, "string": "2", "below least": least - 1}[bad]
    bounds = rf"(>= {least}|in \[{least}, \d+\])"
    message = f"must be an integer {bounds}, got {re.escape(repr(value))}$"
    with pytest.raises(ParameterError, match=message):
        build(value)


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_counts_above_maxsize_are_refused(name):
    value = sys.maxsize + 1
    bounds = rf"(an integer in \[\d+, \d+\]|at most {sys.maxsize})"
    with pytest.raises(ParameterError, match=f"must be {bounds}, got {value}$"):
        COUNTS[name][0](value)


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_integral_floats_and_numpy_integers_count_like_ints(name):
    build = COUNTS[name][0]
    want = _raw(build(2))
    assert _raw(build(2.0)) == want
    assert _raw(build(np.int64(2))) == want


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: random_density(3, 4, 1), "rank must be an integer in [1, 3], got 4"),
        (lambda: top_eigenbasis(random_density(3, 3, 1), 4),
         "count must be an integer in [1, 3], got 4"),
        (lambda: basis_state(3, 3), "index must be an integer in [0, 2], got 3"),
        (lambda: random_stinespring(5, 2, 2, 1), "input dimension must be an integer in [1, 4], got 5"),
        (lambda: partial_transpose(np.eye(4), (2, 2), 2),
         "factor index must be an integer in [0, 1], got 2"),
        # every count lies at or below the largest size numpy allocates by
        (lambda: noiseless(1e300), f"dimension must be at most {sys.maxsize}, got 1e+300"),
        (lambda: random_pure(10**20, 1),
         f"dimension must be at most {sys.maxsize}, got {10**20}"),
        (lambda: random_density(10**19, 1, 0),
         f"dimension must be at most {sys.maxsize}, got {10**19}"),
        (lambda: basis_state(10**20, 0), f"dimension must be at most {sys.maxsize}, got {10**20}"),
        (lambda: SubsystemShape((10**20, 2)),
         f"factor dimension must be at most {sys.maxsize}, got {10**20}"),
        # a fractional index passed the range test and the sort, and failed later in numpy
        (lambda: require_keep((0.5,), 2), "keep index must be an integer in [0, 1], got 0.5"),
        (lambda: partial_trace_channel(SubsystemShape((2, 2)), (0.5,)),
         "keep index must be an integer in [0, 1], got 0.5"),
        (lambda: truncation_experiment(random_density(16, 16, 1), SubsystemShape((2,) * 4), (3,)),
         "rank must be an integer in [1, 2], got 3"),
    ],
)
def test_bounded_counts_name_their_range(build, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        build()


# shapes and orders that do not fit together, each refused by its own rule
@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: truncation_experiment(random_density(8, 8, 1), SubsystemShape((2, 2, 2)), (1,)),
         ParameterError, "need a four-factor shape, got (2, 2, 2)"),
        (lambda: trace_out(np.eye(3), (2, 2), (0,)),
         DimensionError, "matrix shape (3, 3) does not match factors (2, 2)"),
        (lambda: partial_transpose(np.eye(4), (2, 3), 0),
         DimensionError, "matrix shape (4, 4) does not match factors (2, 3)"),
        (lambda: mixed_with(random_density(2, 2, 1), random_density(3, 3, 2), 0.5),
         DimensionError, "states live on different spaces"),
        (lambda: min_orbit_energy(np.eye(3), random_density(2, 2, 1)),
         DimensionError, "hamiltonian and state dimensions differ"),
        (lambda: TruncationProjector([np.eye(2)[:, :1], np.eye(2, 3)]),
         DimensionError, "bad column family shape (2, 3)"),
        (lambda: TruncationProjector([np.ones(2)]), DimensionError, "bad column family shape (2,)"),
        (lambda: require_keep((1, 0), 2),
         ParameterError, "keep indices must be non-empty and strictly increasing, got (1, 0)"),
        (lambda: require_keep((), 2),
         ParameterError, "keep indices must be non-empty and strictly increasing, got ()"),
    ],
    ids=["truncation-factors", "trace-out", "partial-transpose", "mixed-with", "min-orbit-energy",
         "projector-wide", "projector-1d", "keep-order", "keep-empty"],
)
def test_mismatched_shapes_name_their_rule(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


GAUSSIAN_SPEC = RandomPhaseSpec(1.0, 2, GaussianDensity(1.0))
NOISELESS = {"family": "noiseless", "dim": 2}

# every real argument, as (what it builds from the value, the name its error gives,
# its interval, a value just outside it); each reads it through require_real
REALS = {
    "dephasing.q": (lambda x: dephasing(x).kraus, "flip probability", "[0, 1]",
                    math.nextafter(1.0, 2.0)),
    "direct_sum_mixture.q": (lambda x: direct_sum_mixture(x, noiseless(2)).kraus,
                             "mixture weight", "[0, 1]", -5e-324),
    "mixed_with.t": (lambda x: mixed_with(random_density(2, 2, 1), random_density(2, 2, 2), x),
                     "mixing weight", "[0, 1]", math.nextafter(1.0, 2.0)),
    "binary_entropy.p": (binary_entropy, "probability", "[0, 1]", -5e-324),
    "power_trace.exponent": (lambda x: power_trace(random_density(2, 2, 1), x),
                             "exponent", "(0, 1)", 1.0),
    "GaussianDensity.std": (GaussianDensity, "standard deviation", "(0, inf)", 0.0),
    "UniformDensity.half_width": (UniformDensity, "half width", "(0, inf)", 0.0),
    # the grid spans 2 half_width, which must be finite
    "RandomPhaseSpec.half_width": (lambda x: RandomPhaseSpec(x, 2, GaussianDensity(1.0)),
                                   "half width", "(0, 8.98847e+307)", 1e308),
    "phase_channel_complement_mp.t_half_width":
        (lambda x: phase_channel_complement_mp(GAUSSIAN_SPEC, t_half_width=x).kraus,
         "t-grid half width", "(0, inf)", 0.0),
    "tail_quantities.d": (lambda x: tail_quantities(GaussianDensity(1.0), x),
                          "cutoff", "(0, inf)", 0.0),
    "tail_entropy_bound.d": (lambda x: tail_entropy_bound(GaussianDensity(1.0), x, 1.0, 1.0),
                             "cutoff", "[1, inf)", math.nextafter(1.0, 0.0)),
    # at a cutoff of 40 the tail mass is 0, so an infinite argument came back as 0 * inf = NaN
    "tail_entropy_bound.entropy_cap":
        (lambda x: tail_entropy_bound(GaussianDensity(1.0), 40.0, x, 1.0),
         "entropy cap", "[0, inf)", -5e-324),
    "tail_entropy_bound.out_entropy":
        (lambda x: tail_entropy_bound(GaussianDensity(1.0), 40.0, 1.0, x),
         "output entropy", "[0, inf)", -5e-324),
    "RoofOptions.grad_tol": (lambda x: RoofOptions(grad_tol=x), "grad_tol", "(0, inf)", 0.0),
    "margin_check.tolerance": (lambda x: margin_check(
        "superadditivity", dephasing(0.25), noiseless(2), random_density(4, 4, 1), FAST, x),
        "tolerance", "(-inf, inf)", -math.inf),
    "scan_random.tolerance": (lambda x: scan_random(NOISELESS, NOISELESS, 0, tolerance=x),
                              "tolerance", "(-inf, inf)", -math.inf),
    "EnergyConstraint.level": (lambda x: EnergyConstraint(np.diag([0.0, 1.0]), x),
                               "energy level", "(-inf, inf)", -math.inf),
}
REAL_INPUTS = {"bool": True, "string": "1", "None": None, "nan": math.nan, "inf": math.inf}


@pytest.mark.parametrize(
    "name, bad",
    [
        (name, bad)
        for name in sorted(REALS)
        for bad in (*REAL_INPUTS, "outside")
        # None asks for the default t-grid width, the profile's reach past the grid
        if (name, bad) != ("phase_channel_complement_mp.t_half_width", "None")
    ],
)
def test_reals_must_be_finite_reals_in_their_interval(name, bad):
    build, what, interval, outside = REALS[name]
    value = REAL_INPUTS.get(bad, outside)
    message = f"{what} must lie in {interval}, got {value!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        build(value)


@pytest.mark.parametrize("name", sorted(REALS))
def test_integers_and_numpy_floats_read_like_floats(name):
    build, _, interval, _ = REALS[name]
    inside = 0.5 if interval == "(0, 1)" else 1     # an int wherever the interval holds one
    want = _raw(build(float(inside)))
    assert _raw(build(inside)) == want
    assert _raw(build(np.float64(inside))) == want


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

    def test_zero_size_raises_dimension_error(self):
        # numpy's max has no identity on an empty array
        with pytest.raises(DimensionError, match=r"at least 1 x 1, got shape \(0, 0\)"):
            require_hermitian(np.zeros((0, 0)), 1e-8, "matrix")
        with pytest.raises(DimensionError, match="density matrix must be at least 1 x 1"):
            DensityMatrix(np.zeros((0, 0)))


class TestHasType:
    @pytest.mark.parametrize(
        "value, fits",
        [
            ([[1, 2], [3]], False), ([1, [2]], False), ([], True), ([[]], True),
            ([[], [1]], False), ([True], False), (["1"], False), ([[1, 2], [3, "a"]], False),
            (3, False), ([[[1.5]]], True), ({"a": 1}, False),
        ],
    )
    def test_list_takes_rectangular_nests_of_reals(self, value, fits):
        assert has_type(value, list) is fits

    def test_deep_nests_are_walked_without_recursion(self):
        rectangular, ragged = 0.5, [[0.5, 1.5], [2.5]]
        for depth in range(600):
            rectangular = [rectangular]
            ragged = [ragged] if depth < 598 else ragged
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            verdicts = has_type(rectangular, list), has_type(ragged, list)
        finally:
            sys.setrecursionlimit(limit)
        assert verdicts == (True, False)


def test_src_imports_only_numpy_and_the_stdlib():
    # numpy is the one runtime dependency; scipy may be installed and would pass unnoticed
    tops = set()
    for path in (Path(__file__).parent.parent / "src" / "roofkit").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops.add(node.module.split(".")[0])
    assert "numpy" in tops
    assert tops - {"numpy"} <= set(sys.stdlib_module_names)
