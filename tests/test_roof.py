"""Convex-roof optimizer, ensembles, and the two chi routes."""

import math

import numpy as np
import pytest

from roofkit import (
    DensityMatrix,
    DimensionError,
    Ensemble,
    ParameterError,
    RoofOptions,
    ValidityError,
    SubsystemShape,
    average_output_entropy,
    basis_state,
    binary_entropy,
    ccooe,
    chi_direct,
    chi_from_roof,
    completely_depolarizing,
    dephasing,
    ensemble_from_mixing,
    eof,
    min_output_entropy,
    mixed_with,
    noiseless,
    output_entropy,
    random_density,
    random_pure,
    random_stinespring,
    tensor,
    truncation_experiment,
    von_neumann_entropy,
)

from oracles import brute_force_qubit_roof, wootters_eof_nats

FAST = RoofOptions(restarts=8, seed=0)


class TestEnsembleFromMixing:
    def test_pure_state_singleton(self):
        psi = random_pure(3, 1).density()
        ens = ensemble_from_mixing(psi, np.eye(1))
        assert len(ens.weights) == 1
        assert ens.weights[0] == pytest.approx(1.0, abs=1e-14)
        assert np.abs(ens.states[0].projector() - psi.entries).max() < 1e-10

    def test_identity_mixing_gives_eigenbasis(self):
        rho = DensityMatrix(np.eye(2) / 2)
        ens = ensemble_from_mixing(rho, np.eye(2))
        assert np.allclose(ens.weights, [0.5, 0.5])
        projs = sorted(np.abs(s.amplitudes[0]) ** 2 for s in ens.states)
        assert projs == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_hadamard_mixing_gives_plus_minus(self):
        rho = DensityMatrix(np.eye(2) / 2)
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        ens = ensemble_from_mixing(rho, h)
        assert np.allclose(ens.weights, [0.5, 0.5])
        for state in ens.states:
            assert abs(abs(state.amplitudes[0]) - 1.0 / math.sqrt(2.0)) < 1e-12
        assert np.abs(ens.barycenter().entries - rho.entries).max() < 1e-12

    def test_barycenter_reproduces_state(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho = random_density(3, 2, rng)
            m = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0]
            ens = ensemble_from_mixing(rho, m)
            assert np.abs(ens.barycenter().entries - rho.entries).max() < 1e-10

    def test_rejects_non_orthonormal_columns(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ParameterError):
            ensemble_from_mixing(rho, np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_rejects_too_few_rows(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ParameterError):
            ensemble_from_mixing(rho, np.eye(2)[:, :1])


class TestEnsemble:
    def test_weight_validation(self):
        states = [basis_state(2, 0), basis_state(2, 1)]
        with pytest.raises(ValidityError):
            Ensemble(np.array([0.6, 0.6]), states)
        with pytest.raises(ValidityError):
            Ensemble(np.array([1.0, 0.0]), states)
        with pytest.raises(ParameterError):
            Ensemble(np.array([1.0]), states)

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            Ensemble(np.array([0.5, 0.5]), [basis_state(2, 0), basis_state(3, 0)])


class TestAverageOutputEntropy:
    def test_noiseless_always_zero(self):
        ens = ensemble_from_mixing(DensityMatrix(np.eye(2) / 2), np.eye(2))
        assert average_output_entropy(noiseless(2), ens) == pytest.approx(0.0, abs=1e-12)

    def test_depolarizing_always_log_two(self):
        ens = ensemble_from_mixing(DensityMatrix(np.eye(2) / 2), np.eye(2))
        assert average_output_entropy(completely_depolarizing(2), ens) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_dephasing_invariant_basis(self):
        ens = ensemble_from_mixing(DensityMatrix(np.eye(2) / 2), np.eye(2))
        assert average_output_entropy(dephasing(0.25), ens) == pytest.approx(0.0, abs=1e-12)


class TestCcooe:
    def test_noiseless_channel_vanishes(self):
        for d in (2, 3, 8):
            rho = random_density(d, d, (d, 0))
            assert ccooe(noiseless(d), rho, FAST).value <= 1e-9

    def test_pure_input_reproduces_output_entropy(self):
        for seed in range(5):
            ch = random_stinespring(3, 3, 2, (seed, 1))
            psi = random_pure(3, (seed, 2)).density()
            res = ccooe(ch, psi, FAST)
            assert res.value == pytest.approx(output_entropy(ch, psi), abs=1e-9)

    def test_dephasing_maximally_mixed_vanishes(self):
        for q in (0.1, 0.25, 0.5):
            res = ccooe(dephasing(q), DensityMatrix(np.eye(2) / 2), FAST)
            assert res.value <= 1e-8

    def test_upper_bound_soundness(self):
        # returned value re-evaluates from the returned ensemble and the
        # ensemble still averages to the input state
        for seed in range(5):
            ch = random_stinespring(2, 2, 2, (seed, 3))
            rho = random_density(2, 2, (seed, 4))
            res = ccooe(ch, rho, FAST)
            recomputed = average_output_entropy(ch, res.ensemble)
            assert res.value == pytest.approx(recomputed, abs=1e-9)
            assert np.abs(res.ensemble.barycenter().entries - rho.entries).max() < 1e-8
            assert res.value <= output_entropy(ch, rho) + 1e-9

    def test_matches_brute_force_grid(self):
        rng = np.random.default_rng(8)
        ch = dephasing(0.3)
        for _ in range(3):
            # real-entried rank-2 qubit states keep the oracle grid faithful
            a = rng.normal(size=(2, 2))
            rho = DensityMatrix(a @ a.T / np.trace(a @ a.T))
            grid = brute_force_qubit_roof([k for k in ch.kraus], rho.entries, steps=100)
            res = ccooe(ch, rho, RoofOptions(restarts=8, ensemble_size=2, seed=1))
            assert res.value <= grid + 1e-6
            assert res.value >= grid - 1e-3

    def test_monotone_in_ensemble_size(self):
        cases = []
        for i in range(20):
            d = 2 + i % 3
            cases.append(
                (
                    random_stinespring(d, d, 2, (i, 5)),
                    random_density(d, 2, (i, 6)),
                )
            )
        # the comparison needs both runs actually converged, so tighten the
        # gradient tolerance well below the 1e-8 assertion
        tight = dict(restarts=8, grad_tol=1e-9, max_iterations=2000, seed=2)
        for ch, rho in cases:
            small = ccooe(ch, rho, RoofOptions(ensemble_size=2, **tight)).value
            large = ccooe(ch, rho, RoofOptions(ensemble_size=3, **tight)).value
            assert large <= small + 1e-8

    def test_convexity_surrogate(self):
        ch = dephasing(0.35)
        rng = np.random.default_rng(19)
        for _ in range(10):
            rho = random_density(2, 2, rng)
            sigma = random_density(2, 2, rng)
            t = float(rng.uniform(0.1, 0.9))
            mix = mixed_with(rho, sigma, 1.0 - t)
            lhs = ccooe(ch, mix, FAST).value
            rhs = t * ccooe(ch, rho, FAST).value + (1.0 - t) * ccooe(ch, sigma, FAST).value
            assert lhs <= rhs + 5e-3

    def test_deterministic_across_calls(self):
        ch = random_stinespring(2, 2, 2, 77)
        rho = random_density(2, 2, 78)
        a = ccooe(ch, rho, FAST)
        b = ccooe(ch, rho, FAST)
        assert a.value == b.value
        assert np.array_equal(a.ensemble.weights, b.ensemble.weights)

    def test_ensemble_size_below_rank_rejected(self):
        rho = random_density(3, 3, 9)
        with pytest.raises(ParameterError):
            ccooe(noiseless(3), rho, RoofOptions(ensemble_size=2))

    def test_options_validation(self):
        with pytest.raises(ParameterError):
            RoofOptions(restarts=0)
        with pytest.raises(ParameterError):
            RoofOptions(max_iterations=0)
        with pytest.raises(ParameterError):
            RoofOptions(grad_tol=0.0)

    def test_refined_doubles_restarts(self):
        opts = RoofOptions(restarts=6, seed=5)
        finer = opts.refined()
        assert finer.restarts == 12
        assert finer.seed == opts.seed


class TestEof:
    SHAPE = SubsystemShape((2, 2))

    def test_pure_state_gives_marginal_entropy(self):
        psi = random_pure(4, 21).density()
        res = eof(psi, self.SHAPE, FAST)
        from roofkit import partial_trace

        expected = von_neumann_entropy(partial_trace(psi, self.SHAPE, keep=(0,)))
        assert res.value == pytest.approx(expected, abs=1e-9)

    def test_separable_diagonal_vanishes(self):
        omega = 0.6 * tensor(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])) + 0.4 * tensor(
            np.diag([0.0, 1.0]), np.diag([0.0, 1.0])
        )
        res = eof(DensityMatrix(omega), self.SHAPE, FAST)
        assert res.value <= 1e-8

    def test_swap_symmetry(self):
        omega = random_density(4, 3, 23)
        keep_first = eof(omega, self.SHAPE, FAST).value
        from roofkit import partial_trace_channel

        swapped_channel = partial_trace_channel(self.SHAPE, keep=(1,))
        keep_second = ccooe(swapped_channel, omega, FAST).value
        assert keep_first == pytest.approx(keep_second, abs=1e-8)

    def test_wootters_window_spot_check(self):
        rng = np.random.default_rng(29)
        opts = RoofOptions(restarts=24, seed=3)
        for _ in range(3):
            omega = random_density(4, 4, rng)
            res = eof(omega, self.SHAPE, opts)
            exact = wootters_eof_nats(omega.entries)
            assert res.value >= exact - 1e-9
            assert res.value <= exact + 2e-3

    def test_requires_two_factors(self):
        with pytest.raises(ParameterError):
            eof(random_density(8, 8, 31), SubsystemShape((2, 2, 2)), FAST)


class TestChi:
    def test_pure_state_chi_vanishes(self):
        ch = random_stinespring(2, 2, 2, 41)
        psi = random_pure(2, 42).density()
        assert chi_from_roof(ch, psi, FAST) == pytest.approx(0.0, abs=1e-9)

    def test_dephasing_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert chi_from_roof(dephasing(0.25), rho, FAST) == pytest.approx(
            math.log(2.0), abs=1e-8
        )
        assert chi_direct(dephasing(0.25), rho, FAST) == pytest.approx(
            math.log(2.0), abs=5e-3
        )

    def test_depolarizing_chi_vanishes(self):
        rho = random_density(2, 2, 44)
        assert chi_from_roof(completely_depolarizing(2), rho, FAST) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_noiseless_direct_reaches_log_two(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert chi_direct(noiseless(2), rho, FAST) == pytest.approx(math.log(2.0), abs=5e-3)

    def test_routes_agree_on_random_qubit_channels(self):
        for seed in range(5):
            ch = random_stinespring(2, 2, 2, (seed, 7))
            rho = random_density(2, 2, (seed, 8))
            roof_route = chi_from_roof(ch, rho, FAST)
            direct_route = chi_direct(ch, rho, FAST)
            assert roof_route >= direct_route - 5e-3
            assert abs(roof_route - direct_route) <= 5e-3

    def test_group_size_allows_mixed_members(self):
        rho = DensityMatrix(np.eye(2) / 2)
        val = chi_direct(dephasing(0.25), rho, FAST, group_size=2)
        assert -1e-9 <= val <= math.log(2.0) + 1e-9


class TestMinOutputEntropy:
    def test_noiseless(self):
        value, _ = min_output_entropy(noiseless(3), FAST)
        assert value <= 1e-9

    def test_depolarizing_floor(self):
        value, _ = min_output_entropy(completely_depolarizing(2), FAST)
        assert value == pytest.approx(math.log(2.0), abs=1e-9)

    def test_dephasing_invariant_states(self):
        value, witness = min_output_entropy(dephasing(0.25), FAST)
        assert value <= 1e-8
        assert output_entropy(dephasing(0.25), witness.density()) == pytest.approx(
            value, abs=1e-9
        )


@pytest.mark.parametrize("objective", ["roof", "chi-grouped", "sphere"])
def test_gradient_matches_central_differences(objective):
    # dF = 2 Re<G, dM> for the Euclidean gradient G of every objective
    from roofkit.roof import _objective, _random_start, _support_factor

    rng = np.random.default_rng(61)
    kstack = random_stinespring(3, 2, 3, 62).kraus_stack()
    if objective == "sphere":
        value_fn, grad_fn = _objective(kstack)
        m_mat = _random_start(rng, 3, 1)
    else:
        g, rank = _support_factor(random_density(3, 2, 63))  # rank-deficient
        assert rank == 2
        value_fn, grad_fn = _objective(kstack, g, 2 if objective == "chi-grouped" else 1)
        m_mat = _random_start(rng, rank * rank, rank)
    direction = rng.normal(size=m_mat.shape) + 1j * rng.normal(size=m_mat.shape)
    value, grad = grad_fn(m_mat)
    assert value == value_fn(m_mat)
    h = 1e-5
    central = (value_fn(m_mat + h * direction) - value_fn(m_mat - h * direction)) / (2 * h)
    assert central == pytest.approx(2.0 * np.vdot(grad, direction).real, rel=1e-6)


@pytest.mark.parametrize("objective", ["roof", "chi-grouped", "sphere"])
def test_batched_kernel_matches_points(objective):
    # a stack of points gives, row by row, the bits of one point at a time
    from roofkit.roof import _objective, _random_start, _support_factor

    rng = np.random.default_rng(71)
    kstack = random_stinespring(3, 2, 3, 72).kraus_stack()
    if objective == "sphere":
        value_fn, grad_fn = _objective(kstack)
        size, rank = 3, 1
    else:
        # rank 3 gives 9 members, so grouping by 2 leaves a singleton block
        g, rank = _support_factor(random_density(3, 3 if objective == "chi-grouped" else 2, 73))
        value_fn, grad_fn = _objective(kstack, g, 2 if objective == "chi-grouped" else 1)
        size = rank * rank
    stack = np.stack([_random_start(rng, size, rank) for _ in range(5)])
    values = value_fn(stack)
    grad_values, grads = grad_fn(stack)
    assert values.shape == grad_values.shape == (5,)
    assert grads.shape == stack.shape
    for i, point in enumerate(stack):
        value, grad = grad_fn(point)
        assert values[i] == value_fn(point)
        assert grad_values[i] == value
        assert np.array_equal(grads[i], grad)


def _summary(out):
    """Every bit of a public result that a restart's trajectory decides."""
    if hasattr(out, "ensemble"):
        return (out.value, out.iterations, out.converged, out.best_restart, out.gradient_norm,
                out.ensemble.weights, np.array([s.amplitudes for s in out.ensemble.states]))
    if hasattr(out, "steps"):
        return [(s.weight, s.output_entropy, s.roof_value) for s in out.steps]
    if isinstance(out, tuple):
        return (out[0], out[1].amplitudes)
    return out


def _same(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


BUDGET_CASES = {
    "eof-pure": lambda: eof(random_pure(4, 111).density(), SubsystemShape((2, 2)), FAST),
    "eof-rank2": lambda: eof(random_density(4, 2, 112), SubsystemShape((2, 2)), FAST),
    "eof-rank4": lambda: eof(random_density(4, 4, 113), SubsystemShape((2, 2)), FAST),
    "ccooe-square-mixing": lambda: ccooe(
        random_stinespring(3, 3, 2, 114), random_density(3, 2, 115),
        RoofOptions(restarts=8, ensemble_size=2, seed=1),
    ),
    "ccooe-one-restart": lambda: ccooe(
        random_stinespring(3, 3, 2, 114), random_density(3, 2, 115), RoofOptions(restarts=1, seed=2)
    ),
    # 9 members grouped by 2
    "chi-grouped-odd": lambda: chi_direct(
        random_stinespring(3, 3, 2, 116), random_density(3, 3, 117), FAST, group_size=2
    ),
    # pure outputs: the log singularity
    "min-output-noiseless": lambda: min_output_entropy(noiseless(3), FAST),
    # the rank-1 rung compresses the state to one dimension: a one-member roof
    "truncation-rank-one-rung": lambda: truncation_experiment(
        random_density(16, 16, 118), SubsystemShape((2, 2, 2, 2)), (1, 2)
    ),
}


@pytest.mark.parametrize("case", sorted(BUDGET_CASES))
def test_results_do_not_depend_on_batch_budget(case, monkeypatch):
    from roofkit import roof

    multistart, lockstep = roof._multistart, roof._lockstep

    def run():
        best_runs, batches = [], []

        def record_multistart(*args):
            best, idx = multistart(*args)
            best_runs.append((best.value, best.iterations, best.converged, best.grad_norm,
                              idx, best.m_mat))
            return best, idx

        def record_lockstep(value_fn, grad_fn, starts, options):
            batches.append(len(starts))
            return lockstep(value_fn, grad_fn, starts, options)

        monkeypatch.setattr(roof, "_multistart", record_multistart)
        monkeypatch.setattr(roof, "_lockstep", record_lockstep)
        return _summary(BUDGET_CASES[case]()), best_runs, batches

    together = run()
    monkeypatch.setattr(roof, "BATCH_ENTRIES", 1)
    alone = run()
    assert set(alone[2]) == {1}
    if case != "ccooe-one-restart":
        assert max(together[2]) > 1
    assert _same(together[0], alone[0])
    assert _same(together[1], alone[1])
