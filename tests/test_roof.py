"""Convex-roof optimizer, ensembles, and the two chi routes."""

import dataclasses
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
    complementary,
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
    rng_for,
    tensor,
    truncation_experiment,
    von_neumann_entropy,
)

from oracles import brute_force_qubit_roof, entropy_nats, wootters_eof_nats

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
        with pytest.raises(ValidityError, match="strictly positive"):
            Ensemble(np.array([math.nan, 1.0]), states)

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
        for tol in (math.nan, math.inf):
            with pytest.raises(ParameterError, match="positive and finite"):
                RoofOptions(grad_tol=tol)

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

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_default_options_converge_to_wootters(self, rank):
        # six seeded states per rank at the default RoofOptions: the best
        # restart meets grad_tol, and the value is Wootters'
        for i in range(6):
            omega = random_density(4, rank, (151, rank, i))
            res = eof(omega, self.SHAPE)
            gap = res.value - wootters_eof_nats(omega.entries)
            assert res.converged, f"state {i}: {res.iterations} iterations"
            assert -1e-12 <= gap <= 1e-7, f"state {i}: gap {gap:.2e}"

    def test_requires_two_factors(self):
        with pytest.raises(ParameterError):
            eof(random_density(8, 8, 31), SubsystemShape((2, 2, 2)), FAST)


def test_wootters_oracle_is_exact_on_pure_states():
    # a pure state's EoF is its marginal entropy, computed here without roofkit
    rng = np.random.default_rng(157)
    for _ in range(50):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        amp = psi.reshape(2, 2)
        marginal = entropy_nats(amp @ amp.conj().T)
        assert wootters_eof_nats(np.outer(psi, psi.conj())) == pytest.approx(marginal, abs=1e-13)


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
        # both routes read one witness ensemble, so they agree to rounding;
        # (in, out, env) adds env < out, env > out and a rank-deficient input
        cases = [((2, 2, 2), seed) for seed in range(5)]
        cases += [((2, 3, 2), 5), ((2, 2, 3), 6), ((3, 3, 2), 7)]
        for dims, seed in cases:
            ch = random_stinespring(*dims, (seed, 7))
            rho = random_density(dims[0], 2, (seed, 8))
            roof_route = chi_from_roof(ch, rho, FAST)
            direct_route = chi_direct(ch, rho, FAST)
            assert abs(roof_route - direct_route) <= 1e-12, dims


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


# (out, env) of each case's random_stinespring(3, out, env).  "-small-env"
# cases have fewer Kraus operators than outputs, so their pure members run on
# the complement's side of the dilation; "-side3" cases eigensolve 3 x 3
# member outputs, where the others eigensolve 2 x 2 ones
KRAUS_DIMS = {"": (2, 3), "small-env": (4, 2), "side3": (3, 3)}
OBJECTIVES = [
    "roof", "sphere", "roof-small-env", "sphere-small-env", "roof-side3", "sphere-side3",
]


def _kraus_case(objective, seed):
    objective, _, dims = objective.partition("-")
    return objective, random_stinespring(3, *KRAUS_DIMS[dims], seed).kraus_stack()


@pytest.mark.parametrize("case", OBJECTIVES)
def test_gradient_matches_central_differences(case):
    # dF = 2 Re<G, dM> for the Euclidean gradient G of every objective
    from roofkit.roof import _objective, _random_start, _support_factor

    rng = np.random.default_rng(61)
    objective, kstack = _kraus_case(case, 62)
    if objective == "sphere":
        f = _objective(kstack)
        m_mat = _random_start(rng, 3, 1)
    else:
        g, rank = _support_factor(random_density(3, 2, 63))  # rank-deficient
        assert rank == 2
        f = _objective(kstack, g)
        m_mat = _random_start(rng, rank * rank, rank)
    direction = rng.normal(size=m_mat.shape) + 1j * rng.normal(size=m_mat.shape)
    value, grad = f(m_mat, grad=True)
    if case.endswith("-side3"):
        # value-only calls take eigvalsh, and its eigenvalues of 3 x 3 and
        # larger outputs can differ from eigh's in the last bits
        assert value == pytest.approx(f(m_mat), rel=0.0, abs=1e-14)
    else:
        assert value == f(m_mat)
    h = 1e-5
    central = (f(m_mat + h * direction) - f(m_mat - h * direction)) / (2 * h)
    assert central == pytest.approx(2.0 * np.vdot(grad, direction).real, rel=1e-6)


def _stack_case(objective, seed):
    """The kernel of an objective, with its (size, rank)."""
    from roofkit.roof import _objective, _support_factor

    objective, kstack = _kraus_case(objective, seed)
    if objective == "sphere":
        return _objective(kstack), 3, 1
    g, rank = _support_factor(random_density(3, 2, seed + 1))
    return _objective(kstack, g), rank * rank, rank


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_no_restart_ends_above_its_start(objective):
    # the nonmonotone reference value keeps f_k <= C_k <= f_0, so a restart
    # stopped at any iteration cap is no higher than where it started
    from roofkit.roof import _lockstep, _random_start

    f, size, rank = _stack_case(objective, 82)
    starts = np.stack([_random_start(rng_for(84, i), size, rank) for i in range(8)])
    start_values = f(starts)
    for cap in (1, 2, 3, 5, 10, 30, 500):
        runs = _lockstep(f, starts, RoofOptions(max_iterations=cap))
        assert np.all(runs.value <= start_values), cap
        np.testing.assert_allclose(runs.value, f(runs.m_mat), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_batched_kernel_matches_points(objective):
    # a stack of points gives, row by row, the bits of one point at a time
    from roofkit.roof import _random_start

    rng = np.random.default_rng(71)
    f, size, rank = _stack_case(objective, 72)
    stack = np.stack([_random_start(rng, size, rank) for _ in range(5)])
    values = f(stack)
    grad_values, grads = f(stack, grad=True)
    assert values.shape == grad_values.shape == (5,)
    assert grads.shape == stack.shape
    for i, point in enumerate(stack):
        value, grad = f(point, grad=True)
        assert values[i] == f(point)
        assert grad_values[i] == value
        assert np.array_equal(grads[i], grad)


def _two_call_lockstep(value_fn, grad_fn, m_mat, options):
    """`_lockstep` with separate value and gradient calls, as a reference.

    Every trial point is evaluated by `value_fn` and every accepted point
    again by `grad_fn`.  `_lockstep` takes a first-round trial's value from
    its gradient call instead, so the two descents match bit for bit unless
    an acceptance test is decided within the rounding between `eigh` and
    `eigvalsh`.
    """
    from roofkit.roof import (
        ARMIJO, BB_MAX, BB_MIN, NONMONOTONE, _inner, _polar, _RunStats, _tangent,
    )

    value, grad = grad_fn(m_mat)
    ref, weight = value.copy(), np.ones(len(m_mat))
    end, grad_norm = m_mat.copy(), np.full(len(m_mat), math.inf)
    iterations = np.zeros(len(m_mat), dtype=int)
    live, x = np.arange(len(m_mat)), m_mat
    for it in range(1, options.max_iterations + 1):
        iterations[live] = it
        xi = _tangent(x, grad)
        squares = _inner(xi, xi)
        slope = 2.0 * squares
        t = np.ones(len(live))
        if it > 1:
            s, y = x - last_x, xi - last_xi
            sy = np.abs(_inner(s, y))
            num, den = (_inner(s, s), sy) if it % 2 else (sy, _inner(y, y))
            t = np.clip(np.divide(num, den, out=t, where=sy > 0.0), BB_MIN, BB_MAX)
        grad_norm[live] = np.sqrt(squares)
        t[grad_norm[live] < options.grad_tol] = 0.0
        accepted, following = np.zeros(len(live), dtype=bool), np.empty_like(x)
        search = np.arange(len(live))
        while (search := search[t[search] > 1e-14]).size:
            cand = _polar(x[search] - t[search, None, None] * xi[search])
            ok = value_fn(cand) <= ref[live[search]] - ARMIJO * t[search] * slope[search]
            following[search[ok]] = cand[ok]
            accepted[search[ok]] = True
            search = search[~ok]
            t[search] /= 2.0
        if not accepted.all():
            live, x, xi, following = (a[accepted] for a in (live, x, xi, following))
            if not live.size:
                break
        last_x, last_xi, x = x, xi, following
        end[live] = x
        value[live], grad = grad_fn(x)
        q = NONMONOTONE * weight[live]
        ref[live] = (q * ref[live] + value[live]) / (q + 1.0)
        weight[live] = q + 1.0
    return _RunStats(end, value, grad_norm, iterations, grad_norm < options.grad_tol)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_fused_trials_match_the_two_call_descent(objective):
    from roofkit.roof import _lockstep, _random_start

    f, size, rank = _stack_case(objective, 101)
    starts = np.stack([_random_start(rng_for(103, i), size, rank) for i in range(8)])
    backtracked = []

    def value_only(m_mat):
        backtracked.append(len(m_mat))
        return f(m_mat)

    for cap in (1, 3, 10, 500):
        options = RoofOptions(max_iterations=cap)
        fused = _lockstep(f, starts, options)
        reference = _two_call_lockstep(value_only, lambda m: f(m, grad=True), starts, options)
        for field in dataclasses.fields(fused):
            assert _same(getattr(fused, field.name), getattr(reference, field.name)), field.name
    # some rows backtracked, so late acceptances, which take a second
    # gradient call in _lockstep, were compared too
    assert backtracked


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_one_gradient_call_per_iteration_without_backtracks(objective, monkeypatch):
    # each backtracking round is one _polar (P) and one kernel call, with the
    # gradient on the first round (G) and value-only after it (V); an
    # iteration whose rows all pass at their first trial is "PG", and one that
    # backtracked ends with one gradient call for its late acceptances
    import re

    from roofkit import roof

    f, size, rank = _stack_case(objective, 101)
    starts = np.stack([roof._random_start(rng_for(103, i), size, rank) for i in range(8)])
    events, polar = [], roof._polar

    def record_polar(x):
        events.append("P")
        return polar(x)

    def record_f(m_mat, grad=False):
        events.append("G" if grad else "V")
        return f(m_mat, grad)

    monkeypatch.setattr(roof, "_polar", record_polar)
    runs = roof._lockstep(record_f, starts, RoofOptions(max_iterations=500))
    trace = "".join(events)
    assert re.fullmatch(r"G(?:PG(?:(?:PV)+G?)?)*", trace), trace
    assert "PGPG" in trace                            # an iteration without backtracks
    # one first round per iteration; the last iteration searches unless every
    # restart still live had converged
    last = runs.iterations == runs.iterations.max()
    assert trace.count("PG") == runs.iterations.max() - runs.converged[last].all()


def _eigh_spectral(a):
    """_spectral's value and dF/dA through eigh, as larger outputs take them."""
    from roofkit.roof import LOG_FLOOR

    lam, u = np.linalg.eigh(a)
    lam = np.clip(lam, 0.0, None)
    t = lam.sum(axis=-1)
    ent = -(lam * np.log(np.where(lam > 0.0, lam, 1.0))).sum(axis=-1)
    value = ent.sum(axis=-1) + (t * np.log(np.where(t > 0.0, t, 1.0))).sum(axis=-1)
    gvals = -np.log(np.maximum(lam, LOG_FLOOR)) + np.log(np.maximum(t, LOG_FLOOR))[..., None]
    return value, (u * gvals[..., None, :]) @ np.swapaxes(u.conj(), -1, -2)


def _member_outputs(rng, shape, scales=1.0):
    """(5, 16, 2, 2) outputs W W^H whose traces sum to one per batch index."""
    w = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scales
    w /= np.sqrt((np.abs(w) ** 2).sum(axis=(1, 2, 3), keepdims=True))
    return w @ np.swapaxes(w.conj(), -1, -2)


def _diagonal_outputs(rng):
    p = rng.random((5, 16, 2)) / 16
    p[:, ::2, 1] = p[:, ::2, 0]                        # disc = 0 on every other member
    return p[..., None] * np.eye(2)


QUBIT_OUTPUTS = {
    "random": lambda rng: _member_outputs(rng, (5, 16, 2, 3)),
    # member weights from 1e-16 to 1, as members fade from a decomposition
    "random-scales": lambda rng: _member_outputs(
        rng, (5, 16, 2, 3), np.logspace(-8, 0, 16)[None, :, None, None]
    ),
    "pure": lambda rng: _member_outputs(rng, (5, 16, 2, 1)),
    "near-pure": lambda rng: _member_outputs(rng, (5, 16, 2, 1))
    + 1e-17 * _member_outputs(rng, (5, 16, 2, 2)),
    "diagonal": _diagonal_outputs,
    "zero": lambda rng: np.zeros((5, 16, 2, 2), dtype=complex),
}


@pytest.mark.parametrize("kind", sorted(QUBIT_OUTPUTS))
def test_qubit_closed_form_matches_eigh(kind, monkeypatch):
    from roofkit.roof import _spectral

    a = QUBIT_OUTPUTS[kind](np.random.default_rng(151))
    if kind == "near-pure":
        assert np.linalg.eigvalsh(a)[..., 0].max() <= 1e-15
    expected_value, expected_d = _eigh_spectral(a)

    def forbidden(*args, **kwargs):
        raise AssertionError("2 x 2 outputs took a LAPACK eigensolve")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    value, d = _spectral(a, grad=True)
    assert np.array_equal(_spectral(a), value)
    assert np.abs(value - expected_value).max() <= 2e-13
    assert np.abs(d - expected_d).max() <= 1e-12
    assert np.array_equal(d, np.swapaxes(d.conj(), -1, -2))


def _svd_polar(x):
    u, _, vh = np.linalg.svd(x, full_matrices=False)
    return u @ vh


def _gaussian(rng, size, rank):
    return rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))


@pytest.mark.parametrize("size, rank", [(3, 1), (4, 2), (9, 3), (36, 6), (64, 36)])
def test_gram_polar_matches_svd_polar_on_tangent_steps(size, rank):
    # X - t xi has Gram I + t^2 xi^H xi: well conditioned for any step
    from roofkit.roof import _polar, _tangent

    rng = np.random.default_rng((92, size, rank))
    for _ in range(3):
        x = _svd_polar(_gaussian(rng, size, rank))
        xi = _tangent(x, _gaussian(rng, size, rank))
        xi /= np.linalg.norm(xi)
        for step in np.logspace(-3, 3, 13):
            cand = x - step * xi
            assert np.abs(_polar(cand) - _svd_polar(cand)).max() <= 1e-13, step


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 6, 36])
def test_gram_polar_matches_svd_polar_on_seeded_starts(rank):
    from roofkit.roof import SIZE_CAP, _random_start

    size = min(rank * rank, SIZE_CAP)
    for i in range(8):
        expected = _svd_polar(_gaussian(rng_for(93, i), size, rank))
        assert np.abs(_random_start(rng_for(93, i), size, rank) - expected).max() <= 1e-13


def test_square_starts_stay_orthonormal_within_1e9():
    # ensemble_size == rank gives square Gaussian starts, the Gram route's
    # one ill-conditioned input
    from roofkit.roof import _random_start

    for i in range(200):
        x = _random_start(rng_for(94, i), 36, 36)
        assert np.abs(x.conj().T @ x - np.eye(36)).max() <= 1e-9, i


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_lockstep_end_points_are_orthonormal(objective):
    from roofkit.roof import _lockstep, _random_start

    f, size, rank = _stack_case(objective, 95)
    starts = np.stack([_random_start(rng_for(96, i), size, rank) for i in range(8)])
    for cap in (1, 10, 500):
        runs = _lockstep(f, starts, RoofOptions(max_iterations=cap))
        gram = np.swapaxes(runs.m_mat.conj(), -1, -2) @ runs.m_mat
        assert np.abs(gram - np.eye(rank)).max() <= 1e-12, cap


def test_roof_paths_call_no_einsum_or_svd(monkeypatch):
    # the kernel runs on stacked matmuls and the retraction on a Gram eigh
    def forbidden(*args, **kwargs):
        raise AssertionError("the roof optimizer called np.einsum or np.linalg.svd")

    monkeypatch.setattr(np, "einsum", forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    rho = random_density(4, 3, 97)
    assert ccooe(random_stinespring(4, 3, 2, 98), rho, FAST).value > 0.0
    assert eof(rho, SubsystemShape((2, 2)), FAST).value > 0.0
    assert chi_direct(dephasing(0.3), random_density(2, 2, 99), FAST) > 0.0
    assert min_output_entropy(random_stinespring(3, 2, 3, 100), FAST)[0] > 0.0


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


STACK_CASES = {
    "eof-pure": lambda: eof(random_pure(4, 111).density(), SubsystemShape((2, 2)), FAST),
    "eof-rank2": lambda: eof(random_density(4, 2, 112), SubsystemShape((2, 2)), FAST),
    "eof-rank4": lambda: eof(random_density(4, 4, 113), SubsystemShape((2, 2)), FAST),
    # out 3 > env 2: the kernel runs on the complement's side
    "eof-3x2": lambda: eof(random_density(6, 3, 119), SubsystemShape((3, 2)), FAST),
    "ccooe-square-mixing": lambda: ccooe(
        random_stinespring(3, 3, 2, 114), random_density(3, 2, 115),
        RoofOptions(restarts=8, ensemble_size=2, seed=1),
    ),
    "ccooe-one-restart": lambda: ccooe(
        random_stinespring(3, 3, 2, 114), random_density(3, 2, 115), RoofOptions(restarts=1, seed=2)
    ),
    # pure outputs: the log singularity
    "min-output-noiseless": lambda: min_output_entropy(noiseless(3), FAST),
    # the rank-1 rung compresses the state to one dimension: a one-member roof
    "truncation-rank-one-rung": lambda: truncation_experiment(
        random_density(16, 16, 118), SubsystemShape((2, 2, 2, 2)), (1, 2)
    ),
    # the largest benchmark roof: rank 36, 64 members, 4 restarts
    "truncation-rank-36-rung": lambda: truncation_experiment(
        random_density(36, 36, 120), SubsystemShape((3, 2, 3, 2)), (3,)
    ),
}


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_results_do_not_depend_on_stack_companions(case, monkeypatch):
    # each restart descended alone gives the bits of the shared stack
    from roofkit import roof

    multistart, lockstep = roof._multistart, roof._lockstep

    def alone(f, starts, options):
        runs = [lockstep(f, start[None], options) for start in starts]
        return roof._RunStats(*(
            np.concatenate([getattr(r, f.name) for r in runs])
            for f in dataclasses.fields(roof._RunStats)
        ))

    def run(descend):
        best_runs, stacks = [], []

        def record_multistart(*args):
            best, idx = multistart(*args)
            best_runs.append((best.value, best.iterations, best.converged, best.grad_norm,
                              idx, best.m_mat))
            return best, idx

        def record_lockstep(f, starts, options):
            stacks.append(len(starts))
            return descend(f, starts, options)

        monkeypatch.setattr(roof, "_multistart", record_multistart)
        monkeypatch.setattr(roof, "_lockstep", record_lockstep)
        return _summary(STACK_CASES[case]()), best_runs, stacks

    together = run(lockstep)
    apart = run(alone)
    # one _lockstep stack per _multistart call
    assert together[2] == apart[2] and len(together[2]) == len(together[1])
    if case != "ccooe-one-restart":
        assert max(together[2]) > 1
    assert _same(together[0], apart[0])
    assert _same(together[1], apart[1])


REFINE_CASES = {
    f"eof-rank{rank}-seed{seed}": (
        lambda opts, rank=rank, seed=seed: eof(
            random_density(4, rank, (141, seed)), SubsystemShape((2, 2)), opts
        )
    )
    for rank in (2, 3, 4) for seed in range(2)
} | {
    f"ccooe-seed{seed}": (
        lambda opts, seed=seed: ccooe(
            random_stinespring(3, 3, 2, (142, seed)), random_density(3, 3, (143, seed)), opts
        )
    )
    for seed in range(3)
}


@pytest.mark.parametrize("case", sorted(REFINE_CASES))
def test_refinement_never_raises_a_roof(case):
    # restarts 0..R-1 repeat exactly at refined(), so the doubled run can
    # only keep the old best or replace it with a lower one
    opts = RoofOptions(restarts=3, max_iterations=60, seed=5)
    base = REFINE_CASES[case](opts)
    refined = REFINE_CASES[case](opts.refined())
    assert refined.restarts_used == 2 * base.restarts_used
    assert refined.value <= base.value
    if refined.best_restart < opts.restarts:
        assert _same(_summary(refined), _summary(base))


def test_kernel_side_is_the_smaller_one_for_pure_members(monkeypatch):
    from roofkit import roof

    sides, spectral = [], roof._spectral

    def record_spectral(a, grad=False):
        sides.append(a.shape[-1])
        return spectral(a, grad)

    monkeypatch.setattr(roof, "_spectral", record_spectral)
    kstack = random_stinespring(3, 4, 2, 121).kraus_stack()
    g, rank = roof._support_factor(random_density(3, 2, 122))
    unit = roof._random_start(rng_for(123), 3, 1)
    mixing = roof._random_start(rng_for(124), rank * rank, rank)
    for f, m_mat in [
        (roof._objective(kstack), unit),
        (roof._objective(kstack, g), mixing),
        (roof._objective(kstack.transpose(1, 0, 2), g), mixing),
    ]:
        f(m_mat)
        f(m_mat, grad=True)
    assert sides == [2] * 6


@pytest.mark.parametrize(
    "dims, rank",
    [
        ((3, 4, 2), 2), ((3, 3, 2), 3), ((2, 4, 1), 2), ((4, 3, 2), 4),
        (None, 2), ((2, 2, 2), 2), ((3, 3, 3), 3),
    ],
    ids=[
        "3-4-2-rank2", "3-3-2-rank3", "2-4-1-rank2", "4-3-2-rank4",
        "dephasing-rank2", "2-2-2-rank2", "3-3-3-rank3",
    ],
)
def test_roof_matches_complement_on_every_side(dims, rank):
    # (in, out, env), or None for dephasing(0.25), where in = out = env = 2
    if dims is None:
        channel, dims = dephasing(0.25), (2, 2, 2)
    else:
        channel = random_stinespring(*dims, (131, *dims))
    rho = random_density(dims[0], rank, (132, *dims))
    ours = ccooe(channel, rho, FAST)
    theirs = ccooe(complementary(channel), rho, FAST)
    assert ours.best_restart == theirs.best_restart
    assert ours.iterations == theirs.iterations
    if dims[2] < dims[1]:
        # env < out: both channels run on one Kraus stack.  With env = out each
        # eigensolves the other's arrangement of it, so the descents differ by
        # rounding: the gradient norms differ, and on other seeds a 3-3-3
        # channel at full rank can even end on another best restart
        assert ours.gradient_norm == theirs.gradient_norm
    assert ours.value == pytest.approx(theirs.value, abs=1e-12)
