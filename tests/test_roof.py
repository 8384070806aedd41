"""Convex-roof optimizer, ensembles, and the two chi routes."""

import dataclasses
import math

import numpy as np
import pytest

from roofkit import (
    Channel,
    DensityMatrix,
    DimensionError,
    Ensemble,
    ParameterError,
    PureState,
    RoofOptions,
    ValidityError,
    SubsystemShape,
    apply,
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
    partial_trace_channel,
    random_density,
    random_pure,
    random_stinespring,
    random_unitary,
    relative_entropy,
    rng_for,
    tensor,
    tensor_channel,
    truncation_experiment,
    von_neumann_entropy,
)

from oracles import (
    brute_force_qubit_roof,
    entropy_nats,
    isotropic_eof_nats,
    isotropic_state,
    qudit_werner_eof_nats,
    qudit_werner_state,
    wootters_eof_nats,
)

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

    def test_rejects_a_mixing_matrix_that_is_not_2d(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ParameterError, match=r"^mixing matrix must be 2-d, got shape \(2,\)$"):
            ensemble_from_mixing(rho, np.ones(2))

    def test_rejects_non_finite_entries(self):
        # NaN fails the orthonormality comparison, and its members would be
        # dropped as weightless: the rest missed rho by 0.177
        rho = random_density(2, 2, 1)
        with pytest.raises(ValidityError, match="^mixing matrix has non-finite entries$"):
            ensemble_from_mixing(rho, np.array([[1.0, 0.0], [math.nan, 1.0]]))


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

    @pytest.mark.parametrize("channel, dim, rank, size", [
        (noiseless(3), 3, 3, 9),                                  # pure outputs
        (random_stinespring(3, 4, 2, 97), 3, 2, 4),               # outputs of rank 2 in 4 dims
        (partial_trace_channel(SubsystemShape((6, 6)), (0,)), 36, 36, 64),  # 36-dim members
    ], ids=["pure-outputs", "rank-deficient-outputs", "36-dim-members"])
    def test_matches_the_member_by_member_sum(self, channel, dim, rank, size):
        # one stacked eigensolve of the member outputs gives the bits of one
        # output_entropy per member
        from roofkit.roof import _random_starts

        rho = random_density(dim, rank, (98, dim))
        ens = ensemble_from_mixing(rho, _random_starts([rng_for(99, dim)], size, rank)[0])
        assert len(ens) == size
        expected = sum(w * output_entropy(channel, s.density()) for w, s in zip(ens.weights, ens.states))
        assert average_output_entropy(channel, ens) == float(expected)

    def test_members_must_match_the_channel_input(self):
        ens = ensemble_from_mixing(DensityMatrix(np.eye(2) / 2), np.eye(2))
        with pytest.raises(DimensionError):
            average_output_entropy(noiseless(3), ens)


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

    def test_rho_is_eigensolved_once_per_roof(self, monkeypatch):
        # the support factor that sets the descent also reads the witness
        from roofkit import roof

        calls, eig = [], roof.hermitian_eig
        monkeypatch.setattr(roof, "hermitian_eig", lambda a: calls.append(a) or eig(a))
        ccooe(random_stinespring(3, 3, 2, 116), random_density(3, 2, 117), FAST)
        assert len(calls) == 1

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

    def test_restarts_agreeing(self):
        # a pure state has one decomposition, so every restart agrees
        psi = random_pure(4, 3).density()
        assert eof(psi, SubsystemShape((2, 2)), FAST).restarts_agreeing == FAST.restarts
        # one iteration leaves each restart near its own start
        rho = random_density(4, 4, 7)
        capped = eof(rho, SubsystemShape((2, 2)), RoofOptions(restarts=8, max_iterations=1))
        assert capped.restarts_agreeing == 1
        full = eof(rho, SubsystemShape((2, 2)), RoofOptions(restarts=8))
        assert 1 < full.restarts_agreeing <= 8

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

    def test_default_ensemble_size_is_never_below_the_rank(self):
        # min(r^2, 64) was 64 at rank 65, so every default roof there was refused
        rho = DensityMatrix(np.eye(65) / 65)
        res = ccooe(noiseless(65), rho, RoofOptions(restarts=1))
        assert len(res.ensemble.weights) <= 65
        assert np.abs(res.ensemble.barycenter().entries - rho.entries).max() <= 1e-12
        assert res.value == pytest.approx(0.0, abs=1e-9)    # pure members stay pure

    def test_state_must_fit_the_channel_input(self):
        with pytest.raises(DimensionError, match=r"^state dimension 3 != channel input 2$"):
            ccooe(noiseless(2), random_density(3, 3, 1), FAST)

    def test_options_validation(self):
        with pytest.raises(ParameterError):
            RoofOptions(restarts=0)
        with pytest.raises(ParameterError):
            RoofOptions(max_iterations=0)
        with pytest.raises(ParameterError):
            RoofOptions(grad_tol=0.0)
        for tol in (math.nan, math.inf):
            with pytest.raises(ParameterError, match=r"grad_tol must lie in \(0, inf\)"):
                RoofOptions(grad_tol=tol)

    @pytest.mark.parametrize(
        "field, value",
        [("restarts", 2.5), ("max_iterations", 10.5), ("ensemble_size", 4.5), ("restarts", True),
         ("ensemble_size", False), ("seed", 1.5), ("seed", -1), ("seed", True), ("seed", "1")],
    )
    def test_counts_and_seed_must_be_integers(self, field, value):
        # a float count used to fail mid-descent, and seed=1.5 ran as seed 1
        with pytest.raises(ParameterError, match=f"^{field} must be an integer >= "):
            RoofOptions(**{field: value})

    def test_numpy_integers_are_counts(self):
        opts = RoofOptions(restarts=np.int64(2), ensemble_size=np.int32(4), seed=np.uint8(3))
        assert (opts.restarts, opts.ensemble_size, opts.seed) == (2, 4, 3)

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


# isotropic F = 0.95, and 0.8 at d = 4, lie above 4(d - 1)/d^2, on the straight
# part of the hull; the antisymmetric Werner state (p = 1) is a flat roof at ln 2,
# exact whichever tied witness is kept.  d = 4 runs only where a roof takes
# about a second.
CLOSED_FORM_ROOFS = [
    *[(3, "isotropic", f) for f in (0.6, 0.8, 0.95)],
    *[(3, "werner", p) for p in (0.7, 0.9, 1.0)],
    *[(4, "isotropic", f) for f in (0.6, 0.8)],
    *[(4, "werner", p) for p in (0.7, 1.0)],
]


@pytest.mark.parametrize("dim, family, param", CLOSED_FORM_ROOFS,
                         ids=[f"{fam}-d{d}-{x:g}" for d, fam, x in CLOSED_FORM_ROOFS])
def test_eigh_path_roofs_meet_closed_forms(dim, family, param):
    # qudit EoF runs the roof on the eigh kernel, in a random local frame U (x) V
    if family == "isotropic":
        state, exact = isotropic_state(dim, param), isotropic_eof_nats(dim, param)
    else:
        state, exact = qudit_werner_state(dim, param), qudit_werner_eof_nats(param)
    frame = tensor(random_unitary(dim, (dim, 1)), random_unitary(dim, (dim, 2)))
    rho = frame @ state @ frame.conj().T
    res = eof(DensityMatrix((rho + rho.conj().T) / 2.0), SubsystemShape((dim, dim)), FAST)
    assert abs(res.value - exact) <= 1e-9


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


@pytest.fixture
def descents(monkeypatch):
    """The option sets of every roof descent, starting from an empty chi slot."""
    from roofkit import roof

    calls, multistart = [], roof._multistart

    def record(f, size, d, options):
        calls.append(options)
        return multistart(f, size, d, options)

    monkeypatch.setattr(roof, "_multistart", record)
    monkeypatch.setattr(roof, "_last_chi", (None, None))
    return calls


SLOT_OPTS = RoofOptions(restarts=3, max_iterations=40, seed=1)


def _slot_input():
    return random_stinespring(2, 2, 2, 61), random_density(2, 2, 62)


def _one_kraus_entry_moved(ch):
    k0 = ch.kraus[0].copy()
    k0[0, 0] += 1e-13                                   # still trace preserving within 1e-9
    return Channel([k0, *ch.kraus[1:]])


SLOT_VARIANTS = {
    "kraus-entry": lambda ch, rho, o: (_one_kraus_entry_moved(ch), rho, o),
    "rho": lambda ch, rho, o: (ch, random_density(2, 2, 63), o),
    "seed": lambda ch, rho, o: (ch, rho, dataclasses.replace(o, seed=2)),
    "restarts": lambda ch, rho, o: (ch, rho, dataclasses.replace(o, restarts=4)),
    "max_iterations": lambda ch, rho, o: (ch, rho, dataclasses.replace(o, max_iterations=41)),
}


class TestChiSlot:
    """A chi call repeating the previous chi call's inputs reuses its roof."""

    def test_both_routes_at_one_input_descend_once(self, descents):
        ch, rho = _slot_input()
        roof_route = chi_from_roof(ch, rho, SLOT_OPTS)
        direct_route = chi_direct(ch, rho, SLOT_OPTS)
        assert len(descents) == 1
        assert abs(roof_route - direct_route) <= 1e-12
        # equal inputs in new objects, and None for the default options, hit too
        ch2, rho2 = _slot_input()
        chi_direct(ch2, DensityMatrix(rho2.entries.copy()), dataclasses.replace(SLOT_OPTS))
        chi_from_roof(ch, rho)
        chi_direct(ch, rho, RoofOptions())
        assert descents == [SLOT_OPTS, RoofOptions()]

    @pytest.mark.parametrize("variant", sorted(SLOT_VARIANTS))
    def test_any_changed_input_descends_again(self, descents, variant):
        ch, rho = _slot_input()
        chi_from_roof(ch, rho, SLOT_OPTS)
        chi_direct(*SLOT_VARIANTS[variant](ch, rho, SLOT_OPTS))
        assert len(descents) == 2
        # the slot keeps one roof: the first input's is gone
        chi_from_roof(ch, rho, SLOT_OPTS)
        assert len(descents) == 3

    def test_reused_value_matches_a_descent_bit_for_bit(self, descents):
        ch, rho = _slot_input()
        chi_from_roof(ch, rho, SLOT_OPTS)
        from_slot = chi_direct(ch, rho, SLOT_OPTS)
        chi_from_roof(*SLOT_VARIANTS["rho"](ch, rho, SLOT_OPTS))    # evicts the slot
        descended = chi_direct(ch, rho, SLOT_OPTS)
        assert len(descents) == 3
        assert from_slot.hex() == descended.hex()

    def test_members_outside_the_output_support_are_discarded_with_a_warning(
        self, descents, monkeypatch
    ):
        from roofkit import roof

        ch, rho = noiseless(2), basis_state(2, 0).density()
        # a slot roof with a member |1>, which the channel keeps outside supp ch(|0><0|)
        ensemble = Ensemble(np.array([0.5, 0.5]), [basis_state(2, 0), basis_state(2, 1)])
        key = (ch.kraus.shape, ch.kraus.tobytes(), rho.entries.tobytes(), SLOT_OPTS)
        slot = roof.RoofResult(0.0, ensemble, 0, 0.0, 0, 1, ("grad_tol",))
        monkeypatch.setattr(roof, "_last_chi", (key, slot))
        message = r"^discarded 1 ensemble member\(s\) with infinite relative entropy$"
        with pytest.warns(RuntimeWarning, match=message):
            value = chi_direct(ch, rho, SLOT_OPTS)
        assert value == 0.0 and descents == []

    def test_one_reference_eigensolve_serves_every_member(self, descents, monkeypatch):
        # channel(rho) is rank deficient and the slot's last member lies
        # outside its support, so that member's term is infinite and discarded
        from roofkit import roof

        ch = noiseless(3)
        rho = DensityMatrix(np.diag([0.6, 0.4, 0.0]).astype(complex))
        plus = PureState(np.array([1.0, 1.0j, 0.0]) / math.sqrt(2.0))
        members = [basis_state(3, 0), basis_state(3, 1), plus, basis_state(3, 2)]
        ensemble = Ensemble(np.array([0.4, 0.3, 0.2, 0.1]), members)
        key = (ch.kraus.shape, ch.kraus.tobytes(), rho.entries.tobytes(), SLOT_OPTS)
        slot = roof.RoofResult(0.0, ensemble, 0, 0.0, 0, 1, ("grad_tol",))
        monkeypatch.setattr(roof, "_last_chi", (key, slot))
        expected = 0.0
        for w, s in zip(ensemble.weights, ensemble.states):
            term = relative_entropy(apply(ch, s.density()), apply(ch, rho))
            if not math.isinf(term):
                expected += w * term
        eigensolves, eig = [], roof.hermitian_eig
        monkeypatch.setattr(roof, "hermitian_eig", lambda a: eigensolves.append(a) or eig(a))
        with pytest.warns(RuntimeWarning, match=r"^discarded 1 ensemble member\(s\)"):
            value = chi_direct(ch, rho, SLOT_OPTS)
        assert value == float(expected) and value > 0.0
        assert len(eigensolves) == 1 and descents == []

    def test_ccooe_never_reads_the_slot(self, descents):
        ch, rho = _slot_input()
        chi_from_roof(ch, rho, SLOT_OPTS)
        ccooe(ch, rho, SLOT_OPTS)
        ccooe(ch, rho, SLOT_OPTS)
        assert len(descents) == 3


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
    return objective, random_stinespring(3, *KRAUS_DIMS[dims], seed).kraus


@pytest.mark.parametrize("case", OBJECTIVES)
def test_gradient_matches_central_differences(case):
    # dF = 2 Re<G, dM> for the Euclidean gradient G of every objective
    from roofkit.roof import _objective, _random_starts, _support_factor

    rng = np.random.default_rng(61)
    objective, kstack = _kraus_case(case, 62)
    if objective == "sphere":
        f = _objective(kstack)
        m_mat = _random_starts([rng], 3, 1)[0]
    else:
        g, rank, _ = _support_factor(random_density(3, 2, 63))  # rank-deficient
        assert rank == 2
        f = _objective(kstack, g)
        m_mat = _random_starts([rng], rank * rank, rank)[0]
    direction = rng.normal(size=m_mat.shape) + 1j * rng.normal(size=m_mat.shape)
    value, grad = f(m_mat)
    h = 1e-5
    central = (f(m_mat + h * direction)[0] - f(m_mat - h * direction)[0]) / (2 * h)
    assert central == pytest.approx(2.0 * np.vdot(grad, direction).real, rel=1e-6)


def _support_of_n(seed):
    """The support factor that maps N = M D^(1/2) to members, g D^(-1/2), and d."""
    from roofkit.roof import _support_factor

    g, _, d = _support_factor(random_density(3, 2, seed))
    return g / np.sqrt(d), d


def _stack_case(objective, seed):
    """The kernel of an objective on N = M D^(1/2), with its size and spectrum d."""
    from roofkit.roof import _objective

    objective, kstack = _kraus_case(objective, seed)
    if objective == "sphere":
        return _objective(kstack), 3, np.ones(1)
    g, d = _support_of_n(seed + 1)
    return _objective(kstack, g), len(d) ** 2, d


def _starts(seed, size, d, count=8):
    """`_multistart`'s seeded starts: Q factors times D^(1/2)."""
    from roofkit.roof import _random_starts

    return _random_starts([rng_for(seed, i) for i in range(count)], size, len(d)) * np.sqrt(d)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_no_restart_ends_above_its_start(objective):
    # the nonmonotone reference value keeps f_k <= C_k <= f_0, so a restart
    # stopped at any iteration cap is no higher than where it started
    from roofkit.roof import _lockstep

    f, size, d = _stack_case(objective, 82)
    starts = _starts(84, size, d)
    start_values = f(starts)[0]
    for cap in (1, 2, 3, 5, 10, 30, 500):
        runs = _lockstep(f, starts, d, RoofOptions(max_iterations=cap))
        assert np.all(runs.value <= start_values), cap
        np.testing.assert_allclose(runs.value, f(runs.n_mat)[0], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_batched_kernel_matches_points(objective):
    # a stack of points gives, row by row, the bits of one point at a time
    from roofkit.roof import _random_starts

    rng = np.random.default_rng(71)
    f, size, d = _stack_case(objective, 72)
    stack = _random_starts([rng] * 5, size, len(d))
    values, grads = f(stack)
    assert values.shape == (5,)
    assert grads.shape == stack.shape
    for i, point in enumerate(stack):
        value, grad = f(point)
        assert values[i] == value
        assert np.array_equal(grads[i], grad)


def _two_call_lockstep(value_fn, grad_fn, n_mat, d, options):
    """`_lockstep` with separate value and gradient calls, as a reference.

    Every trial point is evaluated by `value_fn` and every accepted point
    again by `grad_fn`.  `_lockstep` takes a trial's value and an accepted
    point's gradient from one call instead, so with `value_fn` taking its
    values from the gradient call the two descents match bit for bit.  A
    restart still descending after the cap leaves at one more gradient check
    without a step, so its record is taken at its end point.
    """
    from roofkit.roof import (
        ARMIJO, BB_MIN, NONMONOTONE, STEP_MAX, _inner, _retract, _RunStats, _tangent,
    )

    root = np.sqrt(d)
    inv_root = 1.0 / root
    value, grad = grad_fn(n_mat)
    ref, weight = value.copy(), np.ones(len(n_mat))
    end, grad_norm = n_mat.copy(), np.full(len(n_mat), math.inf)
    iterations = np.zeros(len(n_mat), dtype=int)
    stop = np.empty(len(n_mat), dtype=object)
    live, x, cap = np.arange(len(n_mat)), n_mat, options.max_iterations
    for it in range(1, cap + 2):
        iterations[live] = min(it, cap)
        xi = _tangent(x, grad, d)
        squares = _inner(xi, xi)
        slope = 2.0 * squares
        t = np.ones(len(live))
        if it > 1:
            s, y = x - last_x, xi - last_xi
            sy = np.abs(_inner(s, y))
            num, den = (_inner(s, s), sy) if it % 2 else (sy, _inner(y, y))
            t = np.maximum(np.divide(num, den, out=t, where=sy > 0.0), BB_MIN)
        grad_norm[live] = norm = np.sqrt(squares)
        step = xi * inv_root
        t = np.minimum(t, STEP_MAX / np.maximum(np.sqrt(_inner(step, step)), options.grad_tol))
        t[norm < options.grad_tol] = 0.0
        if it > cap:
            t[:] = 0.0                                   # the gradient check only
        accepted, following = np.zeros(len(live), dtype=bool), np.empty_like(x)
        search = np.arange(len(live))
        while (search := search[t[search] > 1e-14]).size:
            cand = _retract((x[search] - t[search, None, None] * xi[search]) * inv_root) * root
            ok = value_fn(cand) <= ref[live[search]] - ARMIJO * t[search] * slope[search]
            following[search[ok]] = cand[ok]
            accepted[search[ok]] = True
            search = search[~ok]
            t[search] /= 2.0
        if not accepted.all():
            gone = live[~accepted]
            unmet = "stalled_line_search" if it <= cap else "iteration_cap"
            stop[gone] = np.where(grad_norm[gone] < options.grad_tol, "grad_tol", unmet)
            live, x, xi, following = (a[accepted] for a in (live, x, xi, following))
            if not live.size:
                break
        last_x, last_xi, x = x, xi, following
        end[live] = x
        value[live], grad = grad_fn(x)
        q = NONMONOTONE * weight[live]
        ref[live] = (q * ref[live] + value[live]) / (q + 1.0)
        weight[live] = q + 1.0
    return _RunStats(end, value, grad_norm, iterations, stop)


def _stalling(f):
    """f with its gradient reversed at points whose N[0, 0] has a positive real part.

    There -xi points uphill, so a restart whose trials stay in that half
    halves its step to 1e-14 without passing the line search: it stalls.
    """

    def kernel(m_mat):
        value, grad = f(m_mat)
        return value, grad * np.where(m_mat[..., :1, :1].real > 0.0, -1.0, 1.0)

    return kernel


@pytest.mark.parametrize("stalls", [False, True], ids=["kernel", "stalling-kernel"])
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_fused_trials_match_the_two_call_descent(objective, stalls):
    # _two_call_lockstep keeps the row-search loop that selects the searching
    # rows in every round; _lockstep runs its first round over every live row
    # and keeps its records compact, with the same bits
    from roofkit.roof import _lockstep

    f, size, d = _stack_case(objective, 101)
    f = _stalling(f) if stalls else f
    starts = _starts(103, size, d)
    calls, reasons = [], set()

    def value_only(m_mat):
        calls.append("V")
        return f(m_mat)[0]

    def value_and_grad(m_mat):
        calls.append("G")
        return f(m_mat)

    for cap in (1, 3, 10, 500):
        options = RoofOptions(max_iterations=cap)
        fused = _lockstep(f, starts, d, options)
        reference = _two_call_lockstep(value_only, value_and_grad, starts, d, options)
        for field in dataclasses.fields(fused):
            assert _same(getattr(fused, field.name), getattr(reference, field.name)), field.name
        reasons.update(fused.stop)
    # two trial rounds without a gradient call between them: a line search
    # backtracked, so points accepted after a backtrack were compared too
    assert "VV" in "".join(calls)
    # rows converged and met the cap, and on the stalling kernel rows stalled
    assert reasons == {"grad_tol", "iteration_cap"} | ({"stalled_line_search"} if stalls else set())


def _assert_records_at_end_points(f, d, runs, cap):
    """Each restart's stop record is consistent, and its gradient norm is its end point's."""
    from roofkit.roof import _inner, _tangent

    assert set(runs.stop) <= {"grad_tol", "stalled_line_search", "iteration_cap"}
    xi = _tangent(runs.n_mat, f(runs.n_mat)[1], d)
    assert np.array_equal(runs.grad_norm, np.sqrt(_inner(xi, xi)))
    assert np.array_equal(runs.stop == "grad_tol", runs.grad_norm < 1e-7)
    capped = runs.stop == "iteration_cap"
    assert np.all(runs.iterations[capped] == cap)
    assert np.all(runs.iterations[~capped] <= cap)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_stop_reasons_match_each_restarts_record(objective):
    from roofkit.roof import _lockstep

    f, size, d = _stack_case(objective, 105)
    starts = _starts(106, size, d)
    for kernel in (f, _stalling(f)):
        for cap in (1, 5, 500):
            runs = _lockstep(kernel, starts, d, RoofOptions(max_iterations=cap))
            _assert_records_at_end_points(kernel, d, runs, cap)


@pytest.mark.parametrize("cap", [3, 39])
def test_capped_roofs_record_each_restart_at_its_end_point(cap, monkeypatch):
    # at cap 3 every restart is still descending; at cap 39 restart 3's last
    # step lands on a point whose gradient norm, 5.04e-8, meets grad_tol
    from roofkit import roof

    seen, lockstep = [], roof._lockstep

    def record(f, n_mat, d, options):
        seen.append((f, d, lockstep(f, n_mat, d, options)))
        return seen[-1][2]

    monkeypatch.setattr(roof, "_lockstep", record)
    res = eof(random_density(4, 4, 3), SubsystemShape((2, 2)),
              RoofOptions(restarts=6, max_iterations=cap, seed=0))
    (f, d, runs), = seen
    _assert_records_at_end_points(f, d, runs, cap)
    assert res.gradient_norm == runs.grad_norm[res.best_restart]
    if cap == 3:
        assert res.stop_reasons == ("iteration_cap",) * 6 and not res.converged
        assert f"{res.gradient_norm:.4e}" == "7.3346e-02"
    else:
        assert res.stop_reasons[3] == "grad_tol" and runs.iterations[3] == cap


@pytest.mark.parametrize("spectrum", ["rank3", "rank4-pairs"])
def test_roofs_report_every_restarts_stop_reason(spectrum):
    # restarts stop at the cap on these spectra while the best one converges
    for seed in range(2):
        res = eof(_ill_conditioned_state(ILL_SPECTRA[spectrum], seed), SubsystemShape((2, 2)),
                  RoofOptions(restarts=24))
        assert len(res.stop_reasons) == res.restarts_used
        assert res.converged == (res.stop_reasons[res.best_restart] == "grad_tol")
        assert "iteration_cap" in res.stop_reasons
    short = eof(random_density(4, 3, 107), SubsystemShape((2, 2)), RoofOptions(max_iterations=3))
    assert short.stop_reasons == ("iteration_cap",) * 24
    assert not short.converged and short.iterations == 3


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_one_gradient_call_per_iteration_without_backtracks(objective, monkeypatch):
    # each iteration projects the gradient once (T), and each of its
    # backtracking rounds is one _retract (R) and one kernel call (G), so an
    # iteration whose rows all pass at their first trial is "TRG"
    import re

    from roofkit import roof

    f, size, d = _stack_case(objective, 101)
    starts = _starts(103, size, d)
    options = RoofOptions(max_iterations=500)
    rounds = []
    _two_call_lockstep(
        lambda m_mat: rounds.append(len(m_mat)) or f(m_mat)[0], f,
        starts, d, options,
    )
    events, retract, tangent = [], roof._retract, roof._tangent

    def record_tangent(x, grad, d):
        events.append("T")
        return tangent(x, grad, d)

    def record_retract(x):
        events.append("R")
        return retract(x)

    def record_f(m_mat):
        events.append("G")
        return f(m_mat)

    monkeypatch.setattr(roof, "_tangent", record_tangent)
    monkeypatch.setattr(roof, "_retract", record_retract)
    runs = roof._lockstep(record_f, starts, d, options)
    trace = "".join(events)
    assert re.fullmatch(r"G(?:T(?:RG)*)*", trace), trace
    assert trace.count("T") == runs.iterations.max()
    assert "TRGT" in trace                              # an iteration without backtracks
    assert re.search(r"T(?:RG){2}", trace)              # and one that backtracked
    # one kernel call per line-search round of the two-call descent
    assert trace.count("RG") == len(rounds)


def test_line_search_rarely_backtracks_on_two_qubit_eof(monkeypatch):
    # every backtracking round is one more kernel call in its iteration, and
    # on a two-qubit roof a call costs the same whatever its row count; with
    # the Zhang-Hager weight at 0.85 this panel takes 1.64 calls per
    # iteration, at 0.99 it takes 1.03
    from roofkit import roof

    calls, iterations, lockstep = [0], [0], roof._lockstep

    def counted(f, m_mat, d, options):
        def kernel(m):
            calls[0] += 1
            return f(m)

        runs = lockstep(kernel, m_mat, d, options)
        calls[0] -= 1                                   # the starts' evaluation
        iterations[0] += int(runs.iterations.max())
        return runs

    monkeypatch.setattr(roof, "_lockstep", counted)
    for seed in range(3):
        for rank in (2, 3, 4):
            eof(random_density(4, rank, (seed, rank)), SubsystemShape((2, 2)),
                RoofOptions(restarts=24))
    assert calls[0] / iterations[0] < 1.3, (calls[0], iterations[0])
    # the descent on N^H N = D: 1191 iterations on the Stiefel manifold M^H M = I, 454 here
    assert iterations[0] <= 1191 // 2, iterations[0]


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
    from roofkit.roof import _qubit_spectral

    a = QUBIT_OUTPUTS[kind](np.random.default_rng(151))
    if kind == "near-pure":
        assert np.linalg.eigvalsh(a)[..., 0].max() <= 1e-15
    expected_value, expected_d = _eigh_spectral(a)

    def forbidden(*args, **kwargs):
        raise AssertionError("2 x 2 outputs took a LAPACK eigensolve")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    value, (d00, d11, d10) = _qubit_spectral(a[..., 0, 0].real, a[..., 1, 1].real, a[..., 1, 0])
    d = np.empty_like(a)
    d[..., 0, 0], d[..., 1, 1], d[..., 1, 0], d[..., 0, 1] = d00, d11, d10, d10.conj()
    assert np.abs(value - expected_value).max() <= 2e-13
    assert np.abs(d - expected_d).max() <= 1e-12


def _matmul_kernel(kstack, g=None):
    """The roof kernel with W W^H and (dF/dA) W as stacked matmuls, as a reference.

    It eigensolves every member output with `_eigh_spectral`, on the same
    side of the dilation as `_objective`, and takes a stack of points.
    """
    if kstack.shape[0] >= kstack.shape[1]:
        kstack = kstack.transpose(1, 0, 2)
    side, other = kstack.shape[:2]
    lift = (kstack if g is None else kstack @ g).reshape(side * other, -1)

    def kernel(m_mat):
        rows = (1, m_mat.shape[-2]) if g is None else m_mat.shape[-2:]
        w = (m_mat.reshape(-1, *rows) @ lift.T).reshape(len(m_mat), rows[0], side, other)
        value, d = _eigh_spectral(w @ np.swapaxes(w.conj(), -1, -2))
        grad = (d @ w).reshape(len(m_mat), rows[0], -1) @ lift.conj()
        return value, grad.reshape(m_mat.shape)

    return kernel


@pytest.mark.parametrize("objective", [o for o in OBJECTIVES if not o.endswith("-side3")])
def test_qubit_side_kernel_matches_matmul_reference(objective):
    # seeded starts and the end points of their descents, where the members
    # are as pure as the channel lets them be
    from roofkit.roof import _lockstep

    f, size, d = _stack_case(objective, 161)
    objective, kstack = _kraus_case(objective, 161)
    g = None if objective == "sphere" else _support_of_n(162)[0]
    assert min(kstack.shape[:2]) == 2
    starts = _starts(163, size, d)
    ends = _lockstep(f, starts, d, RoofOptions(max_iterations=500)).n_mat
    for points in (starts, ends):
        value, grad = f(points)
        expected_value, expected_grad = _matmul_kernel(kstack, g)(points)
        assert np.abs(value - expected_value).max() <= 2e-13
        assert np.abs(grad - expected_grad).max() <= 1e-12


def _householder_q(x):
    """The Q factor of x = QR with R's diagonal positive, from LAPACK's Householder QR."""
    q, r = np.linalg.qr(x)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _gaussian(rng, size, rank):
    return rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))


@pytest.mark.parametrize("size, rank", [(3, 1), (4, 2), (9, 3), (36, 6), (64, 36)])
def test_cholesky_qr_matches_householder_q_on_tangent_steps(size, rank):
    # X - t xi has Gram I + t^2 xi^H xi: well conditioned for any step
    from roofkit.roof import _retract, _tangent

    rng = np.random.default_rng((92, size, rank))
    for _ in range(3):
        x = _householder_q(_gaussian(rng, size, rank))
        xi = _tangent(x, _gaussian(rng, size, rank), np.ones(rank))
        xi /= np.linalg.norm(xi)
        for step in np.logspace(-3, 3, 13):
            cand = x - step * xi
            assert np.abs(_retract(cand) - _householder_q(cand)).max() <= 1e-13, step


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 6, 36])
def test_seeded_starts_are_the_cholesky_qr_of_their_gaussian(rank):
    from roofkit.roof import SIZE_CAP, _random_starts, _retract

    size = min(rank * rank, SIZE_CAP)
    starts = _random_starts([rng_for(93, i) for i in range(8)], size, rank)
    for i in range(8):
        expected = _retract(_gaussian(rng_for(93, i), size, rank))
        assert np.abs(starts[i] - expected).max() <= 1e-13


@pytest.mark.parametrize("size, rank", [(3, 1), (4, 2), (9, 3), (16, 4), (64, 36), (36, 36)])
def test_stacked_starts_match_one_qr_per_restart(size, rank):
    # one stacked QR gives each restart's Q factor and sign fix bit for bit
    from roofkit.roof import _random_starts

    stacked = _random_starts([rng_for(95, i) for i in range(24)], size, rank)
    for i, start in enumerate(stacked):
        assert np.array_equal(start, _householder_q(_gaussian(rng_for(95, i), size, rank))), i


def test_square_starts_stay_orthonormal_within_1e9():
    # ensemble_size == rank gives square Gaussian starts, whose Gram matrix
    # can be too ill-conditioned for the Cholesky route
    from roofkit.roof import _random_starts

    starts = _random_starts([rng_for(94, i) for i in range(200)], 36, 36)
    for i, x in enumerate(starts):
        assert np.abs(x.conj().T @ x - np.eye(36)).max() <= 1e-9, i


def test_forced_huge_trial_is_clamped(monkeypatch):
    # t = 1e10 along a rank-1 tangent of a (64, 36) point: the Gram matrix
    # I + t^2 xi^H xi has no Cholesky factor in double precision, and its eigh
    # has negative eigenvalues.  The clamp t ||xi||_F <= STEP_MAX retracts
    # the trial at step length STEP_MAX instead.
    from roofkit import roof
    from roofkit.roof import _h

    g, _, d = roof._support_factor(random_density(36, 36, 142))
    f = roof._objective(random_stinespring(36, 4, 9, 141).kraus, g / np.sqrt(d))
    rng = np.random.default_rng(143)
    u, v = _gaussian(rng, 64, 1), _gaussian(rng, 36, 1)

    def rank_one_tangent(x, grad, d):
        xi = (u - x @ ((_h(x) @ u) / d[:, None])) @ _h(v)   # x^H xi = 0, as x^H x = D
        xi /= np.linalg.norm(xi, axis=(-2, -1), keepdims=True)
        # a descent direction, so that the search accepts a step
        return xi * np.sign(roof._inner(xi, grad))[:, None, None]

    grams, retract = [], roof._retract

    def recorded(x):
        grams.append(np.linalg.eigvalsh(_h(x) @ x).max(axis=-1))
        return retract(x)

    monkeypatch.setattr(roof, "BB_MIN", 1e10)
    monkeypatch.setattr(roof, "_tangent", rank_one_tangent)
    monkeypatch.setattr(roof, "_retract", recorded)
    starts = _starts(144, 64, d, 2)
    runs = roof._lockstep(f, starts, d, RoofOptions(max_iterations=3))
    assert np.isclose(np.concatenate(grams).max(), 1.0 + roof.STEP_MAX ** 2, rtol=1e-6)
    assert np.all(np.isfinite(runs.value))
    assert np.all(runs.iterations == 3)                 # iterations 1 and 2 accepted a point
    gram = _h(runs.n_mat) @ runs.n_mat
    assert np.abs(gram - np.diag(d)).max() <= 1e-8


def test_line_search_calls_no_eigensolver_outside_the_kernel(monkeypatch):
    # on a qubit side the kernel is closed form, so the whole descent is eigensolver-free
    from roofkit.roof import _lockstep

    f, size, d = _stack_case("roof", 145)
    starts = _starts(146, size, d)

    def forbidden(*args, **kwargs):
        raise AssertionError("the line search called an eigensolver, an SVD or a QR")

    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd", "qr"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    assert np.all(_lockstep(f, starts, d, RoofOptions(max_iterations=50)).iterations >= 1)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_lockstep_end_points_are_orthonormal(objective):
    # as mixing matrices N D^(-1/2), which `ensemble_from_mixing` reads
    from roofkit.roof import _lockstep

    f, size, d = _stack_case(objective, 95)
    starts = _starts(96, size, d)
    for cap in (1, 10, 500):
        mixing = _lockstep(f, starts, d, RoofOptions(max_iterations=cap)).n_mat / np.sqrt(d)
        gram = np.swapaxes(mixing.conj(), -1, -2) @ mixing
        assert np.abs(gram - np.eye(len(d))).max() <= 1e-12, cap


# two-qubit spectra, before normalization, whose smallest eigenvalues reach 1e-11
ILL_SPECTRA = {
    "rank2": [1.0, 1e-11],
    "rank3": [1.0, 1e-5, 1e-11],
    "rank4": [1.0, 1e-4, 1e-8, 1e-11],
    "rank4-pairs": [0.5, 0.5, 1e-11, 1e-11],
    "rank4-mild": [1.0, 0.3, 1e-3, 1e-6],
}


def _ill_conditioned_state(spectrum, seed):
    u = random_unitary(4, (180, seed))
    p = np.zeros(4)
    p[: len(spectrum)] = np.array(spectrum) / sum(spectrum)
    rho = (u * p) @ u.conj().T
    return DensityMatrix((rho + rho.conj().T) / 2.0)


def _two_qubit_trace():
    from roofkit import partial_trace_channel

    return partial_trace_channel(SubsystemShape((2, 2)), (0,))


@pytest.mark.parametrize("spectrum", sorted(ILL_SPECTRA))
def test_metric_keeps_the_tangent_and_the_gram(spectrum):
    # xi = G - N S keeps N^H xi + xi^H N = 0, and the retraction keeps N^H N = D
    from roofkit import roof
    from roofkit.roof import _h

    g, rank, d = roof._support_factor(_ill_conditioned_state(ILL_SPECTRA[spectrum], 0))
    assert rank == len(ILL_SPECTRA[spectrum])
    f = roof._objective(_two_qubit_trace().kraus, g / np.sqrt(d))
    starts = _starts(181, rank * rank, d)
    rng = np.random.default_rng(182)
    points = [(starts, rng.normal(size=starts.shape) + 1j * rng.normal(size=starts.shape))]
    for cap in (1, 10, 100, 500):
        ends = roof._lockstep(f, starts, d, RoofOptions(max_iterations=cap)).n_mat
        assert np.abs(_h(ends) @ ends - np.diag(d)).max() <= 1e-12, cap
        points.append((ends, f(ends)[1]))
    for n_mat, grad in points:
        normal = _h(n_mat) @ roof._tangent(n_mat, grad, d)
        assert np.abs(normal + _h(normal)).max() <= 1e-12


def test_metric_gradient_norm_is_at_least_the_stiefel_norm():
    # ||xi_N|| is the least ||(G_M - M S) D^(-1/2)|| over Hermitian S, and the Stiefel
    # ||xi_M|| the least ||G_M - M S||, so D <= I keeps ||xi_N|| >= ||xi_M||
    from roofkit import roof

    kraus = _two_qubit_trace().kraus
    states = [random_density(4, rank, (183, rank, i)) for rank in (2, 3, 4) for i in range(20)]
    states += [_ill_conditioned_state(spectrum, 1) for spectrum in ILL_SPECTRA.values()]
    for i, rho in enumerate(states):
        g, rank, d = roof._support_factor(rho)
        m_mat = _starts(184 + i, rank * rank, np.ones(rank), 4)
        n_mat = m_mat * np.sqrt(d)
        xi_n = roof._tangent(n_mat, roof._objective(kraus, g / np.sqrt(d))(n_mat)[1], d)
        xi_m = roof._tangent(m_mat, roof._objective(kraus, g)(m_mat)[1], np.ones(rank))
        norms = [np.linalg.norm(xi, axis=(-2, -1)) for xi in (xi_n, xi_m)]
        assert np.all(norms[0] >= norms[1]), i


@pytest.mark.parametrize("spectrum", sorted(ILL_SPECTRA))
def test_ill_conditioned_roofs_end_no_higher_than_the_stiefel_descent(spectrum):
    # the D = I descent is the Stiefel descent on M, from the same seeded starts
    from roofkit import roof

    channel, options = _two_qubit_trace(), RoofOptions(restarts=24)
    for seed in range(2):
        rho = _ill_conditioned_state(ILL_SPECTRA[spectrum], seed)
        res = eof(rho, SubsystemShape((2, 2)), options)
        g, rank, _ = roof._support_factor(rho)
        stiefel, best = roof._multistart(
            roof._objective(channel.kraus, g), rank * rank, np.ones(rank), options
        )
        assert res.value <= stiefel.value[best] + 1e-9, seed
        # the witness: its members' entanglement entropies and its barycenter
        amps = np.array([s.amplitudes for s in res.ensemble.states]).reshape(-1, 2, 2)
        members = [entropy_nats(a @ a.conj().T) for a in amps]
        assert float(res.ensemble.weights @ members) == pytest.approx(res.value, abs=1e-12)
        assert np.abs(res.ensemble.barycenter().entries - rho.entries).max() <= 1e-12


def test_roof_paths_call_no_einsum_or_svd(monkeypatch, descents):
    # the kernel runs on stacked matmuls and the retraction on a Gram Cholesky
    def forbidden(*args, **kwargs):
        raise AssertionError("the roof optimizer called np.einsum or np.linalg.svd")

    monkeypatch.setattr(np, "einsum", forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    rho = random_density(4, 3, 97)
    assert ccooe(random_stinespring(4, 3, 2, 98), rho, FAST).value > 0.0
    assert eof(rho, SubsystemShape((2, 2)), FAST).value > 0.0
    assert chi_direct(dephasing(0.3), random_density(2, 2, 99), FAST) > 0.0
    assert descents == [FAST] * 3                       # chi_direct descended, not reused
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
    # two restarts start with gradient norms 0.11 and 0.13 and leave at
    # iteration 1, while the others descend
    "eof-first-iteration-stop": lambda: eof(
        random_density(4, 2, 112), SubsystemShape((2, 2)), RoofOptions(restarts=8, grad_tol=0.2)
    ),
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

    def alone(f, starts, d, options):
        runs = [lockstep(f, start[None], d, options) for start in starts]
        return roof._RunStats(*(
            np.concatenate([getattr(r, f.name) for r in runs])
            for f in dataclasses.fields(roof._RunStats)
        ))

    def run(descend):
        best_runs, stacks = [], []

        def record_multistart(*args):
            best, idx = multistart(*args)
            best_runs.append((best.value, best.iterations, best.stop, best.grad_norm,
                              idx, best.n_mat))
            return best, idx

        def record_lockstep(f, starts, d, options):
            runs = descend(f, starts, d, options)
            first = (runs.iterations == 1) & (runs.stop == "grad_tol")
            stacks.append((len(starts), int(first.sum())))
            return runs

        monkeypatch.setattr(roof, "_multistart", record_multistart)
        monkeypatch.setattr(roof, "_lockstep", record_lockstep)
        return _summary(STACK_CASES[case]()), best_runs, stacks

    together = run(lockstep)
    apart = run(alone)
    # one _lockstep stack per _multistart call
    assert together[2] == apart[2] and len(together[2]) == len(together[1])
    if case != "ccooe-one-restart":
        assert max(size for size, _ in together[2]) > 1
    if case == "eof-first-iteration-stop":
        assert together[2] == [(8, 2)]
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
    # the kernel branches on the side: 2 x 2 outputs go to the closed form,
    # larger ones to _spectral
    from roofkit import roof

    sides, spectral, qubit_spectral = [], roof._spectral, roof._qubit_spectral

    def record_spectral(a):
        sides.append(("eigh", a.shape[-1]))
        return spectral(a)

    def record_qubit_spectral(a00, a11, a10):
        sides.append(("closed form", 2))
        return qubit_spectral(a00, a11, a10)

    monkeypatch.setattr(roof, "_spectral", record_spectral)
    monkeypatch.setattr(roof, "_qubit_spectral", record_qubit_spectral)
    kstack = random_stinespring(3, 4, 2, 121).kraus
    g, rank, _ = roof._support_factor(random_density(3, 2, 122))
    unit = roof._random_starts([rng_for(123)], 3, 1)[0]
    mixing = roof._random_starts([rng_for(124)], rank * rank, rank)[0]
    for f, m_mat in [
        (roof._objective(kstack), unit),
        (roof._objective(kstack, g), mixing),
        (roof._objective(kstack.transpose(1, 0, 2), g), mixing),
    ]:
        f(m_mat)
    assert sides == [("closed form", 2)] * 3


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
    # both channels run one arrangement of one Kraus stack, env = out included
    assert ours.best_restart == theirs.best_restart
    assert ours.iterations == theirs.iterations
    assert ours.gradient_norm == theirs.gradient_norm
    assert ours.value == pytest.approx(theirs.value, abs=1e-12)


def test_equal_sides_descend_as_the_complement_does():
    # a product channel with env = out = 4, whose two arrangements of the Kraus
    # stack once gave descents that parted by up to 8.3e-8 on these states
    channel = tensor_channel(dephasing(0.25), random_stinespring(2, 2, 2, 111))
    mirror = complementary(channel)
    assert mirror.kraus.tobytes() == channel.kraus.transpose(1, 0, 2).tobytes()
    for i in range(16):
        rho = random_density(4, 4, (70, i))
        ours, theirs = ccooe(channel, rho, FAST), ccooe(mirror, rho, FAST)
        assert ours.best_restart == theirs.best_restart, i
        assert ours.iterations == theirs.iterations, i
        assert ours.gradient_norm == theirs.gradient_norm, i
        assert ours.value == pytest.approx(theirs.value, abs=1e-12), i
