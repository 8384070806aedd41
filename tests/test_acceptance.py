"""Acceptance gate: eleven timed criteria, one reported line each.

Each test exercises one end-to-end guarantee with pinned tolerances and a
wall-clock budget, and prints a single PASS/FAIL line through the capture
bypass so the gate is legible in plain pytest output.
"""

import json
import math
import time

import numpy as np
import pytest

from roofkit import (
    DensityMatrix,
    EnergyConstraint,
    GaussianDensity,
    RandomPhaseSpec,
    RoofOptions,
    SubsystemShape,
    UniformDensity,
    apply,
    ccooe,
    chi_direct,
    chi_from_roof,
    complementary,
    dephasing,
    direct_sum_mixture,
    eof,
    gibbs_state,
    min_orbit_energy,
    min_output_margin,
    noiseless,
    output_entropy,
    phase_channel_complement_mp,
    phase_complement_gram_deviation,
    random_density,
    random_phase_channel,
    random_pure,
    random_stinespring,
    rng_for,
    scan_random,
    schur_matrix,
    tail_entropy_bound,
    tail_quantities,
    tensor_channel,
    truncation_experiment,
    von_neumann_entropy,
)
from roofkit.cli import main
from roofkit.entropy import binary_entropy

import oracles


class Criterion:
    """Collects failures for one criterion and emits its summary line."""

    def __init__(self, capsys, number, name, limit_s):
        self.capsys = capsys
        self.number = number
        self.name = name
        self.limit_s = limit_s
        self.failures = []
        self.started = time.perf_counter()

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)

    def finish(self):
        elapsed = time.perf_counter() - self.started
        ok = not self.failures and elapsed < self.limit_s
        line = (
            f"ACCEPTANCE {self.number:02d} {self.name}: "
            f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f}s / {self.limit_s:.0f}s)"
        )
        with self.capsys.disabled():
            print(line)
        assert elapsed < self.limit_s, f"runtime {elapsed:.1f}s over budget {self.limit_s}s"
        assert not self.failures, "; ".join(self.failures[:8])


def test_criterion_01_noiseless_roof(capsys):
    crit = Criterion(capsys, 1, "noiseless-roof-identity", 10.0)
    opts = RoofOptions(restarts=2, seed=0)
    dims = [2, 3, 4, 8]
    for i in range(50):
        d = dims[i % 4]
        rho = random_density(d, d, (100, i))
        value = ccooe(noiseless(d), rho, opts).value
        crit.check(value <= 1e-9, f"noiseless roof {value:.2e} at d={d} i={i}")
    crit.finish()


def test_criterion_02_pure_state_roof(capsys):
    crit = Criterion(capsys, 2, "pure-state-roof-identity", 10.0)
    opts = RoofOptions(restarts=2, seed=0)
    dims = [2, 3, 4]
    for i in range(50):
        d = dims[i % 3]
        channel = random_stinespring(d, d, d, (200, i))
        psi = random_pure(d, (201, i))
        direct = output_entropy(channel, psi.density())
        value = ccooe(channel, psi.density(), opts).value
        crit.check(abs(value - direct) <= 1e-9, f"pure roof gap {value - direct:.2e} i={i}")
    crit.finish()


def test_criterion_03_wootters_window(capsys):
    crit = Criterion(capsys, 3, "wootters-reproduction", 300.0)
    opts = RoofOptions(restarts=24, seed=0)
    shape = SubsystemShape((2, 2))
    for i in range(100):
        rank = 1 + i % 4
        omega = random_density(4, rank, (300, i))
        exact = oracles.wootters_eof_nats(omega.entries)
        value = eof(omega, shape, opts).value
        crit.check(
            exact - 1e-9 <= value <= exact + 2e-3,
            f"eof {value:.6f} outside [{exact:.6f}-1e-9, +2e-3] i={i} rank={rank}",
        )
    werner = DensityMatrix(oracles.werner_state(0.9))
    value = eof(werner, shape, opts).value
    crit.check(abs(value - 0.500402) <= 2e-3, f"werner eof {value:.6f}")
    crit.finish()


def test_criterion_04_chi_consistency(capsys):
    crit = Criterion(capsys, 4, "chi-route-consistency", 120.0)
    opts = RoofOptions(restarts=8, seed=0)
    for i in range(20):
        channel = random_stinespring(2, 2, 2, (400, i))
        rho = random_density(2, 2, (401, i))
        roof_route = chi_from_roof(channel, rho, opts)
        direct_route = chi_direct(channel, rho, opts)
        crit.check(
            abs(roof_route - direct_route) <= 5e-3,
            f"chi routes differ {roof_route - direct_route:.2e} i={i}",
        )
    mixed = DensityMatrix(np.eye(2) / 2.0)
    chi_deph = chi_direct(dephasing(0.25), mixed, opts)
    crit.check(abs(chi_deph - math.log(2.0)) <= 5e-3, f"dephasing chi {chi_deph:.6f}")
    crit.finish()


def test_criterion_05_direct_sum_identity(capsys):
    crit = Criterion(capsys, 5, "direct-sum-entropy-identity", 10.0)
    for i in range(20):
        d = 2 + i % 2
        inner = random_stinespring(d, d, d, (500, i))
        rho = random_density(d, d, (501, i))
        s_rho = von_neumann_entropy(rho)
        h_inner = output_entropy(inner, rho)
        for tenths in range(1, 10):
            q = tenths / 10.0
            lhs = output_entropy(direct_sum_mixture(q, inner), rho)
            rhs = q * s_rho + (1.0 - q) * h_inner + binary_entropy(q)
            crit.check(abs(lhs - rhs) <= 1e-9, f"identity gap {lhs - rhs:.2e} q={q} i={i}")
    crit.finish()


def test_criterion_06_complementary(capsys):
    crit = Criterion(capsys, 6, "complementary-identities", 300.0)
    for i in range(100):
        d = 2 + i % 3
        channel = random_stinespring(d, d, d, (600, i))
        psi = random_pure(d, (601, i)).density()
        gap = output_entropy(channel, psi) - output_entropy(complementary(channel), psi)
        crit.check(abs(gap) <= 1e-9, f"pure entropy gap {gap:.2e} i={i}")
    for i in range(50):
        phi = random_stinespring(2, 2, 2, (610, i))
        psi_ch = random_stinespring(2, 2, 2, (611, i))
        omega = random_pure(4, (612, i)).density()
        joint_hat = complementary(tensor_channel(phi, psi_ch))
        hat_tensor = tensor_channel(complementary(phi), complementary(psi_ch))
        spec_a = np.sort(np.linalg.eigvalsh(apply(joint_hat, omega).entries))[::-1]
        spec_b = np.sort(np.linalg.eigvalsh(apply(hat_tensor, omega).entries))[::-1]
        keep = max(int((spec_a > 1e-10).sum()), int((spec_b > 1e-10).sum()))
        dev = float(np.abs(spec_a[:keep] - spec_b[:keep]).max()) if keep else 0.0
        crit.check(dev <= 1e-8, f"tensor-complement spectra differ {dev:.2e} i={i}")
    opts = RoofOptions(restarts=8, seed=0)
    for i in range(20):
        channel = random_stinespring(2, 2, 2, (620, i))
        rho = random_density(2, 2, (621, i))
        direct = ccooe(channel, rho, opts).value
        mirrored = ccooe(complementary(channel), rho, opts).value
        crit.check(abs(direct - mirrored) <= 5e-3, f"roof mirror gap {direct - mirrored:.2e} i={i}")
    crit.finish()


def test_criterion_07_truncation(capsys):
    crit = Criterion(capsys, 7, "truncation-machinery", 60.0)
    shape = SubsystemShape((2, 2, 2, 2))
    opts = RoofOptions(restarts=2, max_iterations=80, seed=0)
    for i in range(20):
        omega = random_density(16, 16, (700, i))
        trace = truncation_experiment(omega, shape, (1, 2), opts)
        full_entropy = trace.full_output_entropy
        for step in trace.steps:
            if step.skipped:
                continue
            crit.check(
                step.residual_min_eig >= -1e-9,
                f"residual {step.residual_min_eig:.2e} i={i} n={step.rank}",
            )
            crit.check(
                step.output_entropy <= step.entropy_bound + 1e-8,
                f"entropy bound broken by "
                f"{step.output_entropy - step.entropy_bound:.2e} i={i} n={step.rank}",
            )
        final = trace.steps[-1]
        crit.check(
            abs(final.output_entropy - full_entropy) <= 1e-10,
            f"full-rank entropy gap {final.output_entropy - full_entropy:.2e} i={i}",
        )
    crit.finish()


def test_criterion_08_superadditivity_sweep(capsys):
    crit = Criterion(capsys, 8, "superadditivity-sweep", 600.0)
    opts = RoofOptions(restarts=8, seed=0)
    breaking = {"family": "measure_prepare", "dim": 2, "outcomes": 2}
    noiseless_fam = {"family": "noiseless", "dim": 2}
    random_fam = {"family": "random", "dim": 2}
    for label, left in (("breaking", breaking), ("noiseless", noiseless_fam)):
        result = scan_random(left, random_fam, samples=50, seed=8, options=opts)
        crit.check(
            result.flagged == 0 and result.min_margin >= -1e-3,
            f"{label} scan flagged={result.flagged} min={result.min_margin:.2e}",
        )
    corollary = scan_random(
        noiseless_fam, random_fam, samples=50, seed=8, options=opts, check="corollary-max"
    )
    crit.check(
        corollary.flagged == 0 and corollary.min_margin >= -1e-3,
        f"corollary scan flagged={corollary.flagged} min={corollary.min_margin:.2e}",
    )
    for i in range(10):
        phi = random_stinespring(2, 2, 2, (800, i))
        psi = random_stinespring(2, 2, 2, (801, i))
        report = min_output_margin(phi, psi, opts)
        crit.check(
            report.verdict != "flagged" and report.margin >= -1e-3,
            f"min-output margin {report.margin:.2e} i={i}",
        )
    crit.finish()


def test_criterion_09_random_phase(capsys):
    crit = Criterion(capsys, 9, "random-phase-channel", 120.0)
    for scale in (0.1, 1.0, 10.0):
        for density in (GaussianDensity(scale), UniformDensity(scale)):
            for d in (4, 8, 16):
                matrix = schur_matrix(RandomPhaseSpec(1.0, d, density))
                eigs = np.linalg.eigvalsh(matrix)
                crit.check(eigs[0] >= -1e-8, f"schur min eig {eigs[0]:.2e} s={scale} d={d}")
                diag_dev = float(np.abs(np.diag(matrix) - 1.0).max())
                crit.check(diag_dev <= 1e-8, f"schur diag dev {diag_dev:.2e} s={scale} d={d}")

    d = 8
    amps = np.full(d, 1.0 / math.sqrt(d))
    rho = np.outer(amps, amps.conj())
    grid = -1.0 + (np.arange(d) + 0.5) * (2.0 / d)
    for density, reach, points in (
        (GaussianDensity(1.0), 8.0, 2001),
        (UniformDensity(1.0), 1.0, 4001),
    ):
        channel = random_phase_channel(RandomPhaseSpec(1.0, d, density))
        direct = von_neumann_entropy(apply(channel, DensityMatrix(rho)))
        reference = oracles.entropy_nats(
            oracles.quadrature_phase_output(rho, grid, density.pdf, reach, points)
        )
        crit.check(
            abs(direct - reference) <= 1e-4,
            f"quadrature gap {direct - reference:.2e} {type(density).__name__}",
        )

    spec = RandomPhaseSpec(1.0, 8, GaussianDensity(1.0))
    gram_dev = phase_complement_gram_deviation(spec, t_points=64, t_half_width=8.0)
    crit.check(gram_dev <= 1e-8, f"complement gram dev {gram_dev:.2e}")
    channel = random_phase_channel(spec)
    mp = phase_channel_complement_mp(spec, t_points=64, t_half_width=8.0)
    for i in range(20):
        psi = random_pure(8, (900, i)).density()
        gap = abs(output_entropy(channel, psi) - output_entropy(mp, psi))
        crit.check(gap <= 0.05, f"complement entropy gap {gap:.3f} i={i}")

    gaussian = GaussianDensity(1.0)
    for d in range(3, 9):
        alpha_prev, _, _ = tail_quantities(gaussian, float(d - 1))
        _, _, gamma = tail_quantities(gaussian, float(d))
        crit.check(gamma <= alpha_prev, f"gamma({d}) > alpha({d - 1})")
    bounds = [tail_entropy_bound(gaussian, float(d), math.log(8.0), 1.0) for d in range(3, 9)]
    crit.check(
        all(b <= a + 1e-15 for a, b in zip(bounds, bounds[1:])),
        f"tail bound not non-increasing: {bounds}",
    )
    crit.finish()


def test_criterion_10_gibbs_machinery(capsys):
    crit = Criterion(capsys, 10, "gibbs-energy-machinery", 60.0)
    for i in range(20):
        d = 2 + i % 4
        rng = rng_for((1000, i))
        raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ham = (raw + raw.conj().T) / 2.0
        levels = np.linalg.eigvalsh(ham)
        level = float(levels[0] + 0.3 * (levels.mean() - levels[0]))
        state, _, _ = gibbs_state(EnergyConstraint(ham, level))
        energy = float(np.real(np.trace(ham @ state.entries)))
        crit.check(abs(energy - level) <= 1e-9, f"gibbs energy off {energy - level:.2e} i={i}")

    ham = np.diag([0.0, 1.0, 2.0])
    level = 0.8
    reference, beta, _ = gibbs_state(EnergyConstraint(ham, level))
    crit.check(beta > 0.0, f"expected positive beta, got {beta}")
    cap = von_neumann_entropy(reference)
    rng = rng_for(1010)
    accepted = 0
    while accepted < 100:
        sigma = random_density(3, 3, rng)
        if float(np.real(np.trace(ham @ sigma.entries))) > level:
            continue
        accepted += 1
        crit.check(
            von_neumann_entropy(sigma) <= cap + 1e-8,
            f"dominance broken at sample {accepted}",
        )

    for i in range(20):
        d = 2 + i % 4
        rng = rng_for((1020, i))
        energies = np.sort(rng.uniform(0.0, 3.0, size=d))
        ham = np.diag(energies)
        rho = random_density(d, d, (1021, i))
        fast = min_orbit_energy(ham, rho)
        brute = oracles.exhaustive_min_orbit(energies, np.linalg.eigvalsh(rho.entries))
        crit.check(abs(fast - brute) <= 1e-12, f"orbit minimum gap {fast - brute:.2e} i={i}")
    crit.finish()


def test_criterion_11_cli_determinism(capsys, tmp_path):
    crit = Criterion(capsys, 11, "cli-determinism", 60.0)
    state = "random:2:2:5"
    commands = {
        "entropy": ["entropy", "--named", "diag:0.5,0.3,0.2"],
        "ccooe": ["ccooe", "--channel", "dephasing:0.25", "--named", state,
                  "--restarts", "4"],
        "eof": ["eof", "--dims", "2x2", "--named", "bell", "--restarts", "4"],
        "chi": ["chi", "--channel", "dephasing:0.25", "--named", "mixed:2",
                "--restarts", "4"],
        "margin": ["additivity", "margin", "--left", "noiseless:2", "--right",
                   "dephasing:0.25", "--named", "random:4:4:5", "--restarts", "4"],
        "scan": ["additivity", "scan", "--left", "noiseless:2", "--right", "random:2",
                 "--samples", "2", "--restarts", "4"],
        "phase": ["phase-channel", "--spec",
                  '{"a": 1.0, "d": 4, "density": {"family": "gaussian", "std": 1.0}}',
                  "--samples", "2"],
    }
    for label, argv in commands.items():
        out = tmp_path / label
        payloads = []
        for attempt in range(2):
            code = main(argv + ["--out", str(out)])
            crit.check(code == 0, f"{label} run {attempt} exited {code}")
            payload = json.loads((out / "report.json").read_text())
            payload.pop("walltime_s", None)
            payloads.append(json.dumps(payload, sort_keys=True))
        crit.check(payloads[0] == payloads[1], f"{label} reruns differ")
    crit.finish()
