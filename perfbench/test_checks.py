"""Each checker accepts a known-good value and rejects a perturbed one.

Run with `python3 -m pytest perfbench/test_checks.py`; needs numpy only.
"""

import math

import numpy as np

import checks

BELL = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
TRACE_B = [np.kron(np.eye(2), np.eye(2)[j : j + 1]) for j in range(2)]


def werner(f):
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    proj = np.outer(singlet, singlet)
    return f * proj + (1.0 - f) * (np.eye(4) - proj) / 3.0


def test_wootters_closed_forms():
    assert abs(checks.wootters_eof(np.outer(BELL, BELL)) - math.log(2.0)) < 1e-12
    assert checks.wootters_eof(np.eye(4) / 4.0) == 0.0
    assert abs(checks.wootters_eof(werner(0.9)) - 0.500402) < 1e-6


def test_check_eof_window():
    rho = werner(0.9)
    exact = checks.wootters_eof(rho)
    assert checks.check_eof(exact + 1e-4, rho) is None
    assert checks.check_eof(exact - 1e-6, rho) is not None
    assert checks.check_eof(exact + 3e-3, rho) is not None


def test_check_witness():
    # the mixture of |00> and |11> with its own two members: EoF witness of value 0
    a, b = np.eye(4)[0], np.eye(4)[3]
    rho = (np.outer(a, a) + np.outer(b, b)) / 2.0
    assert checks.check_witness(0.0, rho, [0.5, 0.5], [a, b], TRACE_B) is None
    assert checks.check_witness(1e-8, rho, [0.5, 0.5], [a, b], TRACE_B) is not None
    assert checks.check_witness(0.0, rho, [0.6, 0.4], [a, b], TRACE_B) is not None
    assert checks.check_witness(0.0, rho, [0.5, 0.5], [a, BELL], TRACE_B) is not None


def test_truncation_weights():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    omega = g @ g.conj().T
    omega /= omega.trace().real
    dims = (2, 2, 2, 2)
    w1 = checks.truncation_weight(omega, dims, 1)
    assert 0.0 < w1 < 1.0
    assert checks.check_truncation_weights((1, 2), [w1, 1.0], omega, dims) is None
    assert checks.check_truncation_weights((1, 2), [w1 + 1e-7, 1.0], omega, dims) is not None
    assert checks.check_truncation_weights((1, 2), [w1, 1.0 - 1e-7], omega, dims) is not None


def test_rung_roof():
    assert checks.check_rung_roof(1, 0.0, 0.0) is None
    assert checks.check_rung_roof(1, 1e-6, 0.5) is not None
    assert checks.check_rung_roof(2, 0.3, 0.5) is None
    assert checks.check_rung_roof(2, 0.5 + 1e-6, 0.5) is not None
    assert checks.check_rung_roof(2, -1e-6, 0.5) is not None


def test_min_output_against_bloch_grid():
    q = 0.25
    dephasing = [math.sqrt(1 - q) * np.eye(2), math.sqrt(q) * np.diag([1.0, -1.0])]
    assert checks.bloch_grid_min(dephasing) < 1e-12
    assert checks.check_min_output(0.0, np.array([1.0, 0.0]), dephasing) is None
    # the equator is a valid input but not a minimizer: the grid rejects it
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    ent = checks.entropy_of(checks.apply_kraus(dephasing, np.outer(plus, plus)))
    assert checks.check_min_output(ent, plus, dephasing) is not None
    assert checks.check_min_output(1e-6, np.array([1.0, 0.0]), dephasing) is not None


def test_check_close():
    assert checks.check_close("x", 1.0, 1.004, 5e-3) is None
    assert checks.check_close("x", 1.0, 1.006, 5e-3) is not None
    assert checks.check_close("x", 1.0, float("nan"), 5e-3) is not None
