"""The shared dense-oracle comparisons report a NaN from a fast path."""
import math

import numpy as np

import freeferm as ff
from freeferm import oracle
from freeferm.circuits import compile_naive

from conftest import random_orthogonal, random_pure_state


def test_largest_passes_nan_through():
    assert oracle.largest([]) == 0.0
    assert oracle.largest([0.5, 2.0, 1.0]) == 2.0
    assert math.isnan(oracle.largest([0.5, math.nan, 1.0]))


def test_deviations_report_a_later_nan(monkeypatch, rng):
    cov, psi = random_pure_state(2, rng)
    q = random_orthogonal(4, rng)
    program = compile_naive(q)
    q[-1] = np.nan  # only the last generator's target
    assert math.isnan(oracle.conjugation_deviation(program, q))
    # degree 2 is compared first, so only the degree-4 monomial is NaN
    monkeypatch.setattr(oracle, "wick_expectation", lambda cov, mono: (
        math.nan if mono.degree == 4 else ff.wick_expectation(cov, mono)))
    assert math.isnan(oracle.wick_deviation(cov, psi, (2, 4)))
    assert math.isnan(oracle.channel_identity_deviation(cov))


def test_battery_fails_on_a_later_nan(monkeypatch):
    factors = iter([1.0] + [math.nan] * 9)
    monkeypatch.setattr(oracle, "spectrum", lambda ham: ff.spectrum(ham) * next(factors))
    failed = [name for name, ok, _ in oracle.battery(2, 3) if not ok]
    assert failed == ["free spectra match dense eigenvalues"]
