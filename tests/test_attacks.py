"""Eavesdropping models and their disturbance signatures."""

import numpy as np
import pytest

from qsdc.attacks import (
    AttackKind,
    AttackModel,
    eve_intercept_resend,
    eve_optimal_collective,
)
from qsdc.states import measure_codes, random_state_codes


def _matched_error_rate(codes, wire, rng):
    """Measure the wire in the preparation basis and compare bits."""
    bases = (codes >> 1).astype(np.uint8)
    outcomes = measure_codes(wire, bases, rng)
    return float((outcomes != (codes & 1)).mean())


def test_model_validation():
    with pytest.raises(ValueError):
        AttackModel.intercept_resend(1.5)
    with pytest.raises(ValueError):
        AttackModel.intercept_resend(-0.1)
    with pytest.raises(ValueError):
        AttackModel.optimal_collective(0.3, 0.3)  # targets above the bound


def test_none_attack_is_identity(rng):
    codes = random_state_codes(5000, rng)
    wire = AttackModel.none().apply(codes, rng)
    assert (wire == codes).all()


def test_intercept_resend_fraction_zero_identity(rng):
    codes = random_state_codes(5000, rng)
    wire, eve_bits, touched = eve_intercept_resend(codes, 0.0, rng)
    assert (wire == codes).all()
    assert not touched.any()


def test_intercept_resend_full_error_rate(rng):
    # 4 states x 2 Eve bases: matched-basis resend is clean half the
    # time and a fair coin otherwise, so the induced error rate is 1/4
    n = 200000
    codes = random_state_codes(n, rng)
    wire, eve_bits, touched = eve_intercept_resend(codes, 1.0, rng)
    assert touched.all()
    rate = _matched_error_rate(codes, wire, rng)
    assert abs(rate - 0.25) < 3 * np.sqrt(0.25 * 0.75 / n)


def test_intercept_resend_half_fraction(rng):
    n = 200000
    codes = random_state_codes(n, rng)
    wire, _, touched = eve_intercept_resend(codes, 0.5, rng)
    assert abs(touched.mean() - 0.5) < 3 * np.sqrt(0.25 / n)
    rate = _matched_error_rate(codes, wire, rng)
    assert abs(rate - 0.125) < 3 * np.sqrt(0.125 * 0.875 / n)


def test_intercept_resend_monotone_in_fraction(rng):
    n = 120000
    codes = random_state_codes(n, rng)
    rates = []
    for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
        wire, _, _ = eve_intercept_resend(codes, fraction, np.random.default_rng(7))
        rates.append(_matched_error_rate(codes, wire, np.random.default_rng(8)))
    assert all(a <= b + 1e-9 for a, b in zip(rates, rates[1:]))


def test_collective_identity_at_zero_targets(rng):
    codes = random_state_codes(5000, rng)
    wire = eve_optimal_collective(codes, 0.0, 0.0, rng)
    assert (wire == codes).all()


def test_collective_hits_targets(rng):
    # criterion: measured check rates match targets within 3 binomial
    # sigma over 1e5 pulses per basis
    n = 200000
    e_x_t, e_z_t = 0.012, 0.006
    codes = random_state_codes(n, rng)
    wire = eve_optimal_collective(codes, e_x_t, e_z_t, rng)
    z_prep = (codes >> 1) == 0
    x_prep = ~z_prep
    out_z = measure_codes(wire[z_prep], np.zeros(int(z_prep.sum()), dtype=np.uint8), rng)
    out_x = measure_codes(wire[x_prep], np.ones(int(x_prep.sum()), dtype=np.uint8), rng)
    e_z = float((out_z != (codes[z_prep] & 1)).mean())
    e_x = float((out_x != (codes[x_prep] & 1)).mean())
    assert abs(e_z - e_z_t) < 3 * np.sqrt(e_z_t * (1 - e_z_t) / z_prep.sum())
    assert abs(e_x - e_x_t) < 3 * np.sqrt(e_x_t * (1 - e_x_t) / x_prep.sum())


def test_apply_dispatch(rng):
    codes = random_state_codes(1000, rng)
    for model in (
        AttackModel.none(),
        AttackModel.intercept_resend(0.3),
        AttackModel.optimal_collective(0.01, 0.01),
    ):
        wire = model.apply(codes, rng)
        assert wire.shape == codes.shape


def test_kind_values():
    assert AttackKind.NONE.value == "none"
    assert AttackKind.INTERCEPT_RESEND.value == "intercept-resend"
    assert AttackKind.OPTIMAL_COLLECTIVE.value == "collective"
