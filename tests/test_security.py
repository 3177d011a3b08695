"""Information-rate formulas and the Gram-spectrum bound on Eve."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import entropy as shannon_entropy

from qsdc.security import (
    GRID_POINTS,
    ErrorRates,
    SecurityEstimate,
    _COARSE_A,
    _COARSE_P,
    _entropy,
    _objective,
    half_bias_capacity,
    secrecy_capacity,
)
from reference_functions import _check_unit, binary_entropy, eve_information, main_information, xi
from gram_spectrum import (
    AttackOverlaps,
    entropy_rho_abe,
    gram_eigenvalues,
    gram_matrix,
    optimal_attack_overlaps,
)

NOMINAL = ErrorRates(e_x=0.008, e_z=0.008, e=0.006)
G_NOMINAL = 2.5703957827688635  # 10^(4.1/10)


# frozen pins, computed with standalone stdlib arithmetic
H_016 = 0.11835001140827503
H_006 = 0.05291508034484766
I_AE_Q003 = 9.1261911064e-04
I_AB_Q003 = 2.8412547590e-03
C_S_Q003 = 1.9286356483e-03


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_frozen_values():
    assert binary_entropy(0.016) == pytest.approx(H_016, rel=1e-14)
    assert binary_entropy(0.006) == pytest.approx(H_006, rel=1e-14)


def test_binary_entropy_against_scipy():
    xs = np.linspace(0.001, 0.999, 97)
    for x in xs:
        assert binary_entropy(float(x)) == pytest.approx(
            float(shannon_entropy([x, 1 - x], base=2)), rel=1e-12
        )


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


@given(st.floats(0.0, 1.0))
def test_binary_entropy_symmetry(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


def test_xi_reduces_exactly_at_half():
    # operating bias: the bound collapses to the summed check rates
    for e_x in (0.0, 0.004, 0.008, 0.1, 0.25):
        for e_z in (0.0, 0.008, 0.2):
            if e_x + e_z <= 0.5:
                assert xi(0.5, e_x, e_z) == e_x + e_z


def test_xi_maximal_at_half():
    ps = np.linspace(0.01, 0.99, 99)
    vals = [xi(float(p), 0.008, 0.008) for p in ps]
    assert max(vals) == pytest.approx(xi(0.5, 0.008, 0.008), abs=1e-12)
    assert vals[0] < vals[49]


def test_xi_domain():
    with pytest.raises(ValueError):
        xi(0.5, 0.3, 0.3)
    # the closed-form c_s relies on this: it takes h(e_x + e_z) unclamped
    with pytest.raises(ValueError):
        half_bias_capacity(ErrorRates(0.3, 0.3, 0.01), 0.003, G_NOMINAL)


def test_xi_against_numeric_gram_spectrum():
    # independent oracle: at the disturbance-optimal overlaps the joint
    # state entropy is 1 + h(xi); compare against a numeric
    # eigendecomposition of the explicit 4x4 Gram matrix
    rng = np.random.default_rng(42)
    for _ in range(200):
        e_x = rng.uniform(0.0, 0.2)
        e_z = rng.uniform(0.0, 0.2)
        p = rng.uniform(0.02, 0.98)
        ov = AttackOverlaps(alpha=0.0, beta=0.0, delta_mag=1.0 - 2.0 * (e_x + e_z))
        lam = np.linalg.eigvalsh(gram_matrix(p, ov))
        lam = np.clip(lam, 1e-300, None)
        s_numeric = float(-(lam * np.log2(lam)).sum())
        assert s_numeric == pytest.approx(1.0 + binary_entropy(xi(p, e_x, e_z)), abs=1e-9)


def test_gram_matrix_structure(rng):
    for _ in range(50):
        a = rng.uniform(0, 0.4)
        b = rng.uniform(0, 0.4)
        dmax = math.sqrt(max((1 - abs(a - b)) ** 2 - (a + b) ** 2, 0.0))
        ov = AttackOverlaps(alpha=a, beta=b, delta_mag=rng.uniform(0, dmax))
        p = rng.uniform(0.05, 0.95)
        gm = gram_matrix(p, ov)
        assert gm.shape == (4, 4)
        assert np.allclose(gm, gm.conj().T)
        assert np.trace(gm).real == pytest.approx(1.0, abs=1e-12)


def test_gram_eigenvalues_match_numeric(rng):
    # unit-scale version of the full oracle sweep in the acceptance suite
    for _ in range(100):
        a = rng.uniform(0, 0.5)
        b = rng.uniform(0, 0.5)
        lim = (1 - abs(a - b)) ** 2 - (a + b) ** 2
        if lim <= 0:
            continue
        ov = AttackOverlaps(alpha=a, beta=b, delta_mag=rng.uniform(0, math.sqrt(lim)))
        p = rng.uniform(0.01, 0.99)
        closed = gram_eigenvalues(p, ov)
        numeric = np.sort(np.linalg.eigvalsh(gram_matrix(p, ov)))[::-1]
        assert np.abs(closed - numeric).max() < 1e-12
        assert closed.min() > -1e-12
        assert closed.sum() == pytest.approx(1.0, abs=1e-12)


def test_entropy_rho_abe_equals_one_plus_h_xi():
    for p in (0.1, 0.3, 0.5, 0.7):
        expected = 1.0 + binary_entropy(xi(p, 0.008, 0.008))
        assert entropy_rho_abe(p, NOMINAL) == pytest.approx(expected, rel=1e-12)


def test_optimal_attack_overlaps_saturate():
    ov = optimal_attack_overlaps(NOMINAL)
    assert ov.alpha == 0.0 and ov.beta == 0.0
    assert ov.delta_mag == pytest.approx(1.0 - 2.0 * 0.016)
    assert ov.delta1 + ov.delta2 <= 1.0 + 1e-12


def test_attack_overlaps_validation():
    with pytest.raises(ValueError):
        AttackOverlaps(alpha=0.8, beta=0.0, delta_mag=0.9)
    with pytest.raises(ValueError):
        AttackOverlaps(alpha=-0.1, beta=0.0, delta_mag=0.1)


def test_error_rates_validation():
    with pytest.raises(ValueError):
        ErrorRates(e_x=0.6, e_z=0.0, e=0.0)
    with pytest.raises(ValueError):
        ErrorRates(e_x=0.0, e_z=-0.1, e=0.0)


def test_eve_information_frozen_value():
    q_eve = 0.003 * G_NOMINAL
    assert eve_information(q_eve, 0.5, NOMINAL) == pytest.approx(I_AE_Q003, rel=1e-9)


def test_eve_information_scales_with_q():
    v1 = eve_information(0.001, 0.5, NOMINAL)
    v2 = eve_information(0.002, 0.5, NOMINAL)
    assert v2 == pytest.approx(2 * v1, rel=1e-12)


def test_main_information_frozen_value():
    assert main_information(0.003, 0.5, 0.006) == pytest.approx(I_AB_Q003, rel=1e-9)


def test_main_information_perfect_channel():
    assert main_information(0.25, 0.5, 0.0) == pytest.approx(0.25, rel=1e-12)


def test_main_information_decreasing_in_e():
    es = np.linspace(0.0, 0.49, 50)
    vals = [main_information(0.003, 0.5, float(e)) for e in es]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_secrecy_capacity_nominal():
    est = secrecy_capacity(NOMINAL, 0.003, G_NOMINAL)
    half = half_bias_capacity(NOMINAL, 0.003, G_NOMINAL)
    assert est.p == pytest.approx(0.5, abs=1e-6)
    assert est.c_s == pytest.approx(est.i_ab - est.i_ae, rel=1e-12)
    assert half.c_s == pytest.approx(C_S_Q003, rel=1e-9)
    # at the operating bias the grid optimum coincides with the closed form
    assert est.c_s == pytest.approx(half.c_s, rel=1e-9)


def test_secrecy_capacity_closed_form_independent():
    # closed form re-derived with the scipy entropy oracle
    q, g = 0.0021, 2.2
    est = half_bias_capacity(ErrorRates(0.01, 0.005, 0.004), q, g)
    h = lambda x: float(shannon_entropy([x, 1 - x], base=2))
    expected = q * (1 - h(0.004) - g * h(0.015))
    assert est.c_s == pytest.approx(expected, rel=1e-12)


def test_secrecy_capacity_negative_under_heavy_noise():
    est = half_bias_capacity(ErrorRates(0.2, 0.2, 0.2), 0.003, G_NOMINAL)
    assert est.c_s < 0


def test_formulas_accept_arrays():
    # the bias search evaluates whole grids; each element must agree
    # with the scalar evaluation
    ps = np.linspace(0.0, 1.0, 41)
    q_eve = 0.003 * G_NOMINAL
    for fn, scalar in (
        (binary_entropy, lambda p: binary_entropy(p)),
        (lambda p: xi(p, 0.03, 0.02), lambda p: xi(p, 0.03, 0.02)),
        (lambda p: main_information(0.003, p, 0.006), lambda p: main_information(0.003, p, 0.006)),
        (lambda p: eve_information(q_eve, p, NOMINAL), lambda p: eve_information(q_eve, p, NOMINAL)),
    ):
        got = fn(ps)
        assert isinstance(got, np.ndarray) and got.shape == ps.shape
        assert np.allclose(got, [scalar(float(p)) for p in ps], rtol=1e-12, atol=1e-15)
    with pytest.raises(ValueError):
        binary_entropy(np.array([0.2, 1.5]))
    with pytest.raises(ValueError):
        xi(np.array([0.5, -0.1]), 0.01, 0.01)


_OUT_OF_UNIT = [
    pytest.param(kind(v), id=f"{kind.__name__}({v})")
    for kind in (float, np.float64, np.array)
    for v in (math.nan, -0.01, 1.01)
] + [pytest.param(-1, id="int(-1)"), pytest.param(2, id="int(2)")]


@pytest.mark.parametrize("v", _OUT_OF_UNIT)
def test_scalar_domain_checks_reject(v):
    # scalars and 0-d arrays take the math path, which must reject what
    # the numpy path rejects, NaN included
    with pytest.raises(ValueError):
        _check_unit("v", v)
    with pytest.raises(ValueError):
        binary_entropy(v)
    with pytest.raises(ValueError):
        xi(v, 0.01, 0.02)


@pytest.mark.parametrize("kind", [float, np.float64, np.array])
def test_scalar_kinds_agree(kind):
    # every scalar kind gives the Python float's value, as a float
    for p in (0.0, 0.3, 0.5, 1.0):
        for got, want in ((binary_entropy(kind(p)), binary_entropy(p)),
                          (xi(kind(p), 0.01, 0.02), xi(p, 0.01, 0.02))):
            assert type(got) is float and got == want
    assert binary_entropy(1) == binary_entropy(0) == 0.0


def test_half_bias_capacity_caps_only_eve_rate():
    # at g * q_bob > 1 Eve's detection rate saturates at one, while the
    # closed-form c_s keeps the uncapped g * q_bob
    rates = ErrorRates(0.06, 0.04, 0.006)
    half = half_bias_capacity(rates, 0.5, G_NOMINAL)
    assert half.p == 0.5
    assert half.i_ab == pytest.approx(0.5 * (1.0 - H_006), rel=1e-12)
    assert half.i_ae == pytest.approx(binary_entropy(0.1), rel=1e-12)
    expected = 0.5 * (1.0 - H_006 - G_NOMINAL * binary_entropy(0.1))
    assert half.c_s == pytest.approx(expected, rel=1e-12)


def test_secrecy_capacity_interior_optimum():
    # at 3 dB and (e_x, e_z) = (0.06, 0.04) the best bias leaves 1/2;
    # the two-stage grid must match a dense brute-force search
    rates = ErrorRates(0.06, 0.04, 0.006)
    q_bob = 10.0 ** (-0.3)
    est = secrecy_capacity(rates, q_bob, G_NOMINAL)
    ps = np.linspace(0.0, 1.0, 400_001)
    values = main_information(q_bob, ps, rates.e) - eve_information(1.0, ps, rates)
    assert est.p == pytest.approx(float(ps[np.argmax(values)]), abs=1e-5)
    assert est.c_s >= float(values.max()) - 1e-12
    assert est.c_s == pytest.approx(est.i_ab - est.i_ae, rel=1e-12)


def _reference_secrecy_capacity(rates: ErrorRates, q_bob: float, g: float) -> SecurityEstimate:
    """The two-stage bias search on the public array functions, each of
    which checks its arguments on every evaluation; secrecy_capacity
    must give exactly this."""
    q_eve = min(g * q_bob, 1.0)

    def objective(p: np.ndarray) -> np.ndarray:
        return main_information(q_bob, p, rates.e) - eve_information(q_eve, p, rates)

    grid = np.linspace(0.0, 0.5, GRID_POINTS)
    best = int(np.argmax(objective(grid)))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, GRID_POINTS - 1)]
    fine = np.concatenate([[grid[best]], np.linspace(lo, hi, GRID_POINTS)])
    p_star = float(fine[np.argmax(objective(fine))])
    i_ab = main_information(q_bob, p_star, rates.e)
    i_ae = eve_information(q_eve, p_star, rates)
    return SecurityEstimate(p=p_star, i_ab=i_ab, i_ae=i_ae, c_s=i_ab - i_ae)


def _bits(est: SecurityEstimate) -> dict:
    # float.hex tells -0.0 from 0.0, and the type must match too
    return {k: (type(v), float(v).hex()) for k, v in vars(est).items()}


# perfbench's capacity_scan grid: e = 0.006 and g = 10^0.41 at every point
_BENCH_G = 10.0 ** (4.1 / 10.0)
_BENCH_GRID = [
    (ErrorRates(e_x, e_z, 0.006), 10.0 ** (-loss / 10.0), _BENCH_G)
    for loss in (3.0, 10.0, 18.06, 25.1, 30.0, 40.0)
    for e_x, e_z in ((0.008, 0.008), (0.02, 0.03), (0.06, 0.04), (0.1, 0.1), (0.25, 0.2))
]
_EDGE_POINTS = [
    pytest.param(ErrorRates(0.008, 0.008, 0.0), 0.003, G_NOMINAL, id="e=0"),
    pytest.param(ErrorRates(0.0, 0.0, 0.006), 0.003, G_NOMINAL, id="e_x=e_z=0"),
    pytest.param(ErrorRates(0.25, 0.25, 0.006), 0.003, G_NOMINAL, id="e_x+e_z=0.5"),
    pytest.param(ErrorRates(0.5, 0.0, 0.006), 0.003, G_NOMINAL, id="e_x=0.5"),
    pytest.param(ErrorRates(0.0, 0.0, 0.5), 0.003, G_NOMINAL, id="e=0.5"),
    pytest.param(NOMINAL, 0.0, G_NOMINAL, id="q_bob=0"),
    pytest.param(NOMINAL, 1.0, G_NOMINAL, id="q_bob=1"),
    pytest.param(ErrorRates(0.06, 0.04, 0.006), 0.5, G_NOMINAL, id="g*q_bob>1"),
    pytest.param(NOMINAL, 0.003, 0.0, id="g=0"),
    pytest.param(ErrorRates(0.1, 0.1, 0.006), 0.003, G_NOMINAL, id="insecure"),
    pytest.param(ErrorRates(0.25, 0.2, 0.006), 10.0 ** -4.0, G_NOMINAL, id="insecure-40dB"),
] + [
    pytest.param(rates, q_bob, g, id=f"bench-{i}") for i, (rates, q_bob, g) in enumerate(_BENCH_GRID)
]


@pytest.mark.parametrize("rates, q_bob, g", _EDGE_POINTS)
def test_secrecy_capacity_equals_reference_search(rates, q_bob, g):
    assert _bits(secrecy_capacity(rates, q_bob, g)) == _bits(_reference_secrecy_capacity(rates, q_bob, g))


@st.composite
def _capacity_inputs(draw):
    e_x = draw(st.floats(0.0, 0.5))
    e_z = draw(st.floats(0.0, 0.5))
    assume(e_x + e_z <= 0.5)
    rates = ErrorRates(e_x, e_z, draw(st.floats(0.0, 0.5)))
    return rates, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 20.0))


@settings(max_examples=300, deadline=None)
@given(_capacity_inputs())
def test_secrecy_capacity_equals_reference_search_anywhere(inputs):
    assert _bits(secrecy_capacity(*inputs)) == _bits(_reference_secrecy_capacity(*inputs))
    # on in-domain rates the cap is the identity for the closed forms
    rates, q_bob, g = inputs
    capped = ErrorRates.capped(rates.e_x, rates.e_z, rates.e)
    assert _bits(half_bias_capacity(capped, q_bob, g)) == _bits(half_bias_capacity(rates, q_bob, g))


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_capped_rates_are_always_in_the_domain(e_x, e_z, e):
    capped = ErrorRates.capped(e_x, e_z, e)
    assert (capped.e_x, capped.e_z, capped.e) == (min(e_x + e_z, 0.5), 0.0, min(e, 0.5))
    for nan_at in range(3):
        args = [e_x, e_z, e]
        args[nan_at] = math.nan
        with pytest.raises(ValueError, match="got nan"):
            ErrorRates.capped(*args)


@pytest.mark.parametrize("rates, q_bob, g", _EDGE_POINTS)
def test_coarse_grid_objective_equals_public_expression(rates, q_bob, g):
    # the fixed grid and its p-only terms are what the expressions give
    p = np.linspace(0.0, 0.5, GRID_POINTS)
    for fixed, fresh in ((_COARSE_P, p), (_COARSE_A, (1.0 - 2.0 * p) ** 2)):
        assert np.array_equal(fixed, fresh)
        assert not fixed.flags.writeable
    q_eve = min(g * q_bob, 1.0)
    kernel = _objective(_COARSE_P, _COARSE_A, q_bob, q_eve, rates.e, _entropy(rates.e),
                        rates.e_x + rates.e_z)
    public = main_information(q_bob, p, rates.e) - eve_information(q_eve, p, rates)
    assert kernel.dtype == public.dtype == np.float64
    assert np.array_equal(kernel.view(np.uint64), public.view(np.uint64))


def _raises(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


_BAD_UNIT = (math.nan, -0.01, 1.01)
_BAD_E = (math.nan, -0.01, 0.51)
_BAD_G = (math.nan, -1.0, math.inf)


@pytest.mark.parametrize("v", _BAD_UNIT)
def test_bad_q_bob_is_rejected_at_every_boundary(v):
    want = f"q_bob must be in [0, 1], got {v}"
    assert _raises(main_information, v, 0.5, 0.006) == want
    assert _raises(half_bias_capacity, NOMINAL, v, G_NOMINAL) == want
    assert _raises(secrecy_capacity, NOMINAL, v, G_NOMINAL) == want
    want = f"q_eve must be in [0, 1], got {v}"
    assert _raises(eve_information, v, 0.5, NOMINAL) == want


@pytest.mark.parametrize("p", [*_BAD_UNIT, *(np.array([0.2, v]) for v in _BAD_UNIT)])
def test_bad_p_is_rejected_at_every_boundary(p):
    assert _raises(binary_entropy, p) == f"binary_entropy argument must be in [0, 1], got {p}"
    want = f"p must be in [0, 1], got {p}"
    assert _raises(xi, p, 0.01, 0.02) == want
    assert _raises(main_information, 0.003, p, 0.006) == want
    assert _raises(eve_information, 0.003, p, NOMINAL) == want


@pytest.mark.parametrize("e", _BAD_E)
def test_bad_e_is_rejected_at_every_boundary(e):
    # ErrorRates is the one check of e, so no capacity call sees a bad one
    want = f"e must be in [0, 0.5], got {e}"
    assert _raises(ErrorRates, 0.008, 0.008, e) == want
    assert _raises(main_information, 0.003, 0.5, e) == want


@pytest.mark.parametrize("g", _BAD_G)
def test_bad_g_is_rejected_at_every_boundary(g):
    want = f"g must be in [0, inf), got {g}"
    assert _raises(half_bias_capacity, NOMINAL, 0.003, g) == want
    assert _raises(secrecy_capacity, NOMINAL, 0.003, g) == want


@pytest.mark.parametrize("e_x, e_z, want", [
    pytest.param(0.3, 0.3, "e_x + e_z must be <= 0.5, got 0.3, 0.3", id="0.3-0.3"),
    pytest.param(0.5, 0.01, "e_x + e_z must be <= 0.5, got 0.5, 0.01", id="0.5-0.01"),
    pytest.param(-0.1, 0.1, "e_x must be in [0, 0.5], got -0.1", id="-0.1-0.1"),
    pytest.param(0.1, -0.1, "e_z must be in [0, 0.5], got -0.1", id="0.1--0.1"),
])
def test_bad_check_rates_are_rejected_at_every_boundary(e_x, e_z, want):
    # ErrorRates is the one check of the check rates, each and their sum
    assert _raises(ErrorRates, e_x, e_z, 0.006) == want
    assert _raises(xi, 0.5, e_x, e_z) == want


@pytest.mark.parametrize("e_x, e_z", [(math.nan, 0.01), (0.01, math.nan)])
def test_nan_check_rate_fails_the_rate_check(e_x, e_z):
    # the per-rate check fails first on a NaN, and names the rate
    want = "e_x must be in [0, 0.5], got nan" if math.isnan(e_x) else "e_z must be in [0, 0.5], got nan"
    assert _raises(ErrorRates, e_x, e_z, 0.006) == want
    assert _raises(xi, 0.3, e_x, e_z) == want
