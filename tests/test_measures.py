import re

import numpy as np
import pytest

from rcdlab.dirichlet import dirichlet_form
from rcdlab.measures import (
    MeasureError,
    ProbMeasure,
    bump_measure,
    dirac,
    fisher_information,
    gaussian_measure,
    measure_from_density,
    relative_entropy,
    tilt_identity_gap,
    tilt_reference,
    uniform_measure,
)
from rcdlab.mmspace import FiniteMMSpace, make_model_space


def entropy_oracle(weights, ref):
    # direct summation, independent of the implementation's masking
    total = 0.0
    for w, r in zip(weights, ref):
        rho = w / r
        if rho > 0:
            total += rho * np.log(rho) * r
    return total


def test_entropy_of_reference_is_zero():
    s = make_model_space("cycle", 4)
    mu = uniform_measure(s)
    assert relative_entropy(mu, s.ref_measure) == pytest.approx(0.0, abs=1e-15)


def test_entropy_of_dirac_on_uniform_four_points():
    s = make_model_space("cycle", 4)
    assert relative_entropy(dirac(s, 1), s.ref_measure) == pytest.approx(np.log(4))


def test_entropy_against_unnormalized_reference():
    s = FiniteMMSpace((0, 1, 2), np.array([[0.0, 1, 2], [1, 0.0, 1], [2, 1, 0.0]]), np.array([1.0, 2.0, 1.0]))
    mu = ProbMeasure(s, np.array([0.5, 0.3, 0.2]))
    ref = np.array([1.0, 2.0, 1.0])
    assert relative_entropy(mu, ref) == pytest.approx(entropy_oracle(mu.weights, ref), abs=1e-14)


def test_entropy_lower_bound_jensen():
    rng = np.random.default_rng(0)
    s = make_model_space("segment", 12)
    ref = s.ref_measure  # probability reference
    for _ in range(50):
        w = rng.dirichlet(np.ones(12))
        assert relative_entropy(ProbMeasure(s, w), ref) >= -np.log(ref.sum()) - 1e-12
    assert relative_entropy(uniform_measure(s), ref) == pytest.approx(-np.log(ref.sum()), abs=1e-12)


def test_tilt_identity_c_zero_and_one_point():
    one = FiniteMMSpace((0,), np.zeros((1, 1)), np.array([3.0]), base_point=0)
    tilt = tilt_reference(one, 0.0)
    assert tilt.z == pytest.approx(3.0)
    mu = ProbMeasure(one, np.array([1.0]))
    assert tilt_identity_gap(mu, tilt) < 1e-12


def test_tilt_identity_randomized():
    rng = np.random.default_rng(4)
    s = make_model_space("segment", 16)
    for _ in range(25):
        c = rng.uniform(0.0, 3.0)
        x0 = int(rng.integers(0, 16))
        tilt = tilt_reference(s, c, x0)
        mu = ProbMeasure(s, rng.dirichlet(np.ones(16)))
        assert tilt_identity_gap(mu, tilt) < 1e-10


def test_tilt_gaussian_profile_agreement():
    s = make_model_space("segment", 16)
    tilt = tilt_reference(s, 1.0)
    mu = gaussian_measure(s, 2.0)
    assert tilt_identity_gap(mu, tilt) < 1e-10


def test_growth_condition_values():
    # z = sum_x exp(-c d(x,x0)^2) m(x), the mass the tilt normalizes by
    one = FiniteMMSpace((0,), np.zeros((1, 1)), np.array([2.5]), base_point=0)
    assert tilt_reference(one, 3.0).z == pytest.approx(2.5)
    tp = make_model_space("two_point", 2)
    assert tilt_reference(tp, np.log(2.0), 0).z == pytest.approx(0.75)
    seg = make_model_space("segment", 64)
    z = tilt_reference(seg, 1.0, 0).z
    V = seg.metric[:, 0]
    assert z == pytest.approx(float(np.sum(np.exp(-(V**2)) * seg.ref_measure)))
    assert 0 < z < 1


@pytest.mark.parametrize("c", [float("nan"), float("inf"), -1.0])
def test_a_tilt_rate_that_is_negative_or_not_finite_is_a_measure_error(c):
    # a NaN c gave all-NaN weights that passed the mass check; c = inf made -inf * 0 at x0
    s = make_model_space("segment", 5)
    with pytest.raises(MeasureError, match=re.escape(repr(c))):
        tilt_reference(s, c)


def test_fisher_stationary_zero_and_two_point_hand_value():
    tp = make_model_space("two_point", 2)
    form = dirichlet_form(tp, rule="unit")
    assert fisher_information(uniform_measure(tp), form) == pytest.approx(0.0, abs=1e-15)
    # density (2, 0): only the positive site contributes: Gamma(rho)(0)/rho(0)*m
    mu = ProbMeasure(tp, np.array([1.0, 0.0]))
    gamma0 = (1.0 / (2 * 0.5)) * 1.0 * (0.0 - 2.0) ** 2
    assert fisher_information(mu, form) == pytest.approx(gamma0 / 2.0 * 0.5)


def test_fisher_matches_continuum_on_cycle():
    # rho(s) = 1 + cos(2 pi s)/2; continuum integral of rho'^2 / rho via quadrature
    from scipy.integrate import quad

    target, _ = quad(lambda s: (np.pi * np.sin(2 * np.pi * s)) ** 2 / (1 + 0.5 * np.cos(2 * np.pi * s)), 0, 1)
    errs = []
    for n in (32, 64, 128):
        s = make_model_space("cycle", n)
        pos = np.array(s.meta["positions"])
        rho = 1 + 0.5 * np.cos(2 * np.pi * pos)
        mu = measure_from_density(s, rho)
        form = dirichlet_form(s)
        errs.append(abs(fisher_information(mu, form) - target))
    assert errs[0] < 0.05 * target
    # O(1/n^2): quartering per doubling, with slack
    assert errs[1] < errs[0] / 2.5
    assert errs[2] < errs[1] / 2.5


def test_fisher_zero_iff_componentwise_constant():
    s = make_model_space("segment", 8)
    form = dirichlet_form(s)
    mu = uniform_measure(s)
    assert fisher_information(mu, form) == pytest.approx(0.0, abs=1e-14)
    rng = np.random.default_rng(2)
    mu2 = ProbMeasure(s, rng.dirichlet(np.ones(8)))
    assert fisher_information(mu2, form) > 1e-6


def test_bump_and_support_metadata():
    s = make_model_space("segment", 17)
    mu = bump_measure(s, 12, 0.13)
    # every measure on a finite space has bounded support, so no tag says so
    assert mu.meta == dirac(s, 12).meta == {}
    rho = mu.density()
    sup = mu.support()
    assert np.allclose(rho[sup], rho[sup][0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_rejected(bad):
    # every comparison with NaN is false, so the sign and mass checks alone pass it
    s = make_model_space("cycle", 12)
    with pytest.raises(MeasureError, match="non-finite"):
        ProbMeasure(s, np.full(12, bad))
    w = np.full(12, 1 / 12)
    w[3] = bad
    with pytest.raises(MeasureError, match="non-finite"):
        ProbMeasure(s, w)


@pytest.mark.parametrize("x0", [-1, 99])
def test_tilt_base_point_outside_the_space_is_measure_error(x0):
    s = make_model_space("segment", 5)
    with pytest.raises(MeasureError):
        tilt_reference(s, 1.0, x0=x0)
    with pytest.raises(MeasureError):
        uniform_measure(s).second_moment(x0)


def test_gaussian_measure_is_the_normalized_tilt():
    s = make_model_space("segment", 9, {"measure": {"gaussian": 0.7}})
    mu = gaussian_measure(s, 3.0, 2)
    w = np.exp(-3.0 * s.metric[:, 2] ** 2) * s.ref_measure
    assert np.array_equal(mu.weights, w / w.sum())
    # the builder derives the sup-density from the weights, so the tag holds only what they cannot give
    assert mu.meta == {"gaussian": {"c2": 3.0, "x0": 2}}


@pytest.mark.parametrize("at", [True, np.True_, 2.7, -1e-13, float("nan"), float("inf"), "2", None])
def test_a_point_index_is_an_integer(at):
    # int() read True as 1, 2.7 as 2, -1e-13 as 0 and "2" as 2, and raised a
    # bare TypeError, ValueError or OverflowError on the rest
    s = make_model_space("segment", 5)
    with pytest.raises(MeasureError, match="not an integer"):
        dirac(s, at)


def test_a_numpy_integer_or_an_integral_float_is_a_point_index():
    s = make_model_space("segment", 5)
    for at in (np.int64(2), np.int32(2), 2.0):
        assert dirac(s, at).support().tolist() == [2]
