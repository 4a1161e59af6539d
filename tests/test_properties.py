"""Property tests of the fit on small random books, drawn by hypothesis.

Each book has 20 to 60 contracts with exposures in [0.05, 1], zero or
gamma losses at a loss scale from 1e-4 to 1e6, and up to two normal
covariates.  At least ``q + 2`` losses are positive, so the covariates
cannot separate the zeros and the optimum exists.  The examples are
derandomized, so every run draws the same books.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exposure_glm import Portfolio, TweedieFamily, WeightScheme, fit

PROPERTY = settings(max_examples=25, derandomize=True, database=None, deadline=None)


@st.composite
def books(draw, full_exposure=False):
    """``(t, y, x, p)`` of a small book and a variance power."""
    n = draw(st.integers(20, 60))
    q = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.ones(n) if full_exposure else rng.uniform(0.05, 1.0, n)
    x = rng.normal(0.0, 1.0, (n, q))
    positive = rng.random(n) < draw(st.floats(0.3, 1.0))
    positive[: q + 2] = True
    scale = 10.0 ** draw(st.integers(-4, 6))
    y = np.where(positive, rng.gamma(1.5, scale, n), 0.0)
    p = draw(st.sampled_from([1.1, 1.5, 1.9]))
    return t, y, x, p


@PROPERTY
@given(books(), st.sampled_from([1e-4, 1e5]), st.sampled_from(list(WeightScheme)))
def test_scaling_losses_moves_only_the_intercept(book, c, scheme):
    t, y, x, p = book
    family = TweedieFamily(p=p)
    base = fit(Portfolio.from_arrays(t, y, x), scheme, family)
    # The property is about the optimum: skip a book whose fit stalls
    # before it (none of these examples does).
    assume(base.converged)
    scaled = fit(Portfolio.from_arrays(t, c * y, x), scheme, family)
    assert scaled.converged
    assert abs(scaled.beta_hat[0] - math.log(c) - base.beta_hat[0]) < 1e-10
    assert np.max(np.abs(scaled.beta_hat[1:] - base.beta_hat[1:]), initial=0.0) < 1e-10


@PROPERTY
@given(books())
def test_ratio_fit_balances_the_intercept_score(book):
    # sum_i t_i zeta_i**(1-p) (z_i - zeta_i) = 0 at the ratio optimum
    t, y, x, p = book
    pf = Portfolio.from_arrays(t, y, x)
    # the intercept score balances even where the slopes do not converge
    result = fit(pf, WeightScheme.RATIO, TweedieFamily(p=p))
    zeta = np.exp(pf.design @ result.beta_hat)
    v = t * zeta ** (1.0 - p)
    residual = math.fsum(v * (pf.normalized - zeta)) / math.fsum(v * pf.normalized)
    assert abs(residual) < 1e-12


@PROPERTY
@given(books(full_exposure=True))
def test_offset_equals_ratio_at_full_exposure(book):
    t, y, x, p = book
    pf = Portfolio.from_arrays(t, y, x)
    family = TweedieFamily(p=p)
    offset = fit(pf, WeightScheme.OFFSET, family)
    ratio = fit(pf, WeightScheme.RATIO, family)
    np.testing.assert_array_equal(offset.beta_hat, ratio.beta_hat)
    assert offset.iterations == ratio.iterations
