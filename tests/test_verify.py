"""A known-answer fixture for the metrics, and the verify battery on it.

A model whose marginals are linear on the unit box has F_d(y) = y, so it is
the combiner itself: an FGM copula on uniform margins. Its PIT is y, its
quantile is p, its CRPS is 1/3 - y + y^2 in each dimension, and its log
density is log(1 + mean over pairs of C (1 - 2 y_d)(1 - 2 y_i)). Every check
of the battery must pass on it.
"""

import numpy as np
import pytest

from jdan.copula import pair_indices
from jdan.hypernet import Forecaster
from jdan.marginal import inverse_cdf
from jdan.metrics import crps_marginal, log_score, pit_values
from jdan.verify import battery

from conftest import fgm_net

FIXTURES = pytest.mark.parametrize("dim, c", [(2, 0.6), (2, -0.9), (3, 0.6), (4, -0.9)])


@FIXTURES
def test_linear_marginals_give_the_closed_forms(dim, c):
    fc = Forecaster(*fgm_net(dim, c))
    model = fc.model_for(None)
    y = np.random.default_rng(dim).random((200, dim))
    assert np.max(np.abs(pit_values(fc, y) - y)) <= 4.4e-16
    for d, (m, b) in enumerate(zip(model.marginals, model.bounds)):
        assert np.max(np.abs(inverse_cdf(m, y[:, d], b) - y[:, d])) <= 4.4e-16
        for row in y[:20]:
            assert abs(crps_marginal(fc, row[None], d) - (1 / 3 - row[d] + row[d] ** 2)) <= 4.4e-16
    pairs = pair_indices(dim)
    dens = 1.0 + sum(c * (1 - 2 * y[:, a]) * (1 - 2 * y[:, b]) for a, b in pairs) / len(pairs)
    # LOG_EPS = 1e-12 is added to each density before its log
    assert abs(log_score(fc, y)[0] - np.mean(np.log(dens))) <= 4.2e-12


@FIXTURES
def test_every_check_passes_on_the_fixture(dim, c):
    checks = battery(Forecaster(*fgm_net(dim, c)).model_for(None), "full", 0)
    assert [name for name, ok, _ in checks if not ok] == []
    assert len(checks) == 12
