import numpy as np
import pytest

import checks
import inputs
import reference

REPORT = {"log_score": 0.0125, "crps": [0.17, 0.16], "pit_ks": [0.02, 0.03],
          "energy_score": 0.25, "n_evaluated": 150, "n_excluded": 0}
REFS = dict(rows=150, log_ref=0.0125, crps_ref=[0.17, 0.16], ks_ref=[0.02, 0.03],
            energy_ref=(0.25, 0.002))


def _passes(found):
    return all(c.ok for c in found)


def _score(**changes):
    return checks.score("t", dict(REPORT, **changes), **REFS)


def test_score_accepts_the_reference_and_equivalent_answers():
    assert _passes(_score())
    # a quadrature within 1e-6, rounding-level log score, a Monte Carlo draw
    assert _passes(_score(crps=[0.17 + 5e-7, 0.16], log_score=0.0125 + 1e-13,
                          energy_score=0.25 + 3 * 0.002))


@pytest.mark.parametrize("changes", [
    {"log_score": 0.0125 + 1e-6},
    {"crps": [0.17 + 1e-5, 0.16]},
    {"crps": [0.17]},
    {"pit_ks": [0.02, 0.03 + 1e-8]},
    {"energy_score": 0.25 + 5 * 0.002},
    {"energy_score": None},
    {"log_score": float("nan")},
    {"n_evaluated": 149},
    {"n_excluded": 1},
])
def test_score_rejects_a_perturbed_report(changes):
    assert not _passes(_score(**changes))


def _uniform_cdf(d, col):
    return col


def test_draws_accept_uniform_draws_and_reject_bad_ones():
    rng = np.random.default_rng(0)
    n = inputs.DRAWS
    good = rng.random((n, 2))
    lower, upper = np.zeros(2), np.ones(2)
    assert _passes(checks.draws("t", good, n, lower, upper, _uniform_cdf))
    shifted = good + np.array([0.0, 0.5])
    assert not _passes(checks.draws("t", shifted, n, lower, upper, _uniform_cdf))
    skewed = good ** 1.05  # a CDF about 1% off
    assert not _passes(checks.draws("t", skewed, n, lower, upper, _uniform_cdf))
    assert not _passes(checks.draws("t", good[:-1], n, lower, upper, _uniform_cdf))


def test_grid_riemann_sum():
    cells = 64 * 64
    assert _passes(checks.grid("t", np.ones(cells), cells, 1.0 / cells))
    assert not _passes(checks.grid("t", np.full(cells, 1.002), cells, 1.0 / cells))
    assert not _passes(checks.grid("t", np.ones(cells - 1), cells, 1.0 / (cells - 1)))
    assert not _passes(checks.grid("t", np.full(cells, np.nan), cells, 1.0 / cells))


def test_fit_checks():
    assert _passes(checks.fit("t", -0.01, 0.002, True))
    assert not _passes(checks.fit("t", float("nan"), 0.002, True))
    assert not _passes(checks.fit("t", -0.01, checks.FIT_GAP_MARGIN + 1e-4, True))
    assert not _passes(checks.fit("t", -0.01, None, True))
    assert not _passes(checks.fit("t", -0.01, 0.002, False))


def test_identical():
    assert checks.identical("t", ["a", "a", "a"]).ok
    assert not checks.identical("t", ["a", "b", "a"]).ok


def test_ks_matches_its_definition():
    u = np.array([0.1, 0.4, 0.45, 0.9])
    # D+ = max(i/n - u_i) = 0.3 at i = 3; D- = max(u_i - (i-1)/n) = 0.15
    assert checks.ks_uniform(u) == pytest.approx(0.3)
    assert checks.ks_critical(10_000, 0.01) == pytest.approx(1.6276 / 100, rel=1e-3)


def test_reference_matches_jdan_on_the_frozen_models():
    from jdan import joint_pdf, model_io
    from jdan.metrics import crps_marginal, pit_values

    rng = np.random.default_rng(1)
    fc, doc = model_io.load_model(inputs.UNIFORM_MODEL)
    pts = rng.random((200, 2))
    ref = reference.Model(doc)
    assert np.allclose(np.exp(ref.log_density(pts)), joint_pdf(fc.model_for(), pts),
                       rtol=1e-12, atol=0)
    fc, doc = model_io.load_model(inputs.CONDITIONAL_MODEL)
    x, y = inputs.conditional_rows(1, "score", 30)
    ref = reference.Model(doc, x[:, None])
    assert np.allclose(ref.pit(y), pit_values(fc, y, x[:, None]), rtol=0, atol=1e-12)
    assert abs(ref.crps(y, 0).mean() - crps_marginal(fc, y, 0, x[:, None])) < 1e-9
    q = ref.quantile(1, np.array([[0.1, 0.5, 0.9]] * 30))
    assert np.allclose(ref.cdf(1, q), [[0.1, 0.5, 0.9]] * 30, atol=1e-12)


def test_frozen_models_keep_their_bytes():
    # copies of runs/*_model.json as of the benchmark's first version
    assert inputs.sha256(inputs.UNIFORM_MODEL) == (
        "7cc2a4ed2672c9d3c02e209365c087af829cf876ef8e324e3c6fdfd088951c00")
    assert inputs.sha256(inputs.CONDITIONAL_MODEL) == (
        "80e05963737a5f1c4e3ce555bcffe83ee43e4175cffb81f09bf7d23324f2e5f0")
