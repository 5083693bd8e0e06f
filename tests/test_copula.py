"""Joint CDF/density: validity, closed-form density vs FD oracle, sampling."""

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from jdan import numerics
from jdan.copula import (
    CorrelationParams,
    JdanModel,
    copula_cdf,
    copula_density,
    grid_pdf,
    joint_cdf,
    joint_pdf,
    marginal_cdf_values,
    mixed_partial_fd,
    n_pairs,
    pair_indices,
    sample,
)
from jdan.errors import BracketError, ContractError, JdanError
from jdan.hypernet import materialize
from jdan.marginal import Bounds, MarginalNetParams, normalized_cdf

from conftest import interior_points, random_model, unit_arch


def linear_model(dim=2, corr=0.0):
    """Every marginal affine on [0, 1] => uniform margins; plain pairwise joint."""
    nets = [
        MarginalNetParams(
            layer_sizes=[1, 1, 1],
            raw_weights=[np.zeros((1, 1)), np.zeros((1, 1))],
            biases=[np.zeros(1), np.zeros(1)],
            activation="linear",
        )
        for _ in range(dim)
    ]
    raw = np.arctanh(np.broadcast_to(np.asarray(corr, dtype=np.float64), (n_pairs(dim),)))
    return JdanModel(
        dim=dim,
        marginals=nets,
        correlations=CorrelationParams(raw=raw),
        bounds=[Bounds(0.0, 1.0)] * dim,
    )


def test_pair_bookkeeping():
    assert n_pairs(2) == 1
    assert n_pairs(5) == 10
    assert pair_indices(3) == [(0, 1), (0, 2), (1, 2)]
    # raw vector length must match the pair count of the evaluated dimension
    with pytest.raises(ContractError):
        copula_cdf(CorrelationParams(raw=np.zeros(2)), np.full(3, 0.5))


def test_effective_correlations_stay_admissible():
    c = CorrelationParams(raw=np.array([-50.0, -1.0, 0.0, 1.0, 50.0, 3.0]))
    eff = c.effective()
    # float tanh saturates to exactly +/-1 for huge raw values; the closed
    # endpoints are still admissible (density touches 0 but never dips below)
    assert np.all(np.abs(eff) <= 1.0)
    assert abs(eff[1]) < 1.0 and abs(eff[5]) < 1.0
    assert eff[2] == 0.0
    assert eff[3] == pytest.approx(np.tanh(1.0), rel=1e-15)
    sat = CorrelationParams(raw=np.array([-50.0]))
    assert copula_density(sat, np.array([0.0, 0.0])) == 0.0
    assert copula_density(sat, np.array([0.25, 0.75])) >= 0.0


def test_zero_correlation_factorizes():
    rng = np.random.default_rng(0)
    model, _ = random_model(rng, dim=3)
    model.correlations.raw[:] = 0.0
    for y in interior_points(rng, model, 50):
        u = marginal_cdf_values(model, y)
        assert joint_cdf(model, y) == pytest.approx(np.prod(u), rel=1e-12, abs=1e-15)
        assert copula_density(model.correlations, u) == pytest.approx(1.0, abs=1e-15)


def test_copula_density_at_origin_matches_hand_value():
    # D = 2, u = (0, 0): density is 1 + C * (1-0)(1-0) = 1 + C
    for c in (-0.9, -0.3, 0.0, 0.4, 0.8):
        params = CorrelationParams(raw=np.array([np.arctanh(c)]))
        got = copula_density(params, np.array([0.0, 0.0]))
        assert got == pytest.approx(1.0 + c, rel=1e-12)


def test_linear_marginal_pdf_hand_value():
    # uniform margins on [0,1]^2 with C = 0.5 at y = (0, 0):
    # pdf = (1 + 0.5 * 1 * 1) * 1 * 1 = 1.5
    model = linear_model(corr=0.5)
    assert joint_pdf(model, np.array([0.0, 0.0])) == pytest.approx(1.5, rel=1e-9)
    assert joint_pdf(model, np.array([0.5, 0.5])) == pytest.approx(1.0, rel=1e-9)
    assert joint_pdf(model, np.array([1.0, 1.0])) == pytest.approx(1.5, rel=1e-9)
    assert joint_pdf(model, np.array([0.0, 1.0])) == pytest.approx(0.5, rel=1e-9)


def test_copula_density_bounds():
    rng = np.random.default_rng(1)
    for dim in (2, 3, 5):
        corr = CorrelationParams(raw=rng.normal(0, 2, size=n_pairs(dim)))
        u = rng.uniform(size=(100_000, dim))
        dens = copula_density(corr, u)
        assert np.all(dens >= 0.0)
        assert np.all(dens <= 2.0)


def test_copula_density_is_mixed_partial_of_copula_cdf():
    # 2^D central stencil applied directly to the combiner in u-space
    rng = np.random.default_rng(2)
    h = 1e-4
    for dim in (2, 3):
        corr = CorrelationParams(raw=rng.normal(0, 1, size=n_pairs(dim)))
        for _ in range(20):
            u = rng.uniform(0.2, 0.8, size=dim)
            acc = 0.0
            for signs in itertools.product((1.0, -1.0), repeat=dim):
                acc += np.prod(signs) * copula_cdf(corr, u + h * np.asarray(signs))
            fd = acc / (2.0 * h) ** dim
            assert copula_density(corr, u) == pytest.approx(fd, abs=1e-5)


def test_mixed_partial_fd_on_uniform_model():
    model = linear_model(dim=2, corr=0.0)
    got = mixed_partial_fd(model, np.array([0.4, 0.6]), h=1e-4)
    assert got == pytest.approx(1.0, abs=1e-4)
    model4 = linear_model(dim=4, corr=0.0)
    got4 = mixed_partial_fd(model4, np.full(4, 0.5), h=1e-3)
    assert got4 == pytest.approx(1.0, abs=1e-3)


def test_joint_pdf_matches_mixed_partial_fd_random_models():
    rng = np.random.default_rng(3)
    for dim in (2, 3):
        for _ in range(10):
            model, _ = random_model(rng, dim=dim)
            width = min(b.width for b in model.bounds)
            for y in interior_points(rng, model, 5, margin=0.15):
                fd = mixed_partial_fd(model, y, h=1e-3 * width)
                an = joint_pdf(model, y)
                assert abs(an - fd) <= 1e-3 * max(abs(an), 1e-3)


def test_three_dim_pair_average_identity():
    # P * joint combiner == sum over pairs of (2-dim combiner on that pair) *
    # (product of remaining coordinates); exercises the average-of-pairs form
    rng = np.random.default_rng(4)
    raw = rng.normal(0, 1, size=3)
    corr = CorrelationParams(raw=raw)
    pairs = pair_indices(3)
    for _ in range(50):
        u = rng.uniform(size=3)
        lhs = 3.0 * copula_cdf(corr, u)
        rhs = 0.0
        for k, (d, i) in enumerate(pairs):
            rest = [j for j in range(3) if j != d and j != i]
            rhs += copula_cdf(CorrelationParams(raw=raw[[k]]), u[[d, i]]) * np.prod(u[rest])
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_joint_cdf_corner_and_face_exactness():
    rng = np.random.default_rng(5)
    for dim in (2, 4):
        model, _ = random_model(rng, dim=dim)
        lower = model.box_lower()
        upper = model.box_upper()
        assert joint_cdf(model, lower) == 0.0
        assert joint_cdf(model, upper) == pytest.approx(1.0, abs=1e-12)
        # any coordinate at its lower bound kills the CDF
        for d in range(dim):
            y = interior_points(rng, model, 1)[0]
            y[d] = lower[d]
            assert joint_cdf(model, y) == 0.0


def test_joint_cdf_margin_consistency():
    # pushing every other coordinate to its upper bound recovers the marginal
    rng = np.random.default_rng(6)
    model, _ = random_model(rng, dim=3)
    upper = model.box_upper()
    for d in range(3):
        for t in np.linspace(0.1, 0.9, 5):
            y = upper.copy()
            y[d] = model.bounds[d].lower + t * model.bounds[d].width
            want = normalized_cdf(model.marginals[d], y[d], model.bounds[d])
            assert joint_cdf(model, y) == pytest.approx(want, abs=1e-12)


def test_joint_cdf_monotone_pairs():
    rng = np.random.default_rng(7)
    model, _ = random_model(rng, dim=3)
    lo = model.box_lower()
    hi = model.box_upper()
    a = rng.uniform(lo, hi, size=(2000, 3))
    b = a + rng.uniform(0, 1, size=a.shape) * (hi - a)
    diffs = joint_cdf(model, b) - joint_cdf(model, a)
    assert np.min(diffs) >= -1e-12


def test_joint_pdf_nonnegative_everywhere():
    rng = np.random.default_rng(8)
    for dim in (2, 3, 5):
        model, _ = random_model(rng, dim=dim, scale=1.5)
        pts = interior_points(rng, model, 200, margin=0.001)
        assert np.all(joint_pdf(model, pts) >= 0.0)


def test_mixed_partial_fd_rejects_stencil_outside_box():
    model = linear_model(dim=2)
    with pytest.raises(BracketError):
        mixed_partial_fd(model, np.array([0.5, 1.0 - 1e-9]), h=1e-4)


@pytest.mark.parametrize("h", [0.0, -1e-3, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
def test_mixed_partial_fd_rejects_steps_not_finite_and_positive(h):
    # 0 gave NaN, and -1e-3 passed the box check near a face to give a wrong estimate
    model = linear_model(dim=2)
    with pytest.raises(ContractError, match="finite and positive"):
        mixed_partial_fd(model, np.array([0.0005, 0.5]), h=h)


def test_sample_shape_seed_determinism():
    rng = np.random.default_rng(9)
    model, _ = random_model(rng, dim=3)
    a = sample(model, 257, seed=123)
    b = sample(model, 257, seed=123)
    c = sample(model, 257, seed=124)
    assert a.shape == (257, 3)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    lo, hi = model.box_lower(), model.box_upper()
    assert np.all(a >= lo) and np.all(a <= hi)


def test_sample_holds_little_beside_its_output():
    # the output, one column and one block of draws; a sampler that stacked its
    # uniforms, its unit-cube points and its quantiles peaked at 4.6 outputs
    model, _ = random_model(np.random.default_rng(12), dim=2)
    sample(model, 100, seed=0)  # numpy.random's first-call set-up is not the sampler's
    tracemalloc.start()
    try:
        out = sample(model, 200_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * out.nbytes, peak / out.nbytes


def test_sampler_stops_on_nan_correlation():
    # a NaN correlation makes the copula density NaN; the sampler must raise, not return NaN
    model = linear_model(dim=2)
    model.correlations = CorrelationParams(raw=[np.nan])
    start = time.perf_counter()
    with pytest.raises(JdanError):
        sample(model, 50, seed=0)
    with pytest.raises(JdanError):
        sample(model, 50, seed=[0, 1, 2])
    block = materialize(np.zeros((3, 2 * 4 + 1)), unit_arch(2, hidden=(1,)))
    block.correlations = CorrelationParams(raw=[[0.2], [np.nan], [-0.3]])
    with pytest.raises(JdanError):
        sample(block, 50, seed=[0, 1, 2])
    assert time.perf_counter() - start < 10.0


def test_per_row_sample_rows_follow_their_own_streams(monkeypatch):
    rng = np.random.default_rng(4)
    arch = unit_arch(3, hidden=(4,))
    raws = rng.normal(size=(3, arch.param_count()))
    alone = [sample(materialize(raws[k], arch), 40, seed=10 + k) for k in range(3)]  # one block
    # one block, blocks of 10 rows of 3 dimensions, and one row per block
    for block_points in (4096, 30, 1):
        monkeypatch.setattr(numerics, "BLOCK_POINTS", block_points)
        block = sample(materialize(raws, arch), 40, seed=[10, 11, 12])
        assert block.shape == (3, 40, 3)
        for k in range(3):
            np.testing.assert_array_equal(block[k], alone[k], err_msg=str(block_points))
    monkeypatch.undo()
    shared = random_model(rng, dim=2)[0]
    many = sample(shared, 30, seed=[5, 6])
    np.testing.assert_array_equal(many[1], sample(shared, 30, seed=6))
    with pytest.raises(ContractError):
        sample(materialize(raws, arch), 40, seed=0)  # one seed per row


def test_sample_uniform_mean():
    model = linear_model(dim=2, corr=0.0)
    draws = sample(model, 20_000, seed=0)
    # mean of U(0,1) estimate: sd = 1/sqrt(12 n)
    tol = 3.0 / np.sqrt(12 * 20_000)
    assert np.max(np.abs(draws.mean(axis=0) - 0.5)) <= tol


def test_sample_empirical_cdf_matches_model():
    rng = np.random.default_rng(10)
    model, _ = random_model(rng, dim=2)
    n = 10_000
    draws = sample(model, n, seed=42)
    lo, hi = model.box_lower(), model.box_upper()
    worst = 0.0
    for gx in np.linspace(lo[0], hi[0], 20):
        for gy in np.linspace(lo[1], hi[1], 20):
            emp = np.mean((draws[:, 0] <= gx) & (draws[:, 1] <= gy))
            worst = max(worst, abs(emp - joint_cdf(model, np.array([gx, gy]))))
    assert worst <= 1.6 / np.sqrt(n)


def test_sample_correlation_sign():
    dp = sample(linear_model(dim=2, corr=0.9), 5000, seed=1)
    dn = sample(linear_model(dim=2, corr=-0.9), 5000, seed=1)
    assert np.corrcoef(dp.T)[0, 1] > 0.05
    assert np.corrcoef(dn.T)[0, 1] < -0.05


def test_dimension_validation():
    model = linear_model(dim=2)
    with pytest.raises(ContractError):
        joint_cdf(model, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ContractError):
        joint_pdf(model, np.array([0.5]))
    with pytest.raises(ContractError):
        copula_density(CorrelationParams(raw=np.zeros(1)), np.array([[0.2, 0.3, 0.4]]))


def test_model_rejects_mismatched_parts():
    nets = linear_model(dim=3).marginals
    with pytest.raises(ContractError):
        JdanModel(
            dim=3,
            marginals=nets,
            correlations=CorrelationParams(raw=np.zeros(1)),
            bounds=[Bounds(0.0, 1.0)] * 3,
        )
    with pytest.raises(ContractError):
        JdanModel(
            dim=3,
            marginals=nets,
            correlations=CorrelationParams(raw=np.zeros(3)),
            bounds=[Bounds(0.0, 1.0)] * 2,
        )
    with pytest.raises(ContractError):
        JdanModel(
            dim=1,
            marginals=nets[:1],
            correlations=CorrelationParams(raw=np.zeros(0)),
            bounds=[Bounds(0.0, 1.0)],
        )


def test_grid_pdf_gives_joint_pdf_bits_at_every_point():
    model, _ = random_model(np.random.default_rng(12), 3)
    axes = [np.linspace(-0.1, 1.1, 7), np.array([0.4]), np.linspace(0.0, 1.0, 5)]
    points = np.array(list(itertools.product(*axes)))  # last axis varying fastest
    np.testing.assert_array_equal(grid_pdf(model, axes), joint_pdf(model, points))


def test_grid_pdf_refuses_a_per_row_model():
    arch = unit_arch(2, hidden=(3,))
    model = materialize(np.random.default_rng(0).normal(size=(4, arch.param_count())), arch)
    with pytest.raises(ContractError, match="one shared parameter set"):
        grid_pdf(model, [np.linspace(0.0, 1.0, 4)] * 2)
