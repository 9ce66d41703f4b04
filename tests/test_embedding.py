import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_conditional_affinities, reference_pca_fit, reference_tsne
from vibediag.config import config_from_dict
from vibediag.embedding import (
    EXAGGERATION_ITERS,
    MOMENTUM_SWITCH_ITER,
    PcaModel,
    TsneConfig,
    _conditional_affinities,
    components_for_target,
    pca_fit,
    pca_reduce,
    subsample_indices,
    tsne,
)


def test_rank_one_data_concentrates_variance():
    rng = np.random.default_rng(0)
    t = rng.normal(size=200)
    direction = np.array([1.0, -2.0, 0.5])
    data = t[:, None] * direction
    model = pca_fit(data)
    assert abs(model.explained_variance_ratio[0] - 1.0) < 1e-9
    assert model.cumulative_ratio[-1] <= 1.0 + 1e-9


def test_isotropic_gaussian_splits_variance_evenly():
    rng = np.random.default_rng(1)
    model = pca_fit(rng.normal(size=(10_000, 2)))
    np.testing.assert_allclose(model.explained_variance_ratio, [0.5, 0.5], atol=0.02)


def test_components_orthonormal_and_curve_monotone():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(50, 200)) @ rng.normal(size=(200, 200))
    model = pca_fit(data)
    gram = model.components @ model.components.T
    np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-8)
    assert np.all(np.diff(model.cumulative_ratio) >= -1e-12)
    assert model.cumulative_ratio[-1] <= 1.0 + 1e-9


def test_gram_route_matches_covariance_route():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(40, 10))
    wide = np.hstack([base, np.zeros((40, 50))])  # d > n, rank 10
    tall = pca_fit(base)
    dual = pca_fit(wide)
    np.testing.assert_allclose(
        dual.explained_variance_ratio[:10], tall.explained_variance_ratio[:10], atol=1e-10
    )


def test_full_rank_projection_reconstructs_input():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(100, 6))
    model = pca_fit(data)
    reduced = pca_reduce(model, data, 1.0)
    assert reduced.shape[1] == 6
    np.testing.assert_allclose(reduced @ model.components[:6] + model.mean, data, atol=1e-8)


def test_variance_target_selects_rank():
    rng = np.random.default_rng(5)
    t = rng.normal(size=(80, 3))
    mix = rng.normal(size=(3, 12))
    data = t @ mix  # rank 3 in 12-D
    model = pca_fit(data)
    assert components_for_target(model, 1.0) == 3
    assert pca_reduce(model, data, 0.9).shape[1] <= 3


def test_a_fraction_at_or_above_the_total_keeps_every_component():
    model = PcaModel(
        components=np.eye(2),
        explained_variance_ratio=np.array([0.6, 0.2]),
        cumulative_ratio=np.array([0.6, 0.8]),
        mean=np.zeros(2),
    )
    assert components_for_target(model, 0.6) == 1
    assert components_for_target(model, 0.7) == 2
    for fraction in (0.8, 0.99, 1.0):
        assert components_for_target(model, fraction) == 2


def test_zero_variance_data():
    model = pca_fit(np.ones((10, 4)))
    assert model.explained_variance_ratio.shape == (1,)
    assert model.explained_variance_ratio[0] == 0.0


@pytest.mark.parametrize("case", ["wide", "wide repeated rows", "tall"])
def test_pca_fit_gives_the_bits_of_the_out_of_place_reference(case):
    # Repeated rows leave a rank-deficient Gram matrix, whose eigenvalues at
    # rounding level include negatives: their scale is 0 and their rows zeroed.
    rng = np.random.default_rng(11)
    data = {"wide": lambda: rng.uniform(size=(40, 300)),
            "wide repeated rows": lambda: np.repeat(rng.uniform(size=(6, 300)), 5, axis=0),
            "tall": lambda: rng.normal(size=(300, 40))}[case]()
    got, want = pca_fit(data), reference_pca_fit(data)
    for name in ("components", "explained_variance_ratio", "cumulative_ratio", "mean"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_pca_fit_holds_at_most_two_and_a_half_image_matrices():
    # The dual branch's centred copy and its projection are the only
    # image-sized arrays alive at once; the keep-copy comes after the first goes.
    data = np.random.default_rng(12).uniform(size=(190, 3072))
    tracemalloc.start()
    try:
        pca_fit(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * data.nbytes, peak / data.nbytes


def two_clusters(n=200, dim=10, separation=10.0, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal(size=(half, dim))
    b = rng.normal(size=(n - half, dim))
    b[:, 0] += separation
    labels = np.array([0] * half + [1] * (n - half))
    return np.vstack([a, b]), labels


def nn_purity(embedding, labels):
    d = np.sum((embedding[:, None, :] - embedding[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d, np.inf)
    return float(np.mean(labels[d.argmin(axis=1)] == labels))


def test_tsne_separates_two_clusters():
    data, labels = two_clusters()
    embedding, kl = tsne(data, TsneConfig(iterations=500), seed=0)
    assert embedding.shape == (200, 2)
    assert np.isfinite(embedding).all()
    assert nn_purity(embedding, labels) >= 0.90
    assert kl[-1] < kl[0]


def test_tsne_handles_duplicated_points():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(20, 4))
    data = np.vstack([base] * 4)  # every point appears four times
    embedding, kl = tsne(data, TsneConfig(perplexity=10.0, iterations=120), seed=2)
    assert np.isfinite(embedding).all()
    assert np.isfinite(kl).all()


def test_tsne_is_deterministic():
    data, _ = two_clusters(n=120)
    cfg = TsneConfig(perplexity=15.0, iterations=60)
    e1, k1 = tsne(data, cfg, seed=7)
    e2, k2 = tsne(data, cfg, seed=7)
    np.testing.assert_array_equal(e1, e2)
    np.testing.assert_array_equal(k1, k2)


def test_tsne_infeasible_perplexity():
    with pytest.raises(ValueError, match="infeasible"):
        tsne(np.random.default_rng(0).normal(size=(20, 3)), TsneConfig(perplexity=30.0))


@st.composite
def tsne_cases(draw):
    """Inputs of 31 to 80 points, some with every point repeated, runs that
    end well before or on either side of the iteration where exaggeration
    ends and momentum switches, and a seed."""
    copies = draw(st.sampled_from([1, 2, 4]))
    base = draw(st.integers(-(-31 // copies), 80 // copies))
    n = base * copies
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = np.tile(rng.normal(size=(base, draw(st.integers(1, 6)))), (copies, 1))
    near = (st.integers(it - 3, it + 5) for it in {EXAGGERATION_ITERS, MOMENTUM_SWITCH_ITER})
    config = TsneConfig(
        perplexity=draw(st.floats(2.0, (n - 1) / 3)),
        iterations=draw(st.one_of(st.integers(1, 40), *near)),
    )
    return data, config, draw(st.integers(0, 1000))


@settings(max_examples=40, deadline=None)
@given(tsne_cases())
def test_tsne_bitwise_equal_to_per_iteration_reference(case):
    data, config, seed = case
    sq = np.sum(data * data, axis=1)
    sq_dists = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (data @ data.T), 0.0)
    affinities = _conditional_affinities(sq_dists, config.perplexity)
    assert affinities.tobytes() == reference_conditional_affinities(sq_dists, config.perplexity).tobytes()

    embedding, kl = tsne(data, config, seed)
    ref_embedding, ref_history = reference_tsne(data, config, seed)
    assert embedding.tobytes() == ref_embedding.tobytes()
    read_at = [min(EXAGGERATION_ITERS, config.iterations - 1), config.iterations - 1]
    assert kl.shape == (2,)
    assert kl.tobytes() == ref_history[read_at].tobytes()


@pytest.mark.parametrize("field, value", [
    ("perplexity", 0.0),
    ("perplexity", -3.0),
    ("iterations", 0),
    ("iterations", -5),
])
def test_tsne_config_rejects_each_bad_field_in_one_line(field, value):
    with pytest.raises(ValueError, match=f"^config field tsne\\.{field} must [^\n]*, got {re.escape(repr(value))}$"):
        config_from_dict({"tsne": {field: value}})


def test_subsample_indices():
    np.testing.assert_array_equal(subsample_indices(5, 10, 0), np.arange(5))
    picked = subsample_indices(1000, 50, seed=3)
    assert picked.size == 50
    assert np.all(np.diff(picked) > 0)
    np.testing.assert_array_equal(picked, subsample_indices(1000, 50, seed=3))
