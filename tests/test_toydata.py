"""Dataset generation, batching, and sigma_d estimation."""

import numpy as np
import pytest

import tfdl
from tfdl.errors import ConfigurationError, StateError
from tfdl.runio import write_samples_csv


def test_single_gaussian_sigma_d_converges():
    # law of large numbers: component std 0.5 pools to sigma_d near 0.5
    ds = tfdl.generate("gauss-mix", 10 ** 5, seed=7, components=1,
                       comp_std=0.5, radius=0.0)
    assert 0.49 <= ds.sigma_d <= 0.51
    # and matches the definition (pooled std of all coordinates) exactly
    assert abs(ds.sigma_d - float(np.std(ds.points))) <= 1e-12


def test_too_few_points_rejected():
    with pytest.raises(ValueError):
        tfdl.generate("gauss-mix", 1, seed=0)


def test_unknown_name_rejected():
    with pytest.raises(ConfigurationError):
        tfdl.generate("spiral", 100, seed=0)


def test_generation_deterministic():
    a = tfdl.generate("two-moons", 1000, seed=3)
    b = tfdl.generate("two-moons", 1000, seed=3)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.sigma_d == b.sigma_d


@pytest.mark.parametrize("name,k", [("gauss-mix", 3), ("two-moons", 2), ("checkerboard", 2)])
def test_labels_in_range(name, k):
    ds = tfdl.generate(name, 5000, seed=1)
    assert ds.n_classes == k
    assert ds.labels.min() >= 0 and ds.labels.max() < k


def test_minibatch_members_and_determinism(gauss_ds):
    x0, y = tfdl.minibatch_arrays(gauss_ds, 4, np.random.default_rng(5))
    assert x0.shape == (4, 2) and y.shape == (4,)
    for point, label in zip(x0, y):
        # every sample exists in the dataset, with its own label
        match = (gauss_ds.points == point).all(axis=1)
        assert match.any() and label in gauss_ds.labels[match]
    a = tfdl.minibatch_arrays(gauss_ds, 8, np.random.default_rng(11))
    b = tfdl.minibatch_arrays(gauss_ds, 8, np.random.default_rng(11))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_minibatch_class_frequencies():
    ds = tfdl.generate("gauss-mix", 60000, seed=2, components=3)
    _, y = tfdl.minibatch_arrays(ds, 10 ** 5, np.random.default_rng(0))
    freqs = np.bincount(y, minlength=3) / len(y)
    assert np.all(freqs >= 0.32) and np.all(freqs <= 0.35)


def test_minibatch_validations(gauss_ds):
    with pytest.raises(ValueError):
        tfdl.minibatch_arrays(gauss_ds, 0, np.random.default_rng(0))
    empty = tfdl.Dataset("gauss-mix", np.empty((0, 2)), np.empty(0, dtype=int), 1.0, 1)
    with pytest.raises(StateError):
        tfdl.minibatch_arrays(empty, 1, np.random.default_rng(0))


def test_csv_dump_roundtrips(tmp_path, gauss_ds):
    path = tmp_path / "pts.csv"
    write_samples_csv(path, gauss_ds.points, gauss_ds.labels)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x,y,label"
    assert len(rows) == len(gauss_ds) + 1
    first = rows[1].split(",")
    assert float(first[0]) == gauss_ds.points[0, 0]
    assert int(first[2]) == gauss_ds.labels[0]
