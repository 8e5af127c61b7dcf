import numpy as np
import pytest

from breakline.rng import RngSpec, standard_normal


def test_same_seed_same_stream():
    a = RngSpec(42).stream(3).random(10)
    b = RngSpec(42).stream(3).random(10)
    assert np.array_equal(a, b)


def test_replicate_streams_are_independent_of_order():
    spec = RngSpec(7)
    direct = spec.stream(5).random(4)
    spec.stream(0).random(100)  # consuming another stream changes nothing
    again = spec.stream(5).random(4)
    assert np.array_equal(direct, again)


def test_distinct_replicates_differ():
    spec = RngSpec(7)
    assert not np.array_equal(spec.stream(0).random(8), spec.stream(1).random(8))


def test_seed_validation():
    with pytest.raises(ValueError):
        RngSpec(-1)
    with pytest.raises(ValueError):
        RngSpec(2**64)


def test_standard_normal_moments():
    z = standard_normal(RngSpec(1).stream(0), 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_standard_normal_deterministic():
    a = standard_normal(RngSpec(9).stream(2), 16)
    b = standard_normal(RngSpec(9).stream(2), 16)
    assert np.array_equal(a, b)
