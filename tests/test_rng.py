"""Keyed random streams: the key alone fixes the draws."""

import zlib

import numpy as np
import pytest

from supmimo.rng import substream

KEY = (7, "sinr_vs_m", 2, 13, "channels")


def draws(*key):
    return substream(*key).standard_normal(8)


def test_the_same_key_gives_the_same_draws():
    first = draws(*KEY)
    substream(7, "something else").standard_normal(100)  # other streams in between
    assert np.array_equal(draws(*KEY), first)
    # numpy integers are the ints they hold
    assert np.array_equal(draws(np.int64(7), "sinr_vs_m", np.uint8(2), 13, "channels"), first)


@pytest.mark.parametrize("position", range(len(KEY)))
def test_changing_any_component_changes_the_draws(position):
    key = list(KEY)
    key[position] = key[position] + 1 if isinstance(key[position], int) else key[position] + "x"
    assert not np.array_equal(draws(*key), draws(*KEY))


def test_a_longer_or_reordered_path_changes_the_draws():
    assert not np.array_equal(draws(*KEY, 0), draws(*KEY))
    assert not np.array_equal(draws(7, 13, 2), draws(7, 2, 13))


def test_a_string_tag_folds_to_its_crc32():
    tag = "sinr_vs_m"
    crc = zlib.crc32(tag.encode("utf-8"))
    assert np.array_equal(draws(5, tag), draws(5, crc))
    expected = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(crc,)))
    assert np.array_equal(draws(5, tag), expected.standard_normal(8))


@pytest.mark.parametrize("part, error", [
    (True, TypeError),
    (False, TypeError),
    (-1, ValueError),
    (np.int64(-3), ValueError),
    (1.0, TypeError),
    (0.5, TypeError),
    (None, TypeError),
])
def test_bool_negative_and_float_components_raise(part, error):
    with pytest.raises(error):
        substream(0, "tag", part)
