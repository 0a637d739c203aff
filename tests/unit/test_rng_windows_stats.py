"""Unit tests for repro.utils.rng and the shrinking edge-window references."""

import numpy as np
from tests.reference import centered_windows, shrink_to_bounds

from repro.utils.rng import resolve_rng, spawn_rng


class TestResolveRng:
    def test_none_gives_generator(self):
        assert isinstance(resolve_rng(None), np.random.Generator)

    def test_int_is_deterministic(self):
        a = resolve_rng(42).integers(0, 1000, 10)
        b = resolve_rng(42).integers(0, 1000, 10)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert resolve_rng(rng) is rng

    def test_different_seeds_differ(self):
        a = resolve_rng(1).integers(0, 2**31, 20)
        b = resolve_rng(2).integers(0, 2**31, 20)
        assert not np.array_equal(a, b)


class TestSpawnRng:
    def test_spawn_count(self):
        children = spawn_rng(resolve_rng(0), 5)
        assert len(children) == 5

    def test_children_independent(self):
        children = spawn_rng(resolve_rng(0), 2)
        a = children[0].integers(0, 2**31, 20)
        b = children[1].integers(0, 2**31, 20)
        assert not np.array_equal(a, b)

    def test_spawn_deterministic_from_seed(self):
        a = spawn_rng(resolve_rng(7), 3)[2].integers(0, 2**31, 5)
        b = spawn_rng(resolve_rng(7), 3)[2].integers(0, 2**31, 5)
        np.testing.assert_array_equal(a, b)

    def test_zero_count(self):
        assert spawn_rng(resolve_rng(0), 0) == []


class TestShrinkToBounds:
    def test_full_window_fits(self):
        assert shrink_to_bounds(5, 3, 10) == (2, 8)

    def test_shrinks_near_left_edge(self):
        assert shrink_to_bounds(1, 3, 10) == (0, 2)

    def test_shrinks_near_right_edge(self):
        assert shrink_to_bounds(9, 3, 10) == (8, 10)

    def test_center_out_of_range(self):
        assert shrink_to_bounds(0, 3, 10) == (0, 0)
        assert shrink_to_bounds(10, 3, 10) == (0, 0)

    def test_tiny_series(self):
        assert shrink_to_bounds(1, 5, 2) == (0, 2)
        assert shrink_to_bounds(0, 5, 1) == (0, 0)

    def test_window_symmetric(self):
        for n in (5, 10, 37):
            for center in range(1, n):
                start, stop = shrink_to_bounds(center, 4, n)
                if stop > start:
                    assert center - start == stop - center


class TestCenteredWindows:
    def test_covers_all_interior_centers(self):
        windows = centered_windows(10, 3)
        centers = [c for c, _, _ in windows]
        assert centers == list(range(1, 10))

    def test_windows_have_min_size_two(self):
        for _, start, stop in centered_windows(50, 7):
            assert stop - start >= 2

    def test_empty_series(self):
        assert centered_windows(0, 3) == []
        assert centered_windows(1, 3) == []

