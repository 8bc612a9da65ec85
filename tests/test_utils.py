"""Unit tests for repro.utils."""

import numpy as np
import pytest

from repro.utils.rng import derive_seed, make_rng, spawn_rngs
from repro.utils.timing import Timer, measure
from repro.utils.validation import (
    check_in,
    check_nonnegative_int,
    check_positive_int,
    check_probability,
)


class TestRng:
    def test_make_rng_from_int_is_deterministic(self):
        assert make_rng(5).integers(0, 100) == make_rng(5).integers(0, 100)

    def test_make_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_make_rng_none(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_spawn_rngs_count_and_independence(self):
        streams = spawn_rngs(1, 3)
        assert len(streams) == 3
        draws = {s.integers(0, 10**9) for s in streams}
        assert len(draws) == 3  # overwhelmingly likely distinct

    def test_spawn_rngs_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)

    def test_derive_seed_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)

    def test_derive_seed_none_passthrough(self):
        assert derive_seed(None, 1) is None


class TestValidation:
    def test_check_positive_int_accepts(self):
        assert check_positive_int(3, "x") == 3

    def test_check_positive_int_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "x")

    def test_check_positive_int_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(1.0, "x")

    def test_check_positive_int_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_check_nonnegative_int_accepts_zero(self):
        assert check_nonnegative_int(0, "x") == 0

    def test_check_nonnegative_int_rejects_negative(self):
        with pytest.raises(ValueError):
            check_nonnegative_int(-1, "x")

    def test_check_probability_bounds(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValueError):
            check_probability(1.5, "p")
        with pytest.raises(TypeError):
            check_probability("a", "p")

    def test_check_in(self):
        assert check_in("a", ("a", "b"), "x") == "a"
        with pytest.raises(ValueError):
            check_in("c", ("a", "b"), "x")


class TestTimer:
    def test_measure_accumulates(self):
        timer = Timer()
        with timer.recording():
            with measure("phase"):
                pass
            with measure("phase"):
                pass
        assert timer.counts["phase"] == 2
        assert timer.totals["phase"] >= 0.0

    def test_mean_of_unknown_is_zero(self):
        assert Timer().mean("nope") == 0.0

    def test_add_direct(self):
        timer = Timer()
        timer.add("x", 1.5)
        timer.add("x", 0.5)
        assert timer.mean("x") == 1.0

    def test_report_contains_names(self):
        timer = Timer()
        timer.add("alpha", 1.0)
        assert "alpha" in timer.report()
