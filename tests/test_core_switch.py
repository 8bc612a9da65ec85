"""Unit tests for repro.core.switch."""

import numpy as np
import pytest

from repro.core.switch import Switch


class TestSwitchCreate:
    def test_square_default(self):
        sw = Switch.create(5)
        assert sw.num_inputs == 5
        assert sw.num_outputs == 5
        assert sw.is_square
        assert sw.is_unit_capacity

    def test_rectangular(self):
        sw = Switch.create(3, 7)
        assert (sw.num_inputs, sw.num_outputs) == (3, 7)
        assert not sw.is_square

    def test_scalar_capacity_broadcast(self):
        sw = Switch.create(4, 4, 3)
        assert (sw.input_capacities == 3).all()
        assert (sw.output_capacities == 3).all()
        assert not sw.is_unit_capacity

    def test_per_port_capacities(self):
        sw = Switch.create(2, 3, [1, 2], [3, 1, 2])
        assert sw.input_capacity(1) == 2
        assert sw.output_capacity(0) == 3

    def test_output_caps_default_to_input_spec(self):
        sw = Switch.create(3, 3, 5)
        assert sw.output_capacity(2) == 5

    def test_zero_ports_rejected(self):
        with pytest.raises(ValueError):
            Switch.create(0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Switch.create(2, 2, 0)

    def test_wrong_length_capacity_vector_rejected(self):
        with pytest.raises(ValueError):
            Switch.create(3, 3, [1, 2])

    @pytest.mark.parametrize(
        "caps, error",
        [
            ([1.5, 1], TypeError),  # was truncated to [1, 1]
            ([True, 1], TypeError),  # was read as [1, 1]
            ([10**30, 1], ValueError),  # was NumPy's OverflowError
            ([2**63, 1], ValueError),
            ([0, 1], ValueError),
        ],
    )
    def test_malformed_capacity_entries_rejected(self, caps, error):
        with pytest.raises(error, match="input_capacities"):
            Switch.create(2, 2, caps)
        with pytest.raises(error, match="output_capacities"):
            Switch.create(2, 2, 1, caps)

    def test_scalar_capacity_beyond_int64_rejected(self):
        with pytest.raises(ValueError, match="int64"):
            Switch.create(2, 2, 2**63)

    def test_numpy_capacity_entries_accepted(self):
        sw = Switch.create(2, 2, np.array([1, 3], dtype=np.int32))
        assert sw.input_capacities.dtype == np.int64
        assert sw.input_capacities.tolist() == [1, 3]
        sw = Switch.create(2, 2, [np.int64(2), 2**63 - 1])
        assert sw.input_capacities.tolist() == [2, 2**63 - 1]

    def test_capacity_arrays_read_only(self):
        sw = Switch.create(2)
        with pytest.raises(ValueError):
            sw.input_capacities[0] = 5


class TestSwitchDerived:
    def test_kappa_is_min_of_endpoint_caps(self):
        sw = Switch.create(2, 2, [1, 4], [3, 2])
        assert sw.kappa(0, 0) == 1
        assert sw.kappa(1, 0) == 3
        assert sw.kappa(1, 1) == 2

    def test_augmented_factor(self):
        sw = Switch.create(2, 2, 2).augmented(factor=1.5)
        assert sw.input_capacity(0) == 3

    def test_augmented_additive(self):
        sw = Switch.create(2, 2, 1).augmented(additive=3)
        assert sw.output_capacity(1) == 4

    def test_augmented_rejects_shrink(self):
        with pytest.raises(ValueError):
            Switch.create(2).augmented(factor=0.5)

    def test_augmented_rejects_negative_additive(self):
        with pytest.raises(ValueError):
            Switch.create(2).augmented(additive=-1)

    def test_ports_iteration(self):
        sw = Switch.create(2, 3)
        ports = list(sw.ports())
        assert ports.count(("in", 0)) == 1
        assert len(ports) == 5
        assert ("out", 2) in ports


class TestSwitchEquality:
    def test_equal_switches_compare_and_hash_equal(self):
        a, b = Switch.create(2), Switch.create(2)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert Switch.create(2, 3, [1, 2], 2) == Switch.create(2, 3, [1, 2], 2)

    def test_different_capacities_differ(self):
        assert Switch.create(2) != Switch.create(2, 2, 2)
        assert Switch.create(2, 2, [1, 2]) != Switch.create(2, 2, [2, 1])
        assert Switch.create(2, 2, 1, [1, 2]) != Switch.create(2, 2, 1, 1)
        assert Switch.create(2, 3) != Switch.create(3, 2)
        assert Switch.create(2) != "Switch(2x2)"
