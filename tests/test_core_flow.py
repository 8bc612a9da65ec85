"""Unit tests for repro.core.flow."""

import numpy as np
import pytest

from repro.core.flow import Flow


class TestFlowConstruction:
    def test_basic_fields(self):
        f = Flow(1, 2, 3, 4)
        assert (f.src, f.dst, f.demand, f.release) == (1, 2, 3, 4)
        assert f.fid == -1

    def test_defaults_unit_demand_release_zero(self):
        f = Flow(0, 0)
        assert f.demand == 1
        assert f.release == 0
        assert f.is_unit

    def test_non_unit_demand_flag(self):
        assert not Flow(0, 0, demand=2).is_unit

    def test_negative_src_rejected(self):
        with pytest.raises(ValueError):
            Flow(-1, 0)

    def test_negative_dst_rejected(self):
        with pytest.raises(ValueError):
            Flow(0, -1)

    def test_zero_demand_rejected(self):
        with pytest.raises(ValueError):
            Flow(0, 0, demand=0)

    def test_negative_release_rejected(self):
        with pytest.raises(ValueError):
            Flow(0, 0, release=-1)

    def test_non_integer_demand_rejected(self):
        with pytest.raises(TypeError):
            Flow(0, 0, demand=1.5)

    def test_bool_demand_rejected(self):
        with pytest.raises(TypeError):
            Flow(0, 0, demand=True)


class TestFlowTransforms:
    def test_with_fid(self):
        f = Flow(0, 1).with_fid(7)
        assert f.fid == 7
        assert (f.src, f.dst) == (0, 1)

    def test_with_release(self):
        f = Flow(0, 1, 2, 3, fid=5).with_release(9)
        assert f.release == 9
        assert f.fid == 5
        assert f.demand == 2

    def test_frozen(self):
        f = Flow(0, 1)
        with pytest.raises(AttributeError):
            f.src = 3

    def test_equality_and_hash(self):
        assert Flow(0, 1, 1, 0, 2) == Flow(0, 1, 1, 0, 2)
        assert hash(Flow(0, 1)) == hash(Flow(0, 1))
        assert Flow(0, 1) != Flow(1, 0)

    def test_numpy_integers_stored_as_int(self):
        f = Flow(np.int64(1), np.int32(2), np.int64(3), np.uint8(4))
        assert (f.src, f.dst, f.demand, f.release) == (1, 2, 3, 4)
        assert all(
            type(v) is int for v in (f.src, f.dst, f.demand, f.release)
        )

    def test_ordering_defined(self):
        assert sorted([Flow(1, 0), Flow(0, 1)])[0].src == 0
