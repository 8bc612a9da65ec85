"""Tests for the Time-Constrained Flow Scheduling model and reductions."""

import pytest

from repro.core.flow import Flow
from repro.core.instance import Instance
from repro.core.switch import Switch
from repro.mrt.time_constrained import (
    TimeConstrainedInstance,
    from_deadlines,
    from_response_bound,
)


@pytest.fixture
def inst():
    return Instance.create(
        Switch.create(2),
        [Flow(0, 0, 1, 0), Flow(1, 1, 1, 2)],
    )


class TestConstruction:
    def test_valid(self, inst):
        tci = TimeConstrainedInstance(inst, ((0, 1), (2, 4)))
        assert tci.all_rounds == (0, 1, 2, 4)

    def test_wrong_count_rejected(self, inst):
        with pytest.raises(ValueError, match="one active set"):
            TimeConstrainedInstance(inst, ((0,),))

    def test_empty_set_rejected(self, inst):
        with pytest.raises(ValueError, match="empty"):
            TimeConstrainedInstance(inst, ((0,), ()))

    def test_unsorted_rejected(self, inst):
        with pytest.raises(ValueError, match="sorted"):
            TimeConstrainedInstance(inst, ((1, 0), (2,)))

    def test_duplicates_rejected(self, inst):
        with pytest.raises(ValueError, match="sorted"):
            TimeConstrainedInstance(inst, ((0, 0), (2,)))

    def test_negative_round_rejected(self, inst):
        with pytest.raises(ValueError, match="negative"):
            TimeConstrainedInstance(inst, ((-1, 0), (2,)))


class TestReductions:
    def test_from_response_bound_windows(self, inst):
        tci = from_response_bound(inst, 3)
        assert tci.active_rounds[0] == (0, 1, 2)
        assert tci.active_rounds[1] == (2, 3, 4)
        assert tci.respects_releases()

    def test_from_response_bound_rho_one(self, inst):
        tci = from_response_bound(inst, 1)
        assert tci.active_rounds == ((0,), (2,))

    def test_from_response_bound_rejects_zero(self, inst):
        with pytest.raises(ValueError):
            from_response_bound(inst, 0)

    def test_from_deadlines_inclusive(self, inst):
        tci = from_deadlines(inst, [2, 2])
        assert tci.active_rounds[0] == (0, 1, 2)
        assert tci.active_rounds[1] == (2,)

    def test_from_deadlines_before_release_rejected(self, inst):
        with pytest.raises(ValueError, match="precedes release"):
            from_deadlines(inst, [2, 1])

    @pytest.mark.parametrize("deadline", [2.5, True])
    def test_from_deadlines_rejects_non_integers(self, inst, deadline):
        with pytest.raises(TypeError, match="flow 1: deadline must be an int"):
            from_deadlines(inst, [2, deadline])

    def test_from_deadlines_wrong_length(self, inst):
        with pytest.raises(ValueError, match="one deadline"):
            from_deadlines(inst, [2])
