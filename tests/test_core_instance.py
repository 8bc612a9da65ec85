"""Unit tests for repro.core.instance."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.flow import Flow
from repro.core.instance import Instance
from repro.core.switch import Switch
from tests.conftest import capacitated_instances


def reference_from_dict(data: dict) -> Instance:
    """Parse a payload through one :class:`Flow` per flow."""
    sw = data["switch"]
    switch = Switch.create(
        sw["num_inputs"],
        sw["num_outputs"],
        sw["input_capacities"],
        sw["output_capacities"],
    )
    flows = [
        Flow(f["src"], f["dst"], f.get("demand", 1), f.get("release", 0))
        for f in data["flows"]
    ]
    return Instance.create(switch, flows)


def parsed(parse, data):
    """The digest and vectors of ``parse(data)``, or what it raised."""
    try:
        inst = parse(data)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)
    return inst.digest(), [v.tolist() for v in inst._vectors()]


FIELDS = ("src", "dst", "demand", "release")

#: Values that break a flow field: wrong type, below its minimum, beyond
#: int64, or (for ports and demands) past the switch.
BAD_VALUES = st.sampled_from(
    [-1, 0, 1.0, 1.5, True, None, "1", 2**63, 10**30, 99]
)


@st.composite
def payloads(draw):
    """A serialized instance, unchanged, with a default key dropped, or
    with one flow field replaced by a bad value."""
    data = draw(capacitated_instances()).to_dict()
    if data["flows"]:
        flow = draw(st.sampled_from(data["flows"]))
        action = draw(st.sampled_from(["keep", "drop", "break"]))
        if action == "drop":
            del flow[draw(st.sampled_from(["demand", "release"]))]
        elif action == "break":
            flow[draw(st.sampled_from(FIELDS))] = draw(BAD_VALUES)
    return data


class TestInstanceCreate:
    def test_fids_sequential(self, unit_switch_4):
        inst = Instance.create(unit_switch_4, [Flow(0, 1), Flow(2, 3)])
        assert [f.fid for f in inst.flows] == [0, 1]

    def test_src_out_of_range_rejected(self, unit_switch_4):
        with pytest.raises(ValueError, match="src port"):
            Instance.create(unit_switch_4, [Flow(4, 0)])

    def test_dst_out_of_range_rejected(self, unit_switch_4):
        with pytest.raises(ValueError, match="dst port"):
            Instance.create(unit_switch_4, [Flow(0, 4)])

    def test_demand_exceeding_kappa_rejected(self):
        sw = Switch.create(2, 2, [1, 3], [3, 3])
        with pytest.raises(ValueError, match="kappa"):
            Instance.create(sw, [Flow(0, 0, demand=2)])

    def test_empty_instance(self, unit_switch_4):
        inst = Instance.create(unit_switch_4, [])
        assert inst.num_flows == 0
        assert inst.max_demand == 0
        assert inst.max_release == 0


class TestInstanceViews:
    def test_vector_views(self, small_instance):
        assert small_instance.srcs().tolist() == [0, 1, 2, 0, 3, 2]
        assert small_instance.dsts().tolist() == [0, 0, 0, 1, 2, 3]
        assert small_instance.demands().tolist() == [1] * 6
        assert small_instance.releases().tolist() == [0, 0, 0, 1, 1, 2]

    def test_is_unit_demand(self, small_instance):
        assert small_instance.is_unit_demand

    def test_port_loads(self, small_instance):
        in_load, out_load = small_instance.port_loads()
        assert in_load.tolist() == [2, 1, 2, 1]
        assert out_load.tolist() == [3, 1, 1, 1]

    def test_flows_by_release(self, small_instance):
        groups = small_instance.flows_by_release()
        assert sorted(groups) == [0, 1, 2]
        assert len(groups[0]) == 3

    def test_horizon_bound_covers_all(self, small_instance):
        assert small_instance.horizon_bound() == 2 + 6 + 1

    def test_compact_horizon_le_horizon(self, small_instance):
        assert (
            small_instance.compact_horizon_bound()
            <= small_instance.horizon_bound()
        )

    def test_restricted_to(self, small_instance):
        sub = small_instance.restricted_to([2, 4])
        assert sub.num_flows == 2
        assert sub.flows[0].src == 2
        assert sub.flows[1].dst == 2
        assert [f.fid for f in sub.flows] == [0, 1]

    def test_shifted(self, small_instance):
        shifted = small_instance.shifted(5)
        assert shifted.releases().tolist() == [5, 5, 5, 6, 6, 7]

    def test_shifted_negative_rejected(self, small_instance):
        with pytest.raises(ValueError):
            small_instance.shifted(-1)


class TestInstanceSerialization:
    def test_round_trip_dict(self, small_instance):
        again = Instance.from_dict(small_instance.to_dict())
        assert again.num_flows == small_instance.num_flows
        assert again.flows == small_instance.flows
        assert (
            again.switch.input_capacities
            == small_instance.switch.input_capacities
        ).all()

    def test_round_trip_compares_equal(self, small_instance):
        again = Instance.from_dict(small_instance.to_dict())
        assert again == small_instance
        assert hash(again) == hash(small_instance)

    def test_numpy_integer_flows_digest_like_plain_ints(self):
        plain = Instance.create(Switch.create(2), [Flow(0, 1, 1, 2)])
        numpy_ints = Instance.create(
            Switch.create(2),
            [Flow(np.int64(0), np.int32(1), np.int64(1), np.int64(2))],
        )
        assert numpy_ints.digest() == plain.digest()

    def test_round_trip_json_file(self, small_instance, tmp_path):
        path = tmp_path / "trace.json"
        small_instance.save_json(path)
        again = Instance.load_json(path)
        assert again.flows == small_instance.flows

    @given(payloads())
    def test_from_dict_matches_flow_by_flow_parse(self, data):
        """Same instance, or the same exception and message, as one
        :class:`Flow` per flow."""
        assert parsed(Instance.from_dict, data) == parsed(
            reference_from_dict, data
        )

    def test_from_dict_accepts_numpy_integers(self, small_instance):
        data = small_instance.to_dict()
        for f in data["flows"]:
            f["src"], f["release"] = np.int64(f["src"]), np.int32(f["release"])
        again = Instance.from_dict(data)
        assert again.digest() == small_instance.digest()
        assert again.flows == small_instance.flows

    @pytest.mark.parametrize("field", FIELDS)
    def test_from_dict_beyond_int64_is_value_error(self, small_instance, field):
        data = small_instance.to_dict()
        data["flows"][1][field] = 2**63
        with pytest.raises(ValueError, match=f"{field} must fit in int64"):
            Instance.from_dict(data)

    def test_from_dict_rejects_malformed_capacities(self, small_instance):
        data = small_instance.to_dict()
        data["switch"]["input_capacities"] = [1.5, 1, 1, 1]
        with pytest.raises(TypeError, match="input_capacities"):
            Instance.from_dict(data)
        data["switch"]["input_capacities"] = [10**30, 1, 1, 1]
        with pytest.raises(ValueError, match="input_capacities"):
            Instance.from_dict(data)

    @given(capacitated_instances())
    def test_round_trip_property(self, inst):
        again = Instance.from_dict(inst.to_dict())
        assert again.flows == inst.flows
        assert again.switch.num_inputs == inst.switch.num_inputs
