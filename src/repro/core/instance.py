"""Problem instances: a switch plus a sequence of flow requests.

An :class:`Instance` is the common input type of every algorithm in the
library (offline LPs, rounding pipelines, online simulator).  It owns flow
identifiers, validates the paper's standing assumption
``d_e <= kappa_e = min(c_p, c_q)``, and provides NumPy views of the flow
attributes for vectorized processing plus JSON (de)serialization for trace
record/replay.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence

import numpy as np

from repro.core.flow import Flow
from repro.core.switch import Switch
from repro.utils.validation import (
    INT64_MAX,
    check_nonnegative_int,
    check_positive_int,
)

#: The flow fields of a serialized instance, in :class:`Flow`'s check
#: order: key, smallest value, and the check of a value that is not a
#: plain int in ``[smallest, INT64_MAX]``.
_FLOW_FIELDS = (
    ("src", 0, check_nonnegative_int),
    ("dst", 0, check_nonnegative_int),
    ("demand", 1, check_positive_int),
    ("release", 0, check_nonnegative_int),
)


@dataclass(frozen=True)
class Instance:
    """An FS-ART / FS-MRT problem instance ``(switch, flows)``.

    Flows are stored in fid order; ``instance.flows[i].fid == i`` always
    holds, so algorithms may index flows by fid.
    """

    switch: Switch
    flows: tuple[Flow, ...] = field(default_factory=tuple)

    @staticmethod
    def create(switch: Switch, flows: Iterable[Flow]) -> "Instance":
        """Validate flows against ``switch`` and assign sequential fids."""
        numbered: List[Flow] = []
        for i, flow in enumerate(flows):
            if flow.src >= switch.num_inputs:
                raise ValueError(
                    f"flow {i}: src port {flow.src} out of range "
                    f"(switch has {switch.num_inputs} inputs)"
                )
            if flow.dst >= switch.num_outputs:
                raise ValueError(
                    f"flow {i}: dst port {flow.dst} out of range "
                    f"(switch has {switch.num_outputs} outputs)"
                )
            kappa = switch.kappa(flow.src, flow.dst)
            if flow.demand > kappa:
                raise ValueError(
                    f"flow {i}: demand {flow.demand} exceeds kappa_e = "
                    f"min(c_{flow.src}, c_{flow.dst}) = {kappa}"
                )
            numbered.append(flow.with_fid(i))
        return Instance(switch, tuple(numbered))

    @staticmethod
    def from_arrays(
        switch: Switch,
        srcs: np.ndarray,
        dsts: np.ndarray,
        demands: np.ndarray,
        releases: np.ndarray,
    ) -> "Instance":
        """Vectorized :meth:`create` from flow attribute arrays.

        Produces an instance *equal* to ``create(switch, [Flow(s, d,
        dem, r) for ...])`` — same flows, same fids, same digest — but
        validates the whole batch with array comparisons and skips the
        per-flow constructor/validator round trips, which dominate
        generation cost for large synthetic workloads.  The attribute
        arrays also seed the instance's vector cache directly.
        """
        srcs = np.ascontiguousarray(srcs, dtype=np.int64)
        dsts = np.ascontiguousarray(dsts, dtype=np.int64)
        demands = np.ascontiguousarray(demands, dtype=np.int64)
        releases = np.ascontiguousarray(releases, dtype=np.int64)
        n = srcs.size
        if not (dsts.size == demands.size == releases.size == n):
            raise ValueError("flow attribute arrays must have equal length")
        if n:
            # Same failure messages (and per-flow check order) as
            # Flow.__post_init__ / create(); first offender wins.
            bad = np.flatnonzero(
                (srcs < 0) | (dsts < 0) | (demands < 1) | (releases < 0)
            )
            if bad.size:
                i = int(bad[0])
                if srcs[i] < 0:
                    raise ValueError(f"src must be >= 0, got {int(srcs[i])}")
                if dsts[i] < 0:
                    raise ValueError(f"dst must be >= 0, got {int(dsts[i])}")
                if demands[i] < 1:
                    raise ValueError(
                        f"demand must be >= 1, got {int(demands[i])}"
                    )
                raise ValueError(
                    f"release must be >= 0, got {int(releases[i])}"
                )
            bad = np.flatnonzero(srcs >= switch.num_inputs)
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"flow {i}: src port {int(srcs[i])} out of range "
                    f"(switch has {switch.num_inputs} inputs)"
                )
            bad = np.flatnonzero(dsts >= switch.num_outputs)
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"flow {i}: dst port {int(dsts[i])} out of range "
                    f"(switch has {switch.num_outputs} outputs)"
                )
            kappa = np.minimum(
                switch.input_capacities[srcs], switch.output_capacities[dsts]
            )
            bad = np.flatnonzero(demands > kappa)
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"flow {i}: demand {int(demands[i])} exceeds kappa_e = "
                    f"min(c_{int(srcs[i])}, c_{int(dsts[i])}) = "
                    f"{int(kappa[i])}"
                )
        # Validation is done, so bypass Flow.__init__/__post_init__ (the
        # per-flow python cost this constructor exists to avoid).  Flow
        # has no __slots__; a plain __dict__ swap builds a field-complete
        # frozen instance.  tolist() gives python ints, keeping to_dict()
        # (and therefore the digest) byte-identical to create().
        flows = []
        new = object.__new__
        for i, (s, d, dem, r) in enumerate(
            zip(
                srcs.tolist(),
                dsts.tolist(),
                demands.tolist(),
                releases.tolist(),
            )
        ):
            f = new(Flow)
            f.__dict__.update(
                src=s, dst=d, demand=dem, release=r, fid=i
            )
            flows.append(f)
        instance = Instance(switch, tuple(flows))
        cache = (srcs, dsts, demands, releases)
        for arr in cache:
            arr.flags.writeable = False
        object.__setattr__(instance, "_vector_cache", cache)
        return instance

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.flows)

    def __iter__(self) -> Iterator[Flow]:
        return iter(self.flows)

    @property
    def num_flows(self) -> int:
        """``n = |F|``."""
        return len(self.flows)

    @property
    def is_unit_demand(self) -> bool:
        """True when every flow has demand 1."""
        return all(f.demand == 1 for f in self.flows)

    @property
    def max_demand(self) -> int:
        """``d_max`` (0 for an empty instance)."""
        return max((f.demand for f in self.flows), default=0)

    @property
    def max_release(self) -> int:
        """Latest release round (0 for an empty instance)."""
        return max((f.release for f in self.flows), default=0)

    # ------------------------------------------------------------------
    # Vectorized views (NumPy arrays indexed by fid)
    # ------------------------------------------------------------------

    def _vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Memoized (srcs, dsts, demands, releases) arrays.

        The instance is frozen, so the arrays can never go stale; hot
        callers (the online simulator builds its queue state from them on
        every run) skip the per-flow attribute walk after the first call.
        """
        cached = getattr(self, "_vector_cache", None)
        if cached is None:
            n = len(self)
            cached = (
                np.fromiter((f.src for f in self.flows), dtype=np.int64, count=n),
                np.fromiter((f.dst for f in self.flows), dtype=np.int64, count=n),
                np.fromiter((f.demand for f in self.flows), dtype=np.int64, count=n),
                np.fromiter((f.release for f in self.flows), dtype=np.int64, count=n),
            )
            for arr in cached:
                arr.flags.writeable = False
            object.__setattr__(self, "_vector_cache", cached)
        return cached

    def srcs(self) -> np.ndarray:
        """Input-port index per flow."""
        return self._vectors()[0]

    def dsts(self) -> np.ndarray:
        """Output-port index per flow."""
        return self._vectors()[1]

    def demands(self) -> np.ndarray:
        """Demand per flow."""
        return self._vectors()[2]

    def releases(self) -> np.ndarray:
        """Release round per flow."""
        return self._vectors()[3]

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    def horizon_bound(self) -> int:
        """A round index by which some valid schedule finishes everything.

        A greedy schedule that places one flow per round after the last
        release always exists (demands respect ``kappa``), so
        ``max_release + n + 1`` rounds always suffice.  LP formulations use
        this as a finite time horizon.
        """
        return self.max_release + self.num_flows + 1

    def compact_horizon_bound(self) -> int:
        """A tighter horizon that still contains an *optimal* schedule.

        In a left-justified schedule (no flow can move to an earlier
        feasible round — total-response-optimal schedules can always be
        made left-justified by cost-decreasing moves), a flow scheduled
        at round ``t`` has one of its two ports saturated in every round
        of ``[r_e, t)``.  Port ``p`` can be saturated in at most
        ``ceil(D_p / c_p)`` rounds, where ``D_p`` is the total demand
        incident on ``p``, so every flow runs before
        ``r_e + ceil(D_src/c_src) + ceil(D_dst/c_dst)``.  The returned
        bound is ``max_release + 2 * max_p ceil(D_p/c_p) + 2``, capped by
        :meth:`horizon_bound`.  Using it as the LP horizon preserves the
        lower-bound property of the relaxations while shrinking them
        dramatically on balanced workloads.
        """
        if self.num_flows == 0:
            return 1
        in_load, out_load = self.port_loads()
        waits_in = np.ceil(in_load / self.switch.input_capacities)
        waits_out = np.ceil(out_load / self.switch.output_capacities)
        max_wait = int(max(waits_in.max(initial=0), waits_out.max(initial=0)))
        return min(self.horizon_bound(), self.max_release + 2 * max_wait + 2)

    def flows_by_release(self) -> dict[int, list[Flow]]:
        """Group flows by release round (used by the online simulator)."""
        groups: dict[int, list[Flow]] = {}
        for flow in self.flows:
            groups.setdefault(flow.release, []).append(flow)
        return groups

    def port_loads(self) -> tuple[np.ndarray, np.ndarray]:
        """Total demand per input port and per output port."""
        in_load = np.zeros(self.switch.num_inputs, dtype=np.int64)
        out_load = np.zeros(self.switch.num_outputs, dtype=np.int64)
        if self.flows:
            np.add.at(in_load, self.srcs(), self.demands())
            np.add.at(out_load, self.dsts(), self.demands())
        return in_load, out_load

    def restricted_to(self, fids: Sequence[int]) -> "Instance":
        """Sub-instance containing only the given flows (re-numbered)."""
        subset = [self.flows[i] for i in fids]
        return Instance.create(self.switch, subset)

    def shifted(self, delta: int) -> "Instance":
        """Instance with every release time shifted by ``delta`` (>= 0 result)."""
        shifted_flows = []
        for f in self.flows:
            new_release = f.release + delta
            if new_release < 0:
                raise ValueError(
                    f"shift {delta} makes flow {f.fid} release negative"
                )
            shifted_flows.append(Flow(f.src, f.dst, f.demand, new_release))
        return Instance.create(self.switch, shifted_flows)

    # ------------------------------------------------------------------
    # Serialization (trace record / replay)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "switch": {
                "num_inputs": self.switch.num_inputs,
                "num_outputs": self.switch.num_outputs,
                "input_capacities": self.switch.input_capacities.tolist(),
                "output_capacities": self.switch.output_capacities.tolist(),
            },
            "flows": [
                {"src": f.src, "dst": f.dst, "demand": f.demand, "release": f.release}
                for f in self.flows
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "Instance":
        """Inverse of :meth:`to_dict`.

        Each flow field is checked as :class:`Flow` checks it, in the
        same order and with the same errors; a plain ``int`` already in
        range skips the check.  One :meth:`from_arrays` call then does
        the port and kappa checks of :meth:`create`.
        """
        sw = data["switch"]
        switch = Switch.create(
            sw["num_inputs"],
            sw["num_outputs"],
            sw["input_capacities"],
            sw["output_capacities"],
        )
        values = []
        for f in data["flows"]:
            row = (f["src"], f["dst"], f.get("demand", 1), f.get("release", 0))
            for v, (name, low, check) in zip(row, _FLOW_FIELDS):
                if type(v) is not int or not low <= v <= INT64_MAX:
                    v = check(v, name)
                values.append(v)
        columns = np.array(values, dtype=np.int64).reshape(-1, 4).T
        return Instance.from_arrays(switch, *columns)

    def digest(self) -> str:
        """Canonical content digest of the instance (hex SHA-256).

        Computed over the sorted-key compact JSON of :meth:`to_dict`, so
        two instances with identical switch and flow data share a digest
        regardless of how they were constructed.  This is the cache key
        of the result store (:mod:`repro.api.store`), which keeps
        finished solver runs and LP bounds.  Memoized — the instance is
        frozen, so the digest can never go stale.
        """
        cached = getattr(self, "_digest", None)
        if cached is None:
            payload = json.dumps(
                self.to_dict(), sort_keys=True, separators=(",", ":")
            )
            cached = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    def save_json(self, path: str | Path) -> None:
        """Write the instance to ``path`` as JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))

    @staticmethod
    def load_json(path: str | Path) -> "Instance":
        """Read an instance previously written by :meth:`save_json`."""
        return Instance.from_dict(json.loads(Path(path).read_text()))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Instance({self.switch}, n={self.num_flows}, "
            f"d_max={self.max_demand}, r_max={self.max_release})"
        )
