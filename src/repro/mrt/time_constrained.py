"""Time-Constrained Flow Scheduling (Section 4.2).

The generalization the paper actually solves: each flow ``e`` has a set of
*active rounds* ``R(e)`` (possibly non-contiguous) and must be scheduled
in some ``t in R(e)``.  Two reductions produce such instances:

* **FS-MRT with response bound ρ** — ``R(e) = {t : r_e <= t < r_e + ρ}``
  (the paper's reduction preceding Theorem 3);
* **release + deadline model** (Remark 4.2) — ``R(e) = [r_e, deadline_e]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.instance import Instance
from repro.utils.validation import check_nonnegative_int, check_positive_int


@dataclass(frozen=True)
class TimeConstrainedInstance:
    """An instance plus per-flow active-round sets.

    Attributes
    ----------
    instance:
        The underlying switch + flows (release times are *not* consulted
        by the LP — the active sets are authoritative; the reduction
        builders derive them from releases).
    active_rounds:
        ``active_rounds[fid]`` is a sorted tuple of rounds in which flow
        ``fid`` may be scheduled.
    """

    instance: Instance
    active_rounds: tuple[tuple[int, ...], ...] = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.active_rounds) != self.instance.num_flows:
            raise ValueError(
                f"need one active set per flow: {len(self.active_rounds)} "
                f"sets for {self.instance.num_flows} flows"
            )
        for fid, rounds in enumerate(self.active_rounds):
            if not rounds:
                raise ValueError(f"flow {fid} has an empty active set")
            if any(t < 0 for t in rounds):
                raise ValueError(f"flow {fid} has a negative active round")
            if tuple(sorted(set(rounds))) != rounds:
                raise ValueError(
                    f"flow {fid} active set must be sorted and duplicate-free"
                )

    @property
    def all_rounds(self) -> tuple[int, ...]:
        """The paper's ``T``: the union of all active sets, sorted."""
        rounds: set[int] = set()
        for rs in self.active_rounds:
            rounds.update(rs)
        return tuple(sorted(rounds))

    def respects_releases(self) -> bool:
        """Whether every active round is at or after the flow's release."""
        return all(
            rounds[0] >= flow.release
            for flow, rounds in zip(self.instance.flows, self.active_rounds)
        )


def from_response_bound(instance: Instance, rho: int) -> TimeConstrainedInstance:
    """Reduction FS-MRT → Time-Constrained: ``R(e) = [r_e, r_e + ρ)``.

    A schedule of the result has maximum response time at most ρ, and
    conversely any FS-MRT schedule with max response ≤ ρ schedules every
    flow inside its window.
    """
    rho = check_positive_int(rho, "rho")
    active = tuple(
        tuple(range(f.release, f.release + rho)) for f in instance.flows
    )
    return TimeConstrainedInstance(instance, active)


def from_deadlines(
    instance: Instance, deadlines: Sequence[int]
) -> TimeConstrainedInstance:
    """Release/deadline model (Remark 4.2): ``R(e) = [r_e, deadline_e]``.

    ``deadlines[fid]`` is the *last* admissible round of flow ``fid``
    (inclusive), mirroring the paper's ``r_e <= t <= d_e``.
    """
    if len(deadlines) != instance.num_flows:
        raise ValueError("need one deadline per flow")
    active = []
    for flow, deadline in zip(instance.flows, deadlines):
        deadline = check_nonnegative_int(
            deadline, f"flow {flow.fid}: deadline"
        )
        if deadline < flow.release:
            raise ValueError(
                f"flow {flow.fid}: deadline {deadline} precedes release "
                f"{flow.release}"
            )
        active.append(tuple(range(flow.release, deadline + 1)))
    return TimeConstrainedInstance(instance, tuple(active))
