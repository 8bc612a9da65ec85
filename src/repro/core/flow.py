"""Flow requests on a switch.

A flow (paper notation ``e = pq``) is a directed edge from an input port
``p`` to an output port ``q`` with an integer demand ``d_e >= 1`` and an
integer release round ``r_e >= 0``.  Flows are *atomic*: a schedule places a
flow entirely within one round (the paper's ``sigma_{e,t} in {0,1}`` with
``sum_t sigma_{e,t} >= 1``); the fractional LP relaxations are the only
place where a flow is split across rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_nonnegative_int, check_positive_int

#: Sets a field of a frozen dataclass.
_set = object.__setattr__


@dataclass(frozen=True, order=True)
class Flow:
    """A single flow request.

    Attributes
    ----------
    src:
        Input (ingress) port index, ``0 <= src < m``.
    dst:
        Output (egress) port index, ``0 <= dst < m'``.
    demand:
        Integer demand ``d_e >= 1``; must satisfy
        ``d_e <= min(c_src, c_dst)`` in the containing instance.
    release:
        Integer release round ``r_e >= 0``; the flow may be scheduled in
        any round ``t >= release``.
    fid:
        Stable identifier within an instance (assigned by
        :class:`repro.core.instance.Instance`); ``-1`` for free-standing
        flows.
    """

    src: int
    dst: int
    demand: int = 1
    release: int = 0
    fid: int = -1

    def __post_init__(self) -> None:
        # Keep the checked plain ints: a NumPy integer would reach the
        # instance digest's JSON encoding, which rejects it.
        _set(self, "src", check_nonnegative_int(self.src, "src"))
        _set(self, "dst", check_nonnegative_int(self.dst, "dst"))
        _set(self, "demand", check_positive_int(self.demand, "demand"))
        _set(self, "release", check_nonnegative_int(self.release, "release"))

    @property
    def is_unit(self) -> bool:
        """True when the flow has unit demand."""
        return self.demand == 1

    def with_fid(self, fid: int) -> "Flow":
        """Return a copy with identifier ``fid`` (used during instance build).

        ``self``'s fields were checked when it was built, so the copy
        skips ``__init__`` and its checks.
        """
        flow = object.__new__(Flow)
        _set(flow, "src", self.src)
        _set(flow, "dst", self.dst)
        _set(flow, "demand", self.demand)
        _set(flow, "release", self.release)
        _set(flow, "fid", fid)
        return flow

    def with_release(self, release: int) -> "Flow":
        """Return a copy released at round ``release`` (same fid)."""
        return Flow(self.src, self.dst, self.demand, release, self.fid)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Flow#{self.fid}({self.src}->{self.dst}, d={self.demand}, "
            f"r={self.release})"
        )
