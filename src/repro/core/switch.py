"""The non-blocking switch: a capacitated bipartite port set.

The paper models the datacenter network as a single non-blocking switch
``S(m, m')``: ``m`` input ports and ``m'`` output ports, every input
connected to every output with unlimited interconnect bandwidth, and all
bandwidth limits at the ports (Figure 1 of the paper).  A switch here is
therefore just the two capacity vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from repro.utils.validation import check_positive_int

CapacitySpec = Union[int, Sequence[int], np.ndarray]


def _as_capacity_array(spec: CapacitySpec, count: int, name: str) -> np.ndarray:
    """Normalize a capacity spec (scalar or per-port sequence) to an array.

    Each entry of a sequence is checked like a scalar spec, so a float, a
    bool, a value below 1 or one beyond int64 raises instead of being
    truncated or overflowing.
    """
    if np.isscalar(spec):
        cap = check_positive_int(spec, name)
        return np.full(count, cap, dtype=np.int64)
    if np.ndim(spec) != 1 or len(spec) != count:
        raise ValueError(
            f"{name} must be a scalar or a length-{count} sequence, "
            f"got shape {np.shape(spec)}"
        )
    entries = spec.tolist() if isinstance(spec, np.ndarray) else spec
    return np.array(
        [check_positive_int(cap, name) for cap in entries], dtype=np.int64
    )


@dataclass(frozen=True, eq=False)
class Switch:
    """An ``m x m'`` non-blocking switch with per-port capacities.

    Two switches are equal when they have the same port counts and
    capacity vectors, and equal switches hash alike, so instances built
    on them compare and hash too.

    Attributes
    ----------
    num_inputs:
        Number of input (ingress) ports ``m``.
    num_outputs:
        Number of output (egress) ports ``m'``.
    input_capacities / output_capacities:
        Integer capacity vectors ``c_p``; a scalar broadcast to every port
        is accepted by :meth:`create`.
    """

    num_inputs: int
    num_outputs: int
    input_capacities: np.ndarray = field(repr=False)
    output_capacities: np.ndarray = field(repr=False)

    @staticmethod
    def create(
        num_inputs: int,
        num_outputs: int | None = None,
        input_capacities: CapacitySpec = 1,
        output_capacities: CapacitySpec | None = None,
    ) -> "Switch":
        """Build a switch; ``Switch.create(m)`` gives a unit-capacity ``m x m``.

        Parameters
        ----------
        num_inputs / num_outputs:
            Port counts; ``num_outputs`` defaults to ``num_inputs`` (the
            paper's ``S_m`` square case).
        input_capacities / output_capacities:
            Scalar (broadcast) or per-port integer capacities;
            ``output_capacities`` defaults to ``input_capacities``.
        """
        m = check_positive_int(num_inputs, "num_inputs")
        mp = m if num_outputs is None else check_positive_int(num_outputs, "num_outputs")
        in_caps = _as_capacity_array(input_capacities, m, "input_capacities")
        out_spec = input_capacities if output_capacities is None else output_capacities
        out_caps = _as_capacity_array(out_spec, mp, "output_capacities")
        return Switch(m, mp, in_caps, out_caps)

    def __post_init__(self) -> None:
        # Freeze the arrays so the dataclass is effectively immutable.
        self.input_capacities.setflags(write=False)
        self.output_capacities.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        if self is other:
            # Cells generated through the amortized batch path share one
            # switch object, skipping the capacity comparisons.
            return True
        if not isinstance(other, Switch):
            return NotImplemented
        return (
            self.num_inputs == other.num_inputs
            and self.num_outputs == other.num_outputs
            and np.array_equal(self.input_capacities, other.input_capacities)
            and np.array_equal(self.output_capacities, other.output_capacities)
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.num_inputs,
                self.num_outputs,
                self.input_capacities.tobytes(),
                self.output_capacities.tobytes(),
            )
        )

    @property
    def is_square(self) -> bool:
        """True when ``m == m'`` (the paper's ``S_m``)."""
        return self.num_inputs == self.num_outputs

    @property
    def is_unit_capacity(self) -> bool:
        """True when every port has capacity 1 (crossbar semantics)."""
        return bool(
            (self.input_capacities == 1).all() and (self.output_capacities == 1).all()
        )

    def input_capacity(self, p: int) -> int:
        """Capacity of input port ``p``."""
        return int(self.input_capacities[p])

    def output_capacity(self, q: int) -> int:
        """Capacity of output port ``q``."""
        return int(self.output_capacities[q])

    def kappa(self, src: int, dst: int) -> int:
        """``kappa_e = min(c_src, c_dst)``, the max schedulable demand."""
        return int(min(self.input_capacities[src], self.output_capacities[dst]))

    def augmented(self, factor: float = 1.0, additive: int = 0) -> "Switch":
        """Return a switch with capacities ``floor(factor * c_p) + additive``.

        Used by the resource-augmentation algorithms (Theorem 1 uses
        ``factor = 1 + c``; Theorem 3 uses ``additive = 2 d_max - 1``).
        """
        if factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {factor}")
        if additive < 0:
            raise ValueError(f"additive must be >= 0, got {additive}")
        in_caps = (np.floor(self.input_capacities * factor)).astype(np.int64) + additive
        out_caps = (np.floor(self.output_capacities * factor)).astype(np.int64) + additive
        return Switch(self.num_inputs, self.num_outputs, in_caps, out_caps)

    def ports(self) -> Iterable[tuple[str, int]]:
        """Iterate over all ports as ``("in", p)`` / ``("out", q)`` tags."""
        for p in range(self.num_inputs):
            yield ("in", p)
        for q in range(self.num_outputs):
            yield ("out", q)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_unit_capacity:
            return f"Switch({self.num_inputs}x{self.num_outputs}, unit capacities)"
        return (
            f"Switch({self.num_inputs}x{self.num_outputs}, "
            f"caps in[{self.input_capacities.min()}..{self.input_capacities.max()}] "
            f"out[{self.output_capacities.min()}..{self.output_capacities.max()}])"
        )
