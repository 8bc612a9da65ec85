"""Lazy per-round arrival streams.

An :class:`ArrivalStream` produces, for rounds ``t = 0, 1, 2, ...``, one
*arrival batch* — a triple ``(srcs, dsts, demands)`` of equally-sized
int64 arrays — describing the flows released in that round.  Streams are

* **lazy**: batches are generated on demand, so a stream's horizon is not
  bounded by memory (the streaming simulator holds only active flows);
* **re-iterable and deterministic**: every ``iter()`` restarts the
  underlying generator factory from its seed, so two iterations of the
  same stream produce identical batches (this is what makes the
  stream-vs-materialized equivalence tests possible);
* **composable**: :meth:`~ArrivalStream.thinned`,
  :meth:`~ArrivalStream.scaled`, :meth:`~ArrivalStream.merged`,
  :meth:`~ArrivalStream.time_warped`, and :meth:`~ArrivalStream.take`
  wrap a stream in a new one without materializing anything.

The bounded adapter :meth:`ArrivalStream.materialize` turns a (prefix of
a) stream into a regular :class:`~repro.core.instance.Instance` for the
offline solvers; :func:`repro.online.simulator.simulate_stream` consumes
the stream directly.
"""

from __future__ import annotations

import hashlib
from itertools import islice
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.flow import Flow
from repro.core.instance import Instance
from repro.core.switch import Switch
from repro.utils.rng import derive_seed, make_rng

#: One round's arrivals: (srcs, dsts, demands) int64 arrays of equal size.
Batch = Tuple[np.ndarray, np.ndarray, np.ndarray]

_EMPTY = np.empty(0, dtype=np.int64)
EMPTY_BATCH: Batch = (_EMPTY, _EMPTY, _EMPTY)


def prefix_hasher(switch: Switch):
    """A SHA-256 hasher seeded with the switch shape and capacities.

    Feed it batches with :func:`hash_batch`; together these define the
    canonical stream-prefix digest format shared by
    :meth:`ArrivalStream.prefix_digest` and
    :func:`repro.verify.check_stream` (which hashes during its validity
    pass — the two must stay byte-compatible, which is why the format
    lives here once).
    """
    h = hashlib.sha256()
    h.update(f"{switch.num_inputs},{switch.num_outputs};".encode())
    h.update(switch.input_capacities.tobytes())
    h.update(switch.output_capacities.tobytes())
    return h


def hash_batch(h, batch: Batch) -> None:
    """Fold one arrival batch into a :func:`prefix_hasher` hasher."""
    srcs, dsts, demands = batch
    h.update(b"|")
    h.update(np.ascontiguousarray(srcs, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(dsts, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(demands, dtype=np.int64).tobytes())


def _check_batch(batch, t: Optional[int] = None) -> Batch:
    """Normalize one ``(srcs, dsts, demands)`` triple into a :data:`Batch`.

    Raises ``ValueError`` unless the three arrays are one-dimensional and
    of equal size; the message starts with ``round t:`` when the round
    ``t`` is given.  Every stream consumer calls this on each batch it
    pulls, since a stream may yield batches not built by
    :func:`make_batch`.
    """
    s, d, dem = (np.asarray(a, dtype=np.int64) for a in batch)
    if not (s.ndim == d.ndim == dem.ndim == 1 and s.size == d.size == dem.size):
        where = "" if t is None else f"round {t}: "
        raise ValueError(
            f"{where}batch arrays must be one-dimensional with equal sizes, "
            f"got shapes {s.shape}/{d.shape}/{dem.shape}"
        )
    return (s, d, dem)


def make_batch(srcs, dsts, demands=None) -> Batch:
    """Normalize arrays/sequences into a :data:`Batch` triple."""
    if demands is None:
        demands = np.ones(np.size(srcs), dtype=np.int64)
    return _check_batch((srcs, dsts, demands))


class ArrivalStream:
    """A re-iterable sequence of per-round arrival batches on one switch.

    Parameters
    ----------
    switch:
        The switch every batch's ports/demands are validated against
        (validation happens at consumption time — by ``materialize`` or
        the streaming simulator — keeping generation allocation-free).
    factory:
        Zero-argument callable returning a fresh batch iterator.  It is
        invoked once per ``iter(stream)``, so it must re-derive any RNG
        state from its captured seed.
    rounds:
        Number of arrival rounds, or ``None`` for an unbounded stream.
        Iteration stops after ``rounds`` batches even if the factory's
        iterator could continue.
    label:
        Display name (scenario label or transform chain).
    """

    def __init__(
        self,
        switch: Switch,
        factory: Callable[[], Iterator[Batch]],
        rounds: Optional[int] = None,
        label: str = "stream",
    ):
        if rounds is not None and rounds < 0:
            raise ValueError(f"rounds must be >= 0 or None, got {rounds}")
        self.switch = switch
        self._factory = factory
        self.rounds = rounds
        self.label = label

    def __iter__(self) -> Iterator[Batch]:
        it = self._factory()
        if self.rounds is None:
            return it
        return islice(it, self.rounds)

    @property
    def is_bounded(self) -> bool:
        return self.rounds is not None

    def prefix_digest(self, rounds: Optional[int] = None) -> str:
        """Canonical content digest of a bounded prefix (hex SHA-256).

        Hashes the switch shape plus every batch of the first ``rounds``
        arrival rounds (``rounds`` defaults to the stream's own bound;
        an unbounded stream requires it).  Two iterations of a
        deterministic stream share a digest, which is what
        :func:`repro.verify.check_stream` certifies, and golden-digest
        tests can pin a scenario's output without materializing it.
        """
        if rounds is None:
            rounds = self.rounds
        if rounds is None:
            raise ValueError(
                f"stream {self.label!r} is unbounded; pass rounds= to "
                "digest a prefix"
            )
        h = prefix_hasher(self.switch)
        for batch in islice(iter(self), rounds):
            hash_batch(h, batch)
        return h.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extent = "unbounded" if self.rounds is None else f"{self.rounds} rounds"
        return f"ArrivalStream({self.label}, {extent})"

    # ------------------------------------------------------------------
    # Composition transforms
    # ------------------------------------------------------------------

    def take(self, rounds: int) -> "ArrivalStream":
        """Bound the stream to its first ``rounds`` arrival rounds."""
        if rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {rounds}")
        bound = rounds if self.rounds is None else min(rounds, self.rounds)
        return ArrivalStream(
            self.switch, self._factory, bound, f"{self.label}.take({rounds})"
        )

    def thinned(self, keep_prob: float, seed: int = 0) -> "ArrivalStream":
        """Keep each flow independently with probability ``keep_prob``."""
        if not 0.0 <= keep_prob <= 1.0:
            raise ValueError(f"keep_prob must be in [0, 1], got {keep_prob}")
        parent = self

        def factory() -> Iterator[Batch]:
            rng = make_rng(derive_seed(seed, 0x7411))
            for srcs, dsts, demands in parent:
                keep = rng.random(srcs.size) < keep_prob
                yield (srcs[keep], dsts[keep], demands[keep])

        return ArrivalStream(
            self.switch, factory, self.rounds,
            f"{self.label}.thinned({keep_prob:g})",
        )

    def scaled(self, factor: float, seed: int = 0) -> "ArrivalStream":
        """Scale the arrival rate by ``factor``.

        Each flow is replicated ``floor(factor)`` times plus one more
        with probability ``factor - floor(factor)``, so the expected
        per-round rate scales exactly by ``factor`` while the traffic
        shape (port pairs, demands, burst timing) is preserved.
        """
        if factor < 0:
            raise ValueError(f"factor must be >= 0, got {factor}")
        parent = self
        whole = int(np.floor(factor))
        frac = float(factor - whole)

        def factory() -> Iterator[Batch]:
            rng = make_rng(derive_seed(seed, 0x5CA1))
            for srcs, dsts, demands in parent:
                copies = np.full(srcs.size, whole, dtype=np.int64)
                if frac > 0.0:
                    copies += rng.random(srcs.size) < frac
                yield (
                    np.repeat(srcs, copies),
                    np.repeat(dsts, copies),
                    np.repeat(demands, copies),
                )

        return ArrivalStream(
            self.switch, factory, self.rounds,
            f"{self.label}.scaled({factor:g})",
        )

    def merged(self, other: "ArrivalStream") -> "ArrivalStream":
        """Superpose two streams round-wise (switches must match)."""
        if (
            self.switch.num_inputs != other.switch.num_inputs
            or self.switch.num_outputs != other.switch.num_outputs
            or not np.array_equal(
                self.switch.input_capacities, other.switch.input_capacities
            )
            or not np.array_equal(
                self.switch.output_capacities, other.switch.output_capacities
            )
        ):
            raise ValueError(
                "cannot merge streams over different switches "
                f"({self.switch} vs {other.switch})"
            )
        a, b = self, other
        if a.rounds is None or b.rounds is None:
            rounds = None
        else:
            rounds = max(a.rounds, b.rounds)

        def factory() -> Iterator[Batch]:
            it_a, it_b = iter(a), iter(b)
            while True:
                batch_a = next(it_a, None)
                batch_b = next(it_b, None)
                if batch_a is None and batch_b is None:
                    return
                if batch_a is None:
                    yield batch_b
                elif batch_b is None:
                    yield batch_a
                else:
                    yield tuple(
                        np.concatenate((x, y))
                        for x, y in zip(batch_a, batch_b)
                    )

        return ArrivalStream(
            self.switch, factory, rounds, f"({a.label}+{b.label})"
        )

    def time_warped(self, stretch: int) -> "ArrivalStream":
        """Dilate time: round ``t`` arrivals land at round ``stretch * t``.

        ``stretch >= 1`` spreads the same flows over a longer horizon
        (lighter instantaneous load, identical totals); ``stretch == 1``
        is the identity.
        """
        if not isinstance(stretch, int) or stretch < 1:
            raise ValueError(f"stretch must be an int >= 1, got {stretch}")
        if stretch == 1:
            return self
        parent = self
        if self.rounds is None:
            rounds = None
        else:
            rounds = 0 if self.rounds == 0 else (self.rounds - 1) * stretch + 1

        def factory() -> Iterator[Batch]:
            first = True
            for batch in parent:
                if not first:
                    for _ in range(stretch - 1):
                        yield EMPTY_BATCH
                first = False
                yield batch

        return ArrivalStream(
            self.switch, factory, rounds,
            f"{self.label}.time_warped({stretch})",
        )

    # ------------------------------------------------------------------
    # Bounded adapter (offline solvers)
    # ------------------------------------------------------------------

    def materialize(self, rounds: Optional[int] = None) -> Instance:
        """Materialize a bounded prefix as an :class:`Instance`.

        Flows get release round ``t`` in batch order, so fids follow the
        exact arrival order the streaming simulator sees — simulating
        the materialized instance and streaming the same prefix are
        byte-identical.  ``rounds`` defaults to the stream's own bound;
        an unbounded stream requires it.
        """
        if rounds is None:
            rounds = self.rounds
        if rounds is None:
            raise ValueError(
                f"stream {self.label!r} is unbounded; pass rounds= to "
                "materialize a prefix"
            )
        flows: List[Flow] = []
        for t, batch in enumerate(islice(iter(self), rounds)):
            srcs, dsts, demands = _check_batch(batch, t)
            for i in range(srcs.size):
                flows.append(
                    Flow(int(srcs[i]), int(dsts[i]), int(demands[i]), t)
                )
        return Instance.create(self.switch, flows)


def merge_streams(first: ArrivalStream, *rest: ArrivalStream) -> ArrivalStream:
    """Superpose any number of streams (functional form of ``merged``)."""
    out = first
    for stream in rest:
        out = out.merged(stream)
    return out
