"""End-to-end FS-ART solver (Theorem 1).

``solve_art`` chains the Section 3 pipeline: LP (5)–(8) → iterative
rounding (Lemma 3.3) → windowed BvN conversion (Theorem 1), and returns
the schedule together with the LP (1)–(4) lower bound so callers can
report the achieved approximation ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.art.conversion import ConversionResult, pseudo_to_schedule
from repro.art.iterative_rounding import iterative_rounding
from repro.art.pseudo_schedule import PseudoSchedule
from repro.core.instance import Instance
from repro.core.metrics import total_response_time
from repro.core.schedule import Schedule
from repro.lp.bounds import art_lower_bound
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class ARTResult:
    """Result of :func:`solve_art`.

    Attributes
    ----------
    schedule:
        Valid schedule under capacities ``capacity_factor * c_p``.
    total_response:
        Its FS-ART objective value.
    lower_bound:
        Optimal value of LP (1)–(4) (lower bound on any schedule's total
        response; ``None`` if skipped).
    pseudo:
        The intermediate pseudo-schedule (diagnostics: iterations,
        overload).
    conversion:
        The Theorem 1 conversion diagnostics (window, achieved capacity
        factor, delays).
    """

    schedule: Schedule
    total_response: int
    lower_bound: Optional[float]
    pseudo: PseudoSchedule
    conversion: ConversionResult

    @property
    def approximation_ratio(self) -> Optional[float]:
        """``total_response / lower_bound`` when the bound was computed."""
        if self.lower_bound is None or self.lower_bound <= 0:
            return None
        return self.total_response / self.lower_bound


def solve_art(
    instance: Instance,
    c: int = 1,
    window: Optional[int] = None,
    horizon: Optional[int] = None,
    compute_lower_bound: bool = True,
) -> ARTResult:
    """Solve FS-ART per Theorem 1 (unit demands).

    Parameters
    ----------
    instance:
        Unit-demand instance.
    c:
        Capacity-augmentation integer (target blowup ``1 + c``,
        approximation ``1 + O(log n)/c``).
    window:
        Override the conversion window ``h``.
    horizon:
        LP horizon override; one too short for the LPs raises
        ``ValueError``.
    compute_lower_bound:
        Also solve LP (1)–(4) for the certified lower bound (extra LP
        solve; disable for benchmarks that only need the schedule).

    Returns
    -------
    ARTResult
    """
    check_positive_int(c, "c")
    pseudo = iterative_rounding(instance, horizon=horizon)
    conversion = pseudo_to_schedule(pseudo, c=c, window=window)
    lower = (
        art_lower_bound(instance, horizon=horizon)
        if compute_lower_bound
        else None
    )
    return ARTResult(
        schedule=conversion.schedule,
        total_response=total_response_time(conversion.schedule),
        lower_bound=lower,
        pseudo=pseudo,
        conversion=conversion,
    )
