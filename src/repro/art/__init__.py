"""Average response time (FS-ART) — Section 3 of the paper.

* :mod:`repro.art.lp_relaxation` — LP (1)–(4) (the Garg–Kumar-style
  fractional lower bound used as the Figure 6 baseline) and LP (5)–(8)
  (the interval LP that seeds iterative rounding);
* :mod:`repro.art.iterative_rounding` — the LP(ℓ) sequence of Lemma 3.3
  producing a *pseudo-schedule* with bounded interval overload;
* :mod:`repro.art.pseudo_schedule` — pseudo-schedule type and overload
  diagnostics;
* :mod:`repro.art.conversion` — Theorem 1: windowed Birkhoff–von Neumann
  conversion of a pseudo-schedule into a valid schedule with a ``(1+c)``
  capacity blowup;
* :mod:`repro.art.algorithm` — the end-to-end FS-ART solver.
"""

from repro.art.lp_relaxation import build_fractional_art_lp, build_interval_lp0
from repro.art.pseudo_schedule import PseudoSchedule
from repro.art.iterative_rounding import iterative_rounding
from repro.art.conversion import ConversionResult, pseudo_to_schedule
from repro.art.algorithm import ARTResult, solve_art

__all__ = [
    "build_fractional_art_lp",
    "build_interval_lp0",
    "PseudoSchedule",
    "iterative_rounding",
    "pseudo_to_schedule",
    "ConversionResult",
    "solve_art",
    "ARTResult",
]
