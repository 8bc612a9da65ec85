"""Online flow scheduling (Section 5 of the paper).

* :mod:`repro.online.simulator` — the round-based online simulator
  (reimplementation of the paper's in-house C++ simulator, §5.2.1);
* :mod:`repro.online.policies` — the MaxCard / MinRTime / MaxWeight
  heuristics plus a FIFO baseline and greedy packing for general
  capacities;
* :mod:`repro.online.batch` — trial-batched simulation: a cell of N
  trials executes as one structure-of-arrays merged run, byte-identical
  to N solo runs;
* :mod:`repro.online.amrt` — the batching online algorithm of Lemma 5.3
  (2-competitive for max response with doubled, augmented capacity);
* :mod:`repro.online.lower_bounds` — the adversarial constructions of
  Figure 4 (Lemmas 5.1 and 5.2).
"""

from repro.online.batch import batch_kernel_name, simulate_batch
from repro.online.simulator import (
    FlowQueue,
    SimulationResult,
    StreamFlowQueue,
    StreamSimulationResult,
    simulate,
    simulate_stream,
)
from repro.online.policies import (
    FifoPolicy,
    MaxCardPolicy,
    MaxWeightPolicy,
    MinRTimePolicy,
    OnlinePolicy,
    POLICY_REGISTRY,
    make_policy,
)
from repro.online.amrt import (
    AMRTResult,
    AMRTStreamResult,
    run_amrt,
    run_amrt_stream,
)
from repro.online.lower_bounds import (
    adaptive_figure4a_ratio,
    adaptive_figure4b_max_response,
    figure4a_instance,
    figure4b_instance,
    figure4b_optimal_max_response,
)

__all__ = [
    "simulate",
    "simulate_batch",
    "simulate_stream",
    "batch_kernel_name",
    "SimulationResult",
    "StreamSimulationResult",
    "FlowQueue",
    "StreamFlowQueue",
    "OnlinePolicy",
    "MaxCardPolicy",
    "MinRTimePolicy",
    "MaxWeightPolicy",
    "FifoPolicy",
    "POLICY_REGISTRY",
    "make_policy",
    "run_amrt",
    "run_amrt_stream",
    "AMRTResult",
    "AMRTStreamResult",
    "figure4a_instance",
    "figure4b_instance",
    "adaptive_figure4a_ratio",
    "adaptive_figure4b_max_response",
    "figure4b_optimal_max_response",
]
