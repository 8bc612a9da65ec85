#!/usr/bin/env python
"""Solve service demo: digest-batching, caching, and metrics.

Spins up the long-lived solve service (``repro.service``) in-process —
the same server, broker, work-stealing workers, and HTTP protocol that
``repro serve`` runs — then drives it with the blocking client:

1. one fresh solve (enqueued, stolen by a worker, stored, certified);
2. a burst of 12 identical requests — the broker coalesces them onto
   one in-flight solve, so the burst costs exactly one solve;
3. an identical resubmission answered straight from the result store;
4. a ``/metrics`` scrape showing the counters that prove all of it.

Against a real deployment, replace the ``ServiceThread`` block with the
address of a running ``repro serve --cache-dir DIR`` process (and add
capacity with ``repro serve --join DIR`` from any machine sharing the
directory).

Run:  python examples/service_client.py
"""

import tempfile
import threading

from repro.scenarios import build_instance
from repro.service import ServiceClient, ServiceThread, parse_metric

SPEC = "hotspot:ports=8,mean=4,horizon=8"


def main() -> None:
    cache_dir = tempfile.mkdtemp(prefix="repro-service-")
    with ServiceThread(cache_dir, workers=2, worker_mode="thread") as svc:
        print(f"Solve service listening on {svc.address}")
        client = ServiceClient(svc.address, timeout=120.0)

        # --- 1. fresh solve, certified before it is stored -------------
        first = client.solve("Greedy", scenario=SPEC, seed=1, verify=True)
        report = first.solve_report()
        print(
            f"fresh solve: source={first.source} "
            f"certified={first.certified} "
            f"avg response={report.metrics.average_response:.2f}"
        )

        # --- 2. a burst of identical requests coalesces ----------------
        instance = build_instance(SPEC, seed=2)
        results = [None] * 12

        def submit(i: int) -> None:
            results[i] = client.solve("FS-MRT", instance=instance)

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sources = sorted(r.source for r in results)
        print(
            f"burst of 12 identical requests: "
            f"{sources.count('solved')} solved, "
            f"{sources.count('coalesced')} coalesced"
        )

        # --- 3. resubmission is a cache hit ----------------------------
        again = client.solve("FS-MRT", instance=instance)
        print(f"resubmission: source={again.source}")

        # --- 4. the metrics agree --------------------------------------
        # A counter no event has touched is absent from the exposition:
        # when the solve finishes before the burst arrives, nothing
        # coalesces, and the burst counts as cache hits instead.
        text = client.metrics()

        def count(name: str, **labels) -> float:
            return parse_metric(text, name, **labels) or 0.0

        print(
            "metrics: "
            f"solved={count('repro_solved_total', solver='FS-MRT'):.0f} "
            f"coalesced={count('repro_coalesced_total'):.0f} "
            f"cache_hits={count('repro_cache_hits_total'):.0f}"
        )
    print("service drained and stopped")


if __name__ == "__main__":
    main()
