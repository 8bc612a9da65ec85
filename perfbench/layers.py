"""Exclusive per-layer attribution of ``repro``, applied from outside it.

:class:`LayerTracer` wraps the public entry points of each ``repro``
module listed in :data:`TARGETS` and charges every call's **self time**
(its duration minus the time spent in nested wrapped calls on the same
thread) to the call's layer.  Self times therefore partition a thread's
wall clock: ``matching`` time inside ``online`` is charged once, to
``matching``.  A :meth:`LayerTracer.root` frame around a whole workload
collects the time no layer claimed under the ``unattributed`` row.

Callers import many of these functions by name (``from repro.lp.solver
import solve_lp``), so patching the defining module alone would miss
them.  :meth:`LayerTracer.install` also rebinds every attribute of every
loaded ``repro`` module that still points at an original, and
:meth:`LayerTracer.unbound` reports any binding left unpatched.
:meth:`LayerTracer.uninstall` restores every original.

Counters record how much work each layer did (LP solves, ρ probes,
rounding iterations, matching calls, store hits), so that a change in
the amount of work shows up as such and not as a speed-up.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


def _count_lp_columns(tracer, args, kwargs, result):
    tracer.bump("lp.cols_total", args[0].num_vars)


def _count_rho_probe(tracer, args, kwargs, result):
    tracer.bump("lp.rho_probes")
    if result is False:
        tracer.bump("lp.rho_infeasible")


def _count_mrt_iterations(tracer, args, kwargs, result):
    tracer.bump("mrt.rounding_iterations", result.iterations)


def _count_art_iterations(tracer, args, kwargs, result):
    tracer.bump("art.rounding_iterations", result.iterations)


def _count_violations(tracer, args, kwargs, result):
    tracer.bump("verify.violations", len(result.violations))


def _count_store_read(tracer, args, kwargs, result):
    tracer.bump("api.store.reads")
    if result is not None:
        tracer.bump("api.store.read_hits")


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``owner`` is a module path, or ``module:Class`` for a method;
    ``counter`` (optional) is bumped once per call and ``observe``
    (optional) derives further counters from the call and its result.
    """

    layer: str
    owner: str
    attr: str
    counter: Optional[str] = None
    observe: Optional[Callable] = None


#: Every wrapped entry point, grouped by the layer its self time goes to.
TARGETS: Tuple[Target, ...] = (
    # Instance generation.
    Target("workloads", "repro.workloads.synthetic", "poisson_uniform_workload"),
    Target("workloads", "repro.workloads.synthetic", "_poisson_uniform_on"),
    Target("workloads", "repro.workloads.synthetic", "poisson_uniform_workload_batch"),
    Target("workloads", "repro.workloads.synthetic", "hotspot_workload"),
    Target("workloads", "repro.workloads.synthetic", "permutation_workload"),
    Target("workloads", "repro.workloads.synthetic", "incast_workload"),
    Target("workloads", "repro.workloads.synthetic", "churn_heavy_workload"),
    # Online simulation and the policy solvers, minus nested matching.
    Target("online", "repro.online.simulator", "simulate"),
    Target("online", "repro.online.batch", "simulate_batch"),
    Target("online", "repro.api.adapters:PolicySolver", "solve"),
    Target("online", "repro.api.adapters:PolicySolver", "solve_batch"),
    # Matching kernels.
    Target("matching", "repro.matching.weight_matching", "max_weight_matching"),
    Target(
        "matching", "repro.matching.weight_matching", "solve_dense_assignment",
        counter="matching.assignment_calls",
    ),
    Target(
        "matching", "repro.matching.hopcroft_karp", "max_cardinality_matching",
        counter="matching.hk_calls",
    ),
    Target(
        "matching", "repro.matching.hopcroft_karp",
        "max_cardinality_matching_arrays", counter="matching.hk_calls",
    ),
    Target(
        "matching", "repro.matching.hopcroft_karp",
        "max_cardinality_matching_adjacency", counter="matching.hk_calls",
    ),
    Target(
        "matching", "repro.matching.batch_hk", "max_cardinality_matching_batch",
        counter="matching.hk_calls",
    ),
    Target("matching", "repro.matching.edge_coloring", "edge_color_bipartite"),
    # LP model construction.
    Target(
        "lp.build", "repro.mrt.lp_relaxation", "build_time_constrained_lp",
        counter="lp.builds",
    ),
    Target(
        "lp.build", "repro.art.lp_relaxation", "build_fractional_art_lp",
        counter="lp.builds",
    ),
    Target(
        "lp.build", "repro.art.lp_relaxation", "build_interval_lp0",
        counter="lp.builds",
    ),
    # LP solves.
    Target(
        "lp.solve", "repro.lp.solver", "solve_lp",
        counter="lp.solves", observe=_count_lp_columns,
    ),
    # The bound oracles around build and solve (greedy cap, ρ masks).
    Target("lp.bound", "repro.lp.bounds", "mrt_lower_bound"),
    Target("lp.bound", "repro.lp.bounds", "art_lower_bound"),
    Target("lp.bound", "repro.lp.bounds:LPBoundOracle", "__init__"),
    Target(
        "lp.bound", "repro.lp.bounds:LPBoundOracle", "is_feasible",
        observe=_count_rho_probe,
    ),
    Target("lp.bound", "repro.lp.bounds:LPBoundOracle", "lower_bound"),
    # FS-MRT, minus nested LP work; the residual-LP rebuild counts here.
    Target("mrt", "repro.mrt.algorithm", "solve_mrt"),
    Target(
        "mrt", "repro.mrt.rounding", "round_time_constrained",
        observe=_count_mrt_iterations,
    ),
    # FS-ART, minus nested LP and matching work.
    Target("art", "repro.art.algorithm", "solve_art"),
    Target(
        "art", "repro.art.iterative_rounding", "iterative_rounding",
        observe=_count_art_iterations,
    ),
    Target("art", "repro.art.conversion", "pseudo_to_schedule"),
    # Certification.
    Target("verify", "repro.verify", "certify_solve", observe=_count_violations),
    Target("verify", "repro.verify", "check_record", observe=_count_violations),
    # Result store I/O.
    Target(
        "api.store.get", "repro.api.store:ResultStore", "get",
        observe=_count_store_read,
    ),
    Target(
        "api.store.get", "repro.api.store:ResultStore", "lookup",
        observe=_count_store_read,
    ),
    Target("api.store.get", "repro.api.store:ResultStore", "refresh"),
    Target(
        "api.store.put", "repro.api.store:ResultStore", "put",
        counter="api.store.puts",
    ),
    Target(
        "api.store.put", "repro.api.store:ResultStore", "put_many",
        counter="api.store.puts",
    ),
)

#: Calls whose nested layer work is not charged at all.  The solve
#: service's completion reaper polls the store every 20 ms while a job
#: runs on another thread; charging those polls would count the same
#: wall time twice (once on the worker, once on the reaper, which mostly
#: waits for the interpreter lock), so the reaper counts as service wait.
MUTED: Tuple[Tuple[str, str], ...] = (
    ("repro.service.broker:SolveBroker", "_reap_once"),
)

#: Layer rows in report order; ``unattributed`` is the root frames' self time.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS)) + (
    "unattributed",
)


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class LayerTracer:
    """Self-time and call accounting for the :data:`TARGETS` layers.

    Totals are process-wide (a solve on a service worker thread counts
    like one on the caller's thread); the frame stack that turns
    durations into self times is per thread.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object, bool]] = []
        self._originals: Dict[int, Tuple[object, object]] = {}
        self.reset()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Zero every total and counter."""
        with self._lock:
            self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
            self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
            self.counters: Dict[str, int] = {}

    def bump(self, name: str, k: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(k)

    def snapshot(self) -> Dict[str, float]:
        """Self seconds per layer so far (a copy)."""
        with self._lock:
            return dict(self.self_s)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _charge(self, layer: str, start: float, frame: list) -> None:
        duration = time.perf_counter() - start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += duration
        with self._lock:
            self.self_s[layer] += duration - frame[0]
            self.calls[layer] += 1

    @contextmanager
    def root(self):
        """A frame whose self time is charged to ``unattributed``."""
        frame = [0.0]
        self._stack().append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._charge("unattributed", start, frame)

    def _wrap(self, fn, target: Target):
        layer, counter, observe = target.layer, target.counter, target.observe
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(tracer._local, "muted", 0):
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack().append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._charge(layer, start, frame)
            if counter is not None:
                tracer.bump(counter)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def _mute(self, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local.muted = getattr(local, "muted", 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                local.muted -= 1

        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def _patch(self, owner_path: str, attr: str, make_wrapper) -> None:
        owner = _resolve_owner(owner_path)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        self._restore.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, wrapper)
        if not isinstance(owner, type):
            self._originals[id(original)] = (original, wrapper)

    def install(self) -> "LayerTracer":
        """Wrap every target and rebind every by-name import of one."""
        if self._restore:
            raise RuntimeError("layer tracer already installed")
        for target in TARGETS:
            self._patch(
                target.owner, target.attr,
                lambda fn, target=target: self._wrap(fn, target),
            )
        for owner_path, attr in MUTED:
            self._patch(owner_path, attr, self._mute)
        for module in self._repro_modules():
            for name, value in list(vars(module).items()):
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])
                    self._restore.append((module, name, value, True))
        return self

    def uninstall(self) -> None:
        """Put every original back (safe to call when not installed)."""
        while self._restore:
            owner, attr, original, own = self._restore.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._originals.clear()

    def unbound(self) -> List[str]:
        """``module.name`` bindings that still point at an original."""
        missed = []
        for module in self._repro_modules():
            for name, value in vars(module).items():
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    missed.append(f"{module.__name__}.{name}")
        return missed

    @staticmethod
    def _repro_modules():
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
