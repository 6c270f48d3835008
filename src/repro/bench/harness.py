"""Closed-loop benchmark driver.

Mirrors the paper's methodology (§8.1): multiple clients per site issue
operations back-to-back against their local server; the harness discards
a warmup window and reports throughput and latency over the measurement
window in *simulated* time.  Optionally the client count is swept to find
the saturation throughput, or fixed to hit a target load fraction
("moderate load ... 70% of maximal throughput", §8.3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from ..deployment import Deployment
from ..sim import Interrupt
from .metrics import BenchResult, LatencyRecorder

#: An operation factory: (client, rng) -> zero-arg generator-function
#: performing one operation and returning an optional label.
OpFactory = Callable


def run_closed_loop_raw(
    kernel,
    clients: Sequence,
    op_factory: OpFactory,
    warmup: float = 0.2,
    measure: float = 0.5,
    name: str = "bench",
    seed: int = 1234,
    obs=None,
) -> BenchResult:
    """Generic closed-loop driver over pre-built clients (used directly by
    the baseline benchmarks; Walter benchmarks use :func:`run_closed_loop`).

    ``obs`` (a :class:`repro.obs.Observability`) adds a metric snapshot to
    the result, taken right after the measurement window closes."""
    recorder = LatencyRecorder(name)
    by_label = {}
    state = {"ops": 0, "errors": 0, "measuring": False}

    def worker(client, rng):
        op = op_factory(client, rng)
        try:
            while True:
                start = kernel.now
                try:
                    label = yield from op()
                except Interrupt:
                    raise
                except Exception:
                    if state["measuring"]:
                        state["errors"] += 1
                    continue
                if state["measuring"]:
                    latency = kernel.now - start
                    state["ops"] += 1
                    recorder.record(latency)
                    if label:
                        by_label.setdefault(label, LatencyRecorder(label)).record(latency)
        except Interrupt:
            return

    workers = []
    for i, client in enumerate(clients):
        rng = random.Random(seed * 97 + i)
        workers.append(kernel.spawn(worker(client, rng), name="worker-%d" % i))

    kernel.run(until=kernel.now + warmup)
    state["measuring"] = True
    measure_start = kernel.now
    kernel.run(until=measure_start + measure)
    state["measuring"] = False
    duration = kernel.now - measure_start
    for proc in workers:
        proc.interrupt("bench done")
    kernel.run(until=kernel.now + 0.001)

    return BenchResult(
        name=name,
        ops=state["ops"],
        errors=state["errors"],
        duration=duration,
        latencies=recorder,
        by_label=by_label,
        metrics=obs.snapshot() if obs is not None else None,
    )


def run_closed_loop(
    world: Deployment,
    op_factory: OpFactory,
    sites: Optional[Sequence[int]] = None,
    clients_per_site: int = 16,
    warmup: float = 0.2,
    measure: float = 0.5,
    name: str = "bench",
    seed: int = 1234,
) -> BenchResult:
    """Drive closed-loop Walter clients and measure the steady window."""
    sites = list(sites if sites is not None else range(world.n_sites))
    clients = [
        world.new_client(site) for site in sites for _ in range(clients_per_site)
    ]
    return run_closed_loop_raw(
        world.kernel, clients, op_factory,
        warmup=warmup, measure=measure, name=name, seed=seed,
        obs=getattr(world, "obs", None),
    )


def find_saturation(
    make_world: Callable[[], Deployment],
    op_factory: OpFactory,
    clients_grid: Iterable[int] = (4, 8, 16, 32, 64),
    **kwargs,
) -> BenchResult:
    """Sweep client counts; return the configuration with peak throughput.

    Each grid point gets a fresh world so measurements are independent.
    """
    best: Optional[BenchResult] = None
    for n in clients_grid:
        world = make_world()
        result = run_closed_loop(world, op_factory, clients_per_site=n, **kwargs)
        result.name = "%s@%d-clients" % (result.name, n)
        if best is None or result.throughput > best.throughput:
            best = result
    assert best is not None
    return best


def run_at_fraction_of_max(
    make_world: Callable[[], Deployment],
    op_factory: OpFactory,
    fraction: float = 0.7,
    saturation_clients: int = 48,
    probe_clients: int = 2,
    **kwargs,
) -> BenchResult:
    """Measure latency at a moderate load -- the paper's methodology for
    Fig 18/22 ("clients issued enough requests to achieve 70% of maximal
    throughput", §8.3).

    Runs a saturation pass and a light probe pass (each on a fresh
    world) to estimate per-client throughput, then sizes the client pool
    to hit ``fraction`` of the saturation throughput.
    """
    peak = run_closed_loop(
        make_world(), op_factory, clients_per_site=saturation_clients,
        name="saturation", **kwargs
    )
    probe = run_closed_loop(
        make_world(), op_factory, clients_per_site=probe_clients,
        name="probe", **kwargs
    )
    n_sites = _n_sites(kwargs, make_world)
    per_client_site = probe.throughput / max(1, probe_clients * n_sites)
    target = peak.throughput * fraction
    n_clients = max(1, round(target / max(per_client_site, 1e-9) / n_sites))
    n_clients = min(n_clients, saturation_clients)
    return run_closed_loop(
        make_world(), op_factory, clients_per_site=n_clients,
        name="%.0f%%-load" % (fraction * 100), **kwargs
    )


def _n_sites(kwargs, make_world) -> int:
    sites = kwargs.get("sites")
    if sites is not None:
        return len(sites)
    world = make_world()
    return world.n_sites
