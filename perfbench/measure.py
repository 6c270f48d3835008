"""The episodes of one benchmark invocation and the metrics they report.

The first episode is settled, read back and checked; it runs cold, so
host rates come from the repeats that follow.  Every repeat replays the
same seed and must reproduce the first episode's digest and simulated
counts -- traced repeats also its simulated metrics -- or the run fails.
"""

from __future__ import annotations

import resource
import statistics
import time
from typing import Dict, List, Tuple

from check import check, tamper_checks
from episode import ERROR, Episode, run_episode
from layers import LayerProbe
from metrics import (
    END_TO_END_UNITS,
    host_layers,
    host_tx_per_s,
    layer_unit,
    sample_counts,
    simulated,
    simulated_counts,
)

#: Fewest timed repeats per run (host metrics are their median).
MIN_REPEATS = 3
#: Deployments built per run (``setup_s`` is their median): at least
#: ``MIN_SETUPS``, more while their total is under ``SETUP_SECONDS``, so
#: cheap set-ups get more samples.
MIN_SETUPS = 7
MAX_SETUPS = 40
SETUP_SECONDS = 3.0

Metrics = Dict[str, Tuple[float, str]]


class Run:
    """The checked episode, the repeats, and every problem found."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        first = run_episode(workload, seed, check=True)
        expected = first.expected()
        self.problems: List[str] = check(first.observation, expected)
        self.problems += ["self-test: " + m for m in tamper_checks(first.observation, expected)]
        self.digest = first.digest()
        self.simulated = simulated(first)
        self.counts = simulated_counts(first)
        self.samples = sample_counts(first)
        self.attempted = len(first.records)
        self.failed = sum(1 for r in first.records if r.status == ERROR) + first.gave_up
        self.setups = [first.setup_s]
        self.host: List[float] = []
        self.traced_host: List[float] = []

    def repeat(self, probe=None) -> Episode:
        """One more episode of the same seed, checked against the first.
        A traced repeat is also settled, so its lags can be compared."""
        ep = Episode(self.workload, self.seed, probe)
        self.setups.append(ep.setup())
        ep.run()
        if ep.digest() != self.digest:
            self.problems.append(
                "episode digest %s differs from %s" % (ep.digest()[:16], self.digest[:16])
            )
        if simulated_counts(ep) != self.counts:
            self.problems.append("simulated counts differ between episodes of one seed")
        if probe is not None:
            ep.settle()
            if simulated(ep) != self.simulated:
                self.problems.append("the layer probe changed the simulated metrics")
        (self.host if probe is None else self.traced_host).append(host_tx_per_s(ep))
        return ep

    def extra_setups(self) -> None:
        while len(self.setups) < MIN_SETUPS or (
            sum(self.setups) < SETUP_SECONDS and len(self.setups) < MAX_SETUPS
        ):
            self.setups.append(Episode(self.workload, self.seed).setup())


def end_to_end(run: Run, deadline: float) -> Metrics:
    while time.perf_counter() < deadline or len(run.host) < MIN_REPEATS:
        run.repeat()
    run.extra_setups()
    metrics = {
        "host_tx_per_s": statistics.median(run.host),
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(run.simulated)
    return {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer(run: Run, started: float, seconds: float) -> Metrics:
    """Untraced repeats for the first half of the time, traced ones for
    the second half; per-layer host metrics are medians over the traced."""
    while time.perf_counter() < started + seconds / 2 or len(run.host) < 2:
        run.repeat()
    layers = []
    while time.perf_counter() < started + seconds or len(layers) < 2:
        probe = LayerProbe()
        probe.install()
        try:
            ep = run.repeat(probe)
        finally:
            probe.remove()
        layers.append(host_layers(ep, probe))
    metrics = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
    metrics.update(run.counts)
    metrics["trace.overhead_frac"] = 1.0 - statistics.median(run.traced_host) / statistics.median(
        run.host
    )
    return {name: (metrics[name], layer_unit(name)) for name in sorted(metrics)}
