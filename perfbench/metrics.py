"""End-to-end and per-layer metrics of one episode.

Simulated metrics are computed over the measurement window from the
client-side attempt records and the public metric snapshots taken at the
window's edges, so they are a deterministic function of code and seed.
Host metrics come from ``perf_counter`` around the timed closed loop and
from the layer probe.  "tx" is a committed transaction.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Tuple

from episode import COMMITTED, Episode, attempts_in

_KEY = re.compile(r"^([^{]+)(?:\{(.*)\})?$")

#: End-to-end metric -> unit, in report order.
END_TO_END_UNITS = {
    "host_tx_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_ktps": "ktx/s",
    "update_p50_ms": "ms",
    "update_p99_ms": "ms",
    "read_mean_ms": "ms",
    "read_p99_ms": "ms",
    "durable_lag_p50_ms": "ms",
    "durable_lag_p99_ms": "ms",
    "visible_lag_p50_ms": "ms",
    "visible_lag_p99_ms": "ms",
    "wan_bytes_per_tx": "B/tx",
    "commit_frac": "ratio",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("self_us"):
        return "us/tx"
    if name.endswith("_per_tx"):
        return "1/tx"
    if name.endswith("_ms"):
        return "ms"
    if name in ("net.dropped", "core.history_entries_end"):
        return "count"
    if name == "storage.records_per_flush":
        return "1/flush"
    if name == "prop.records_per_batch":
        return "1/batch"
    return "ratio"


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _parse(key: str) -> Tuple[str, Dict[str, str]]:
    name, labels = _KEY.match(key).groups()
    return name, dict(part.split("=", 1) for part in labels.split(",")) if labels else {}


def _series(snap: Dict, kind: str, name: str) -> Iterable[Tuple[Dict[str, str], object]]:
    for key, value in snap.get(kind, {}).items():
        metric, labels = _parse(key)
        if metric == name:
            yield labels, value


def counter_delta(ep: Episode, name: str, where=lambda labels: True) -> int:
    """Window increase of a counter, summed over matching label sets."""
    start = dict((tuple(sorted(l.items())), v) for l, v in _series(ep.snap_start, "counters", name))
    total = 0
    for labels, value in _series(ep.snap_end, "counters", name):
        if where(labels):
            total += value - start.get(tuple(sorted(labels.items())), 0)
    return total


def _histogram_delta(ep: Episode, name: str) -> Tuple[int, float, Dict[float, int]]:
    """Window (count, sum, bucket counts) of a histogram over all sites."""
    def merged(snap):
        count, total, buckets = 0, 0.0, {}
        for _labels, hist in _series(snap, "histograms", name):
            count += hist["count"]
            total += hist["sum"]
            for bound, n in hist["buckets"]:
                buckets[bound] = buckets.get(bound, 0) + n
        return count, total, buckets

    c0, s0, b0 = merged(ep.snap_start)
    c1, s1, b1 = merged(ep.snap_end)
    return c1 - c0, s1 - s0, {b: n - b0.get(b, 0) for b, n in b1.items() if n - b0.get(b, 0)}


def _bucket_percentile(buckets: Dict[float, int], q: float) -> float:
    """Percentile estimate from log buckets (linear inside a bucket)."""
    total = sum(buckets.values())
    if not total:
        return 0.0
    rank = q / 100.0 * total
    seen, lower = 0, 0.0
    for bound in sorted(buckets):
        n = buckets[bound]
        if seen + n >= rank:
            upper = bound if bound != float("inf") else lower
            return lower + (rank - seen) / n * (upper - lower)
        seen += n
        lower = bound
    return lower


def committed_in_loop(ep: Episode) -> int:
    """Commits acknowledged during the timed closed loop."""
    return sum(1 for r in ep.records if r.status == COMMITTED and r.end <= ep.window[1])


def host_tx_per_s(ep: Episode) -> float:
    return committed_in_loop(ep) / ep.run_host_s


def simulated(ep: Episode) -> Dict[str, float]:
    """The simulated-plane end-to-end metrics (see README.md)."""
    attempts = attempts_in(ep)
    committed = [r for r in attempts if r.status == COMMITTED]
    updates = [r for r in committed if r.plan.is_update]
    reads = [r for r in committed if not r.plan.is_update]
    update_ms = [(r.end - r.start) * 1e3 for r in updates]
    read_ms = [(r.end - r.start) * 1e3 for r in reads]
    durable_ms = [(r.handle.ds_event.value - r.end) * 1e3 for r in updates]
    visible_ms = [(r.handle.visible_event.value - r.end) * 1e3 for r in updates]
    shards = ep.world.shards
    wan_bytes = counter_delta(
        ep, "net.bytes", lambda l: int(l["site"]) // shards != int(l["dst"]) // shards
    )
    return {
        "sim_ktps": len(committed) / ep.workload.measure / 1e3,
        "update_p50_ms": percentile(update_ms, 50),
        "update_p99_ms": percentile(update_ms, 99),
        "read_mean_ms": sum(read_ms) / len(read_ms) if read_ms else 0.0,
        "read_p99_ms": percentile(read_ms, 99),
        "durable_lag_p50_ms": percentile(durable_ms, 50),
        "durable_lag_p99_ms": percentile(durable_ms, 99),
        "visible_lag_p50_ms": percentile(visible_ms, 50),
        "visible_lag_p99_ms": percentile(visible_ms, 99),
        "wan_bytes_per_tx": wan_bytes / len(committed),
        "commit_frac": len(committed) / len(attempts),
    }


def sample_counts(ep: Episode) -> Dict[str, int]:
    """Sample sizes behind the simulated percentiles."""
    attempts = attempts_in(ep)
    committed = [r for r in attempts if r.status == COMMITTED]
    return {
        "attempts": len(attempts),
        "committed": len(committed),
        "updates": sum(1 for r in committed if r.plan.is_update),
        "reads": sum(1 for r in committed if not r.plan.is_update),
    }


def simulated_counts(ep: Episode) -> Dict[str, float]:
    """Per-layer counts taken from public snapshots, per window tx."""
    tx = sample_counts(ep)["committed"]
    records = counter_delta(ep, "disklog.records")
    flushes = counter_delta(ep, "disklog.flushes")
    hits = counter_delta(ep, "cache.hits")
    misses = counter_delta(ep, "cache.misses")
    commits = counter_delta(ep, "server.commits")
    aborts = counter_delta(ep, "server.aborts")
    batches, batch_records, _ = _histogram_delta(ep, "server.propagation_batch")
    _, _, lag_buckets = _histogram_delta(ep, "server.replication_lag")
    history = sum(v for _l, v in _series(ep.snap_end, "gauges", "server.history_entries"))
    dropped = sum(
        counter_delta(ep, name)
        for name in ("net.dropped_crash", "net.dropped_partition", "net.dropped_random")
    )
    loop_tx = committed_in_loop(ep)
    return {
        "sim.events_per_tx": ep.events / loop_tx,
        "sim.cpu_util_max": max(ep.cpu_util),
        "net.msgs_per_tx": counter_delta(ep, "net.sent") / tx,
        "net.dropped": dropped,
        "storage.wal_records_per_tx": records / tx,
        "storage.wal_flushes_per_tx": flushes / tx,
        "storage.records_per_flush": records / flushes if flushes else 0.0,
        "storage.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "core.history_entries_end": history,
        "commit.success_ratio": commits / (commits + aborts) if commits + aborts else 0.0,
        "prop.applied_per_tx": counter_delta(ep, "server.remote_applied") / tx,
        "prop.records_per_batch": batch_records / batches if batches else 0.0,
        "prop.replication_lag_p50_ms": _bucket_percentile(lag_buckets, 50) * 1e3,
    }


#: Self-time metric -> probe layer.
SELF_TIME = {
    "net.send_self_us": "net.send",
    "net.wire_self_us": "net.wire",
    "storage.wal_append_self_us": "storage.wal_append",
    "core.read_self_us": "core.read",
    "core.cset_read_self_us": "core.cset_read",
    "core.apply_self_us": "core.apply",
    "core.gc_self_us": "core.gc",
    "exec.read_self_us": "exec.read",
    "exec.write_self_us": "exec.write",
    "exec.remote_read_self_us": "exec.remote_read",
    "commit.fast_self_us": "commit.fast",
    "commit.prepare_self_us": "commit.prepare",
    "prop.recv_self_us": "prop.recv",
    "server.gc_self_us": "server.gc",
    "server.sweep_self_us": "server.sweep",
    "client.self_us": "client",
    "obs.self_us": "obs",
}


def host_layers(ep: Episode, probe) -> Dict[str, float]:
    """Host self time per layer (microseconds per tx of the closed loop)
    and the probe's call counts, per tx."""
    tx = committed_in_loop(ep)
    out = {"sim.self_us": (ep.run_host_s - probe.wrapped_s) / tx * 1e6}
    for metric, layer in SELF_TIME.items():
        out[metric] = probe.self_s.get(layer, 0.0) / tx * 1e6
    out["net.rpc_per_tx"] = probe.calls["net.rpc"] / tx
    out["net.cast_per_tx"] = probe.calls["net.cast"] / tx
    out["exec.remote_reads_per_tx"] = probe.calls["exec.remote_read"] / tx
    out["commit.prepares_per_tx"] = probe.calls["commit.prepare"] / tx
    return out
