"""One episode: build a deployment, drive the closed loop, settle, read back.

An episode is a deterministic function of (workload, seed): the same seed
replays the identical simulated schedule, so repeating an episode only
varies host time.  It uses nothing but the public surface --
``Deployment(...)``, ``create_container``/``preload``/``new_client``,
the ``WalterClient`` API, ``run``/``run_process``/``settle`` and the
public snapshots (``metrics_snapshot()``, ``kernel.events_executed``,
``Resource.utilization``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass
from typing import Dict, List

from repro.net import RpcError

from check import Expected, Observed
from workloads import Keyspace, Plan, Workload, execute, tag_of

COMMITTED = "COMMITTED"
ABORTED = "ABORTED"
ERROR = "ERROR"

#: An aborted update is retried as a fresh transaction at most this many
#: times before the plan counts as failed ...
MAX_ATTEMPTS = 50
#: ... after a backoff that doubles from ``RETRY_BACKOFF`` up to
#: ``RETRY_BACKOFF_MAX`` simulated seconds, so a retry does not spin
#: against a prepared lock held for a WAN round trip.
RETRY_BACKOFF = 0.002
RETRY_BACKOFF_MAX = 0.128
#: Extra settle rounds allowed for the last commits' DS-durable and
#: visible notifications to arrive before the check reports them missing.
MAX_SETTLE_ROUNDS = 10
#: Objects per read-back transaction in the correctness check.
READBACK_CHUNK = 256


@dataclass(slots=True)
class TxRecord:
    """One transaction attempt as the client saw it (simulated seconds)."""

    tid: str
    plan: Plan
    start: float
    end: float
    status: str
    handle: object


class Episode:
    """Setup, closed-loop run, settle and read-back of one workload."""

    def __init__(self, workload: Workload, seed: int, probe=None):
        self.workload = workload
        self.seed = seed
        #: Optional :class:`layers.LayerProbe`, armed during the timed run.
        self.probe = probe
        self.records: List[TxRecord] = []
        self.read_tags = set()
        self.gave_up = 0
        self.setup_s = 0.0
        self.run_host_s = 0.0
        self.snap_start: Dict = {}
        self.snap_end: Dict = {}
        self.events = 0
        self.cpu_util: List[float] = []
        self._stopping = False

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def setup(self) -> float:
        """Build the deployment, preload the keyspace and create the
        load clients; returns (and keeps) the host seconds it took.
        Garbage of earlier episodes is collected first, outside the timer."""
        gc.collect()
        started = time.perf_counter()
        workload = self.workload
        self.world = workload.deployment(self.seed)
        self.keys: Keyspace = workload.populate(self.world)
        self.clients = [
            (site, self.world.new_client(site))
            for site in range(self.world.n_sites)
            for _ in range(workload.clients_per_site)
        ]
        self.setup_s = time.perf_counter() - started
        return self.setup_s

    def run(self) -> None:
        """Warm up, measure, then stop the clients and let every
        in-flight transaction finish.  Only the two ``world.run`` calls of
        the closed loop are timed; the snapshots and the drain are not."""
        world = self.world
        workload = self.workload
        kernel = world.kernel
        procs = [
            kernel.spawn(
                self._client_loop(client, site, random.Random("%d:%d" % (self.seed, i))),
                name="bench-client-%d" % i,
            )
            for i, (site, client) in enumerate(self.clients)
        ]
        events_before = kernel.events_executed
        self.window = (workload.warmup, workload.warmup + workload.measure)
        self.run_host_s = self._timed_run(self.window[0])
        self.snap_start = world.metrics_snapshot()
        self.run_host_s += self._timed_run(self.window[1])
        self.events = kernel.events_executed - events_before
        self.snap_end = world.metrics_snapshot()
        elapsed = world.kernel.now
        self.cpu_util = [
            server.cpu.utilization(elapsed) for server in world.servers if server is not None
        ]
        # Stop issuing and let every in-flight transaction finish, so each
        # attempt gets its reply: nothing is left half-acknowledged.
        self._stopping = True

        def join():
            for proc in procs:
                yield proc

        world.run_process(join(), within=60.0)

    def _timed_run(self, until: float) -> float:
        """Advance the world to ``until``; the host seconds it took (the
        layer probe, if any, records only inside this stretch)."""
        probe = self.probe
        if probe is not None:
            probe.armed = True
        started = time.perf_counter()
        try:
            self.world.run(until=until)
        finally:
            elapsed = time.perf_counter() - started
            if probe is not None:
                probe.armed = False
        return elapsed

    def settle(self) -> None:
        """Let propagation finish until every acknowledged update fired
        its DS-durable and visible events (bounded rounds)."""
        self.world.settle(self.workload.settle)
        for _ in range(MAX_SETTLE_ROUNDS):
            if not self._unnotified():
                return
            self.world.settle(self.workload.settle)

    def _unnotified(self) -> List[TxRecord]:
        return [
            r
            for r in self.records
            if r.status == COMMITTED
            and r.plan.is_update
            and not (r.handle.ds_event.triggered and r.handle.visible_event.triggered)
        ]

    def _client_loop(self, client, site: int, rng: random.Random):
        kernel = self.world.kernel
        workload = self.workload
        keys = self.keys
        records = self.records
        while not self._stopping:
            plan = workload.plan(rng, site, keys)
            for attempt in range(MAX_ATTEMPTS):
                if attempt:
                    yield kernel.timeout(min(RETRY_BACKOFF * 2 ** (attempt - 1), RETRY_BACKOFF_MAX))
                tx = client.start_tx()
                start = kernel.now
                try:
                    values = yield from execute(client, tx, plan)
                    status = tx.status
                except RpcError:
                    values, status = (), ERROR
                records.append(TxRecord(tx.tid, plan, start, kernel.now, status, tx))
                for value in values:
                    self.read_tags.add(tag_of(value))
                if status == COMMITTED:
                    break
            else:
                self.gave_up += 1

    # ------------------------------------------------------------------
    # Correctness inputs
    # ------------------------------------------------------------------
    def observe(self) -> Observed:
        """Read every object back at every replica through a fresh client
        at that replica's site, after the world settled."""
        world = self.world
        keys = self.keys
        objects = keys.keys + keys.csets
        by_site: Dict[int, list] = {}
        for oid in objects:
            for site in keys.replica_sites(oid):
                by_site.setdefault(site, []).append(oid)
        regular: Dict = {}
        csets: Dict = {}
        for site in sorted(by_site):
            client = world.new_client(site, name="bench-check-%d" % site)
            oids = by_site[site]
            for lo in range(0, len(oids), READBACK_CHUNK):
                chunk = oids[lo : lo + READBACK_CHUNK]

                def readback(chunk=chunk):
                    tx = client.start_tx()
                    values = yield from client.multiread(tx, chunk, last=True)
                    return values

                for oid, value in zip(chunk, world.run_process(readback(), within=60.0)):
                    if oid.is_cset:
                        csets[(site, oid)] = dict(value.counts())
                    else:
                        regular[(site, oid)] = tag_of(value)
        return Observed(regular=regular, csets=csets, read_tags=set(self.read_tags))

    def expected(self) -> Expected:
        keys = self.keys
        writers: Dict = {oid: set() for oid in keys.keys}
        adds: Dict = {oid: {} for oid in keys.csets}
        aborted = set()
        for record in self.records:
            if record.status == ABORTED:
                aborted.add(record.tid)
            if record.status != COMMITTED:
                continue
            for oid in record.plan.writes:
                writers[oid].add(record.tid)
            for oid in record.plan.cset_adds:
                adds[oid][record.tid] = adds[oid].get(record.tid, 0) + 1
        regular = {
            oid: tids if tids else {keys.preload_tag[oid]} for oid, tids in writers.items()
        }
        return Expected(
            regular=regular,
            csets=adds,
            replicas={oid: keys.replica_sites(oid) for oid in keys.keys + keys.csets},
            aborted_tids=aborted,
            unnotified=[r.tid for r in self._unnotified()],
        )

    # ------------------------------------------------------------------
    # Determinism
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """SHA-256 over every attempt (tid, times, status), the window
        snapshots and the kernel event count: equal digests mean the
        simulated schedule was identical."""
        h = hashlib.sha256()
        for r in self.records:
            h.update(("%s|%r|%r|%s\n" % (r.tid, r.start, r.end, r.status)).encode())
        for snap in (self.snap_start, self.snap_end):
            # The access-profile sketch is left out: its eviction counts
            # follow set iteration order, which varies across processes.
            public = {k: snap[k] for k in ("counters", "gauges", "histograms")}
            h.update(json.dumps(public, sort_keys=True).encode())
        h.update(("events=%d" % self.events).encode())
        return h.hexdigest()


def run_episode(workload: Workload, seed: int, check: bool, probe=None) -> Episode:
    """Set up and run one episode; with ``check`` also settle the world
    and read every object back (``episode.observation``)."""
    episode = Episode(workload, seed, probe)
    episode.setup()
    episode.run()
    if check:
        episode.settle()
        episode.observation = episode.observe()
    return episode


def attempts_in(episode: Episode) -> List[TxRecord]:
    """Attempts that finished inside the measurement window."""
    lo, hi = episode.window
    return [r for r in episode.records if lo <= r.end < hi]
