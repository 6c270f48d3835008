"""The benchmark's workloads: deployment shape, keyspace and transaction mix.

Every input is generated here from the workload seed -- keys, payloads
and operation choices -- so edits to the program under test cannot
silently change what the benchmark feeds it.  Each workload only uses
the deployment arguments a user would pass to define it (``n_sites``,
``topology``, ``costs``, ``flush_latency``, ``seed``, ``shards``,
``replication``); every optional knob keeps its default.

Payloads are 100-byte objects (paper §8.1) that carry the id of the
transaction that wrote them, so the correctness check can tell which
transaction produced every value it reads back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import Deployment
from repro.bench.calibration import walter_costs
from repro.core.objects import Container, ObjectId, ObjectKind
from repro.net import Topology
from repro.storage import FLUSH_EC2

OBJECT_SIZE = 100  # bytes, paper §8.1
PRELOAD_PREFIX = "preload:"


def payload(tag: str) -> bytes:
    """A 100-byte object value carrying ``tag`` (a writer's tid)."""
    data = tag.encode("ascii")
    if len(data) >= OBJECT_SIZE:
        raise ValueError("tag %r does not fit a %d-byte object" % (tag, OBJECT_SIZE))
    return data.ljust(OBJECT_SIZE, b".")


def tag_of(value) -> Optional[str]:
    """The writer tag inside a value read back (None for nil)."""
    if value is None:
        return None
    return value.rstrip(b".").decode("ascii")


@dataclass
class Keyspace:
    """The populated objects, by preferred (logical) site."""

    containers: Dict[str, Container]
    keys: List[ObjectId]
    by_site: Dict[int, List[ObjectId]]
    csets_by_site: Dict[int, List[ObjectId]]
    preload_tag: Dict[ObjectId, str]

    @property
    def csets(self) -> List[ObjectId]:
        return [oid for site in sorted(self.csets_by_site) for oid in self.csets_by_site[site]]

    def replica_sites(self, oid: ObjectId):
        """The logical sites that store ``oid``, sorted."""
        return sorted(self.containers[oid.container].replica_sites)


@dataclass(frozen=True)
class Plan:
    """One transaction's operations.  A plan without updates is
    read-only; an aborted update plan is retried as a new transaction."""

    reads: Tuple[ObjectId, ...] = ()
    writes: Tuple[ObjectId, ...] = ()
    cset_adds: Tuple[ObjectId, ...] = ()

    @property
    def is_update(self) -> bool:
        return bool(self.writes or self.cset_adds)


def execute(client, tx, plan: Plan):
    """Generator: run ``plan`` as transaction ``tx`` through the public
    client API.  Returns the values read.  The commit is piggybacked on
    the last access when there is no cset update (one RPC for a 1-object
    transaction, §8.2); otherwise it is an explicit ``commit``."""
    values = []
    if not plan.is_update:
        last = len(plan.reads) - 1
        for i, oid in enumerate(plan.reads):
            value = yield from client.read(tx, oid, last=(i == last))
            values.append(value)
        return values
    data = payload(tx.tid)
    last = len(plan.writes) - 1
    piggyback = not plan.cset_adds
    for i, oid in enumerate(plan.writes):
        yield from client.write(tx, oid, data, last=piggyback and i == last)
    if not piggyback:
        for oid in plan.cset_adds:
            yield from client.set_add(tx, oid, tx.tid)
        yield from client.commit(tx)
    return values


@dataclass
class Workload:
    """A closed-loop workload: ``clients_per_site`` clients at every
    (logical) site each start their next transaction when the previous
    one returns.  Times are simulated seconds."""

    name: str
    n_keys: int
    csets_per_site: int
    clients_per_site: int
    warmup: float
    measure: float
    settle: float
    #: Builds the ``Deployment`` arguments that define the workload
    #: (fresh objects for every deployment).
    deployment_args: Callable[[], dict] = dict

    def deployment(self, seed: int) -> Deployment:
        return Deployment(seed=seed, **self.deployment_args())

    def populate(self, world: Deployment) -> Keyspace:
        """One container per logical site, preferred there; keys minted
        round-robin across the containers and preloaded with tagged
        values.  Csets start empty (nil)."""
        sites = range(world.n_sites)
        containers = {
            site: world.create_container("pb-%s-s%d" % (self.name, site), preferred_site=site)
            for site in sites
        }
        keys: List[ObjectId] = []
        by_site: Dict[int, List[ObjectId]] = {site: [] for site in sites}
        for i in range(self.n_keys):
            site = i % world.n_sites
            oid = containers[site].new_id()
            keys.append(oid)
            by_site[site].append(oid)
        preload_tag = {oid: "%s%d" % (PRELOAD_PREFIX, i) for i, oid in enumerate(keys)}
        world.preload({oid: payload(tag) for oid, tag in preload_tag.items()})
        csets_by_site = {
            site: [containers[site].new_id(ObjectKind.CSET) for _ in range(self.csets_per_site)]
            for site in sites
        }
        return Keyspace(
            {c.id: c for c in containers.values()}, keys, by_site, csets_by_site, preload_tag
        )

    def plan(self, rng: random.Random, site: int, keys: Keyspace) -> Plan:
        raise NotImplementedError


class Fig17Mixed(Workload):
    """90% read-only 1-object transactions over the whole keyspace, 10%
    5-object write transactions at the local preferred site."""

    def plan(self, rng, site, keys):
        if rng.random() < 0.9:
            return Plan(reads=(rng.choice(keys.keys),))
        return Plan(writes=tuple(rng.sample(keys.by_site[site], 5)))


class WriteFanout8(Workload):
    """1-object fast commits at the local preferred site; one transaction
    in twenty is a 1-object local read, so read latency is defined."""

    def plan(self, rng, site, keys):
        if rng.random() < 0.05:
            return Plan(reads=(rng.choice(keys.by_site[site]),))
        return Plan(writes=(rng.choice(keys.by_site[site]),))


class Partial2PC(Workload):
    """Half read-only 2-object reads over the whole keyspace (mostly not
    replicated at the client's site); half 2-object writes whose
    preferred logical sites differ (slow 2PC commit) plus one ``set_add``
    on a cset preferred at another logical site."""

    def plan(self, rng, site, keys):
        if rng.random() < 0.5:
            return Plan(reads=tuple(rng.sample(keys.keys, 2)))
        first, second = rng.sample(sorted(keys.by_site), 2)
        writes = (rng.choice(keys.by_site[first]), rng.choice(keys.by_site[second]))
        others = [s for s in sorted(keys.csets_by_site) if s != site]
        cset = rng.choice(keys.csets_by_site[rng.choice(others)])
        return Plan(writes=writes, cset_adds=(cset,))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Fig17Mixed(
            name="fig17_mixed",
            n_keys=4000,
            csets_per_site=0,
            clients_per_site=16,
            warmup=0.3,
            measure=0.5,
            settle=2.0,
            deployment_args=lambda: dict(
                n_sites=4, costs=walter_costs("ec2"), flush_latency=FLUSH_EC2
            ),
        ),
        WriteFanout8(
            name="write_fanout8",
            n_keys=2000,
            csets_per_site=0,
            clients_per_site=4,
            warmup=0.4,
            measure=0.6,
            settle=2.0,
            deployment_args=lambda: dict(n_sites=8, topology=Topology.uniform(8, rtt_ms=80)),
        ),
        Partial2PC(
            name="partial_2pc",
            n_keys=20000,
            csets_per_site=4,
            clients_per_site=32,
            warmup=0.5,
            measure=5.0,
            settle=3.0,
            deployment_args=lambda: dict(
                n_sites=4,
                costs=walter_costs("ec2"),
                flush_latency=FLUSH_EC2,
                shards=2,
                replication=2,
            ),
        ),
    )
}
