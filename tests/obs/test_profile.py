"""Unit tests for the space-saving sketch and the access profiler."""

import json
import os
import subprocess
import sys

from repro.core.objects import ObjectId
from repro.obs import AccessProfiler, SpaceSaving


class TestSpaceSaving:
    def test_exact_below_capacity(self):
        sketch = SpaceSaving(capacity=8)
        for _ in range(5):
            sketch.observe("a", "reads")
        for _ in range(3):
            sketch.observe("b", "writes")
        assert sketch.get("a") == {"key": "a", "count": 5, "error": 0, "reads": 5}
        assert sketch.get("b")["count"] == 3
        assert sketch.evictions == 0

    def test_heavy_hitter_survives_churn(self):
        sketch = SpaceSaving(capacity=4)
        for i in range(200):
            sketch.observe("hot")
            sketch.observe("cold-%d" % i)  # 200 one-off keys force churn
        assert len(sketch) == 4
        assert sketch.evictions > 0
        top = sketch.top(1)[0]
        assert top["key"] == "hot"
        # Space-saving guarantee: count overestimates by at most error,
        # and the true count is within [count - error, count].
        assert top["count"] - top["error"] <= 200 <= top["count"]

    def test_eviction_is_deterministic(self):
        def run():
            sketch = SpaceSaving(capacity=3)
            for key in ("a", "b", "a", "c", "d", "e", "a", "d", "f"):
                sketch.observe(key)
            return sketch.top()

        assert run() == run()

    def test_owner_split(self):
        sketch = SpaceSaving(capacity=4)
        sketch.observe("k", "reads", owner=True)
        sketch.observe("k", "writes", owner=False)
        entry = sketch.get("k")
        assert entry["owner_ops"] == 1
        assert entry["nonowner_ops"] == 1


class TestAccessProfiler:
    def test_container_counters(self):
        profiler = AccessProfiler(site=1)
        oid = ObjectId("c1", "x")
        other = ObjectId("c2", "y")
        profiler.record_read(oid, owner=True)
        profiler.record_write(oid, owner=False)
        profiler.record_conflict(oid)
        profiler.record_remote_apply(other)
        snap = profiler.as_dict()
        assert snap["site"] == 1
        assert snap["containers"]["c1"] == {
            "reads": 1, "writes": 1, "conflicts": 1, "remote_applies": 0,
            "owner_ops": 1, "nonowner_ops": 1,
        }
        assert snap["containers"]["c2"]["remote_applies"] == 1
        assert snap["observations"] == 4


_PROFILE_PROBE = r"""
import json
from repro.bench.workloads import fig18_write5_scenario
from repro.deployment import Deployment

world = Deployment(n_sites=3, seed=7)
fig18_write5_scenario(
    world, n_keys=300, clients_per_site=4, warmup=0.05, measure=0.1, settle=0.3
)
profile = world.metrics_snapshot()["access_profile"]
print(json.dumps(profile, sort_keys=True))
"""


def test_access_profile_independent_of_hashseed():
    """5-object write transactions overflow the hot-key sketch, so the
    order the commit and apply paths feed it decides which keys are
    evicted.  That order must come from the update buffer, not from a
    frozenset of oids whose iteration order follows the per-process
    string hash (PYTHONHASHSEED)."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    profiles = []
    for seed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _PROFILE_PROBE],
            capture_output=True, text=True, env=env, check=True,
        )
        profiles.append(out.stdout)
    assert all(p["evictions"] > 0 for p in json.loads(profiles[0]).values())
    assert profiles[1] == profiles[0]
    assert profiles[2] == profiles[0]
