#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the program under test).

    python3 perfbench/selftest.py

1. Determinism: a shrunk episode of every workload runs in two fresh
   processes with different hash seeds; the simulated digest, simulated
   end-to-end metrics and per-layer counts must be identical.
2. Non-interference: the same episode with the layer probe installed
   must produce the identical digest and metrics.
3. Non-vacuous check: the correctness check passes on a real episode and
   fails when its expectation is tampered with -- one acknowledged
   ``set_add`` dropped, or one final value declared unwritten.

Exits 0 when all pass.  Takes about ten seconds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: Shrunk workload sizes: same shapes, a fraction of the load and time.
SHRINK = dict(clients_per_site=2, warmup=0.2, measure=0.3, settle=2.0)


def shrunk(name: str):
    from workloads import WORKLOADS

    return dataclasses.replace(WORKLOADS[name], **SHRINK)


def episode_summary(name: str, seed: int, traced: bool) -> dict:
    from episode import Episode
    from layers import LayerProbe
    from metrics import simulated, simulated_counts

    probe = LayerProbe() if traced else None
    if probe is not None:
        probe.install()
    try:
        ep = Episode(shrunk(name), seed, probe)
        ep.setup()
        ep.run()
        ep.settle()
    finally:
        if probe is not None:
            probe.remove()
    return {"digest": ep.digest(), "simulated": simulated(ep), "counts": simulated_counts(ep)}


def in_fresh_process(name: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--episode", name, str(seed)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_determinism(failures: list) -> None:
    from workloads import WORKLOADS

    for name in WORKLOADS:
        first = in_fresh_process(name, 7, "1")
        second = in_fresh_process(name, 7, "2")
        if first != second:
            failures.append("%s: two processes of seed 7 disagree" % name)
        traced = episode_summary(name, 7, traced=True)
        if traced != first:
            failures.append("%s: the layer probe changed the simulated outputs" % name)
        print("determinism %s: digest %s" % (name, first["digest"][:16]))


def test_check_not_vacuous(failures: list) -> None:
    from check import check, tamper_checks
    from episode import run_episode

    ep = run_episode(shrunk("partial_2pc"), 3, check=True)
    expected = ep.expected()
    problems = check(ep.observation, expected)
    if problems:
        failures.append("check failed on an honest episode: %s" % problems[:3])
    if not any(expected.csets.values()):
        failures.append("the episode added no cset element; the set_add tampering was not exercised")
    missed = tamper_checks(ep.observation, expected)
    failures.extend("tampering undetected: %s" % m for m in missed)
    print("check: %d problems on the honest episode, %d tamperings missed" % (len(problems), len(missed)))


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    if sys.argv[1:2] == ["--episode"]:
        print(json.dumps(episode_summary(sys.argv[2], int(sys.argv[3]), traced=False), sort_keys=True))
        return 0
    failures: list = []
    test_determinism(failures)
    test_check_not_vacuous(failures)
    for failure in failures:
        print("FAIL: %s" % failure)
    print("selftest: %s" % ("ok" if not failures else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
