"""Wall-clock speed of the simulation substrate (not a paper figure).

Measures how fast the simulator itself runs -- wall-clock seconds and
kernel events per second -- on fixed workloads (see
``repro.bench.wallclock``): the Fig 17 mixed-throughput cell (untraced
and deep-traced, whose within-run ratio gates tracing overhead), the
chaos seed-corpus replay (which also asserts byte-identical verdicts),
and an 8-site write-scaling run.  Results are recorded in
``BENCH_wallclock.json`` at the repo root so the perf trajectory is
tracked across PRs.

Usage::

    # run and print (no file written)
    PYTHONPATH=src python benchmarks/bench_wallclock.py [--small]

    # record results under a label (baseline | optimized)
    PYTHONPATH=src python benchmarks/bench_wallclock.py \\
        --write BENCH_wallclock.json --label optimized

    # CI regression gate: fail if events/sec drops > tolerance vs the
    # committed "optimized" numbers
    PYTHONPATH=src python benchmarks/bench_wallclock.py \\
        --check BENCH_wallclock.json --tolerance 0.20 --small
"""

import argparse
import json
import os
import platform
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.wallclock import SCENARIOS, run_scenarios  # noqa: E402


def _print_table(results):
    print("%-22s %10s %12s %14s  %s" % ("scenario", "wall s", "events", "events/s", "sim"))
    for name, out in results.items():
        print(
            "%-22s %10.3f %12d %14.1f  %s"
            % (name, out["wall_s"], out["events"], out["events_per_s"], out["sim"])
        )


def _load(path):
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    return {}


def _speedups(doc):
    base = doc.get("baseline", {}).get("scenarios", {})
    opt = doc.get("optimized", {}).get("scenarios", {})
    speedup = {}
    for name in base:
        if name in opt and opt[name]["wall_s"] > 0:
            speedup[name] = round(base[name]["wall_s"] / opt[name]["wall_s"], 2)
    return speedup


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--small", action="store_true", help="CI-sized workloads")
    parser.add_argument(
        "--scenario", action="append", choices=sorted(SCENARIOS), default=None,
        help="run only this scenario (repeatable)",
    )
    parser.add_argument("--write", metavar="PATH", help="record results into PATH")
    parser.add_argument(
        "--label", default="optimized", choices=["baseline", "optimized"],
        help="which label to record under (with --write)",
    )
    parser.add_argument(
        "--check", metavar="PATH",
        help="compare events/sec against PATH's 'optimized' numbers; "
        "exit non-zero on regression beyond --tolerance",
    )
    parser.add_argument("--tolerance", type=float, default=0.20)
    parser.add_argument(
        "--trace-overhead-max", type=float, default=0.20,
        help="max fractional events/sec drop of fig17_traced vs "
        "fig17_throughput in this invocation (relative, so it holds on "
        "any machine); exit non-zero beyond it",
    )
    parser.add_argument(
        "--repeats", type=int, default=4,
        help="repetitions per scenario; wall_s is the median, and every "
        "repeat must execute the identical simulated schedule",
    )
    parser.add_argument(
        "--shard-speedup-min", type=float, default=2.0,
        help="with shard_scaling selected: fail unless aggregate "
        "simulated throughput at 4 shards/site is >= this multiple of "
        "the 1-shard run (a simulated-schedule property, so it holds on "
        "any machine)",
    )
    parser.add_argument(
        "--batching-speedup-min", type=float, default=None,
        help="with eight_site_batching_ab selected: fail unless the "
        "batched arm's wall-clock speedup over the unbatched arm (same "
        "invocation, interleaved A/B) is >= this",
    )
    args = parser.parse_args(argv)

    results = run_scenarios(args.scenario, small=args.small, repeats=args.repeats)
    _print_table(results)

    status = 0
    # Tracing-overhead gate: both fig17 variants run the same simulated
    # schedule, so their events/sec ratio within this run is the cost of
    # deep tracing alone.
    if "fig17_throughput" in results and "fig17_traced" in results:
        plain = results["fig17_throughput"]["events_per_s"]
        traced = results["fig17_traced"]["events_per_s"]
        overhead = 1.0 - traced / plain
        verdict = "ok" if overhead <= args.trace_overhead_max else "REGRESSED"
        print(
            "tracing overhead: %.1f%% events/s drop (max %.0f%%) %s"
            % (overhead * 100.0, args.trace_overhead_max * 100.0, verdict)
        )
        if overhead > args.trace_overhead_max:
            status = 1
    # Shard-scaling gate: per-shard servers bring their own cores and WAL
    # devices, so aggregate simulated throughput must scale with shards.
    if "shard_scaling" in results:
        speedup = results["shard_scaling"]["sim"]["speedup"]
        verdict = "ok" if speedup >= args.shard_speedup_min else "REGRESSED"
        print(
            "shard scaling: %.2fx aggregate throughput at 4 shards/site "
            "(min %.1fx) %s" % (speedup, args.shard_speedup_min, verdict)
        )
        if speedup < args.shard_speedup_min:
            status = 1
    # Batching A/B gate: both arms run in one invocation (interleaved),
    # so the wall ratio is machine-independent up to co-tenant noise that
    # hits both arms alike.  The simulated-throughput columns of the
    # fig17/shard A/B scenarios are schedule properties and must not
    # regress below parity.
    if "eight_site_batching_ab" in results:
        sim = results["eight_site_batching_ab"]["sim"]
        speedup = round(sim["wall_off_s"] / sim["wall_on_s"], 2)
        required = args.batching_speedup_min
        verdict = "ok" if required is None or speedup >= required else "REGRESSED"
        print(
            "batching A/B: %.2fx wall-clock speedup (off %.2fs / on %.2fs)%s %s"
            % (
                speedup,
                sim["wall_off_s"],
                sim["wall_on_s"],
                "" if required is None else " (min %.2fx)" % required,
                verdict,
            )
        )
        if required is not None and speedup < required:
            status = 1
    # Committed throughput is CPU/WAL-latency-bound under PSI (clients
    # never wait on propagation), so Ktps gates parity (within 2%); the
    # bandwidth batching frees from the cross-site pipes must be a real
    # gain (>= 2% fewer bytes on --small runs; full-size runs reach
    # ~1.2x) -- both are simulated-schedule properties, so they hold on
    # any machine.
    for ab in ("fig17_batching_ab", "shard_batching_ab"):
        if ab in results:
            sim = results[ab]["sim"]
            ok = sim["ktps_gain"] >= 0.98 and sim["bytes_gain"] >= 1.02
            print(
                "%s: simulated ktps %.3f -> %.3f (%.3fx, parity floor 0.98), "
                "cross-site bytes %d -> %d (%.2fx saved, floor 1.02) %s"
                % (
                    ab,
                    sim["ktps_off"],
                    sim["ktps_on"],
                    sim["ktps_gain"],
                    sim["bytes_off"],
                    sim["bytes_on"],
                    sim["bytes_gain"],
                    "ok" if ok else "REGRESSED",
                )
            )
            if not ok:
                status = 1
    if args.check:
        doc = _load(args.check)
        ref = doc.get("optimized", {}).get("scenarios", {})
        for name, out in results.items():
            if name not in ref:
                print("check: %s has no committed numbers, skipping" % name)
                continue
            committed = ref[name]["events_per_s"]
            floor = committed * (1.0 - args.tolerance)
            verdict = "ok" if out["events_per_s"] >= floor else "REGRESSED"
            print(
                "check: %-22s %14.1f ev/s vs committed %14.1f (floor %14.1f) %s"
                % (name, out["events_per_s"], committed, floor, verdict)
            )
            if out["events_per_s"] < floor:
                status = 1

    if args.write:
        doc = _load(args.write)
        merged = dict(doc.get(args.label, {}).get("scenarios", {}))
        merged.update(results)
        doc[args.label] = {
            "scenarios": merged,
            "small": args.small,
            "python": platform.python_version(),
        }
        speedup = _speedups(doc)
        if speedup:
            doc["speedup_wall_clock"] = speedup
        with open(args.write, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote %s (label=%s)" % (args.write, args.label))
        if speedup:
            print("wall-clock speedup vs baseline: %s" % speedup)

    return status


if __name__ == "__main__":
    sys.exit(main())
