"""Outside-in correctness check of one episode.

After the load stops and the world settles, every object is read back
at every replica through the public client API (:class:`Observed`) and
compared with what the acknowledged transactions imply
(:class:`Expected`):

* every cset, at every replica, holds exactly the elements that
  acknowledged (committed) transactions added, each once;
* every regular object reads the same value at all of its replicas, and
  that value was written by an acknowledged transaction (the preloaded
  value if none wrote it);
* no read ever returned a value written by an aborted transaction;
* every acknowledged update fired its ``ds_event`` and ``visible_event``.

:func:`check` is a pure function of the two records, so a tampered
expectation can be fed to it to show it is not vacuous
(:func:`tamper_checks`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Set


@dataclass
class Observed:
    #: (site, oid) -> writer tag of the value read at that replica.
    regular: Dict
    #: (site, oid) -> {element: count} read at that replica.
    csets: Dict
    #: Writer tags of every value a load transaction read.
    read_tags: Set[str] = field(default_factory=set)


@dataclass
class Expected:
    #: oid -> writer tags the final value may carry.
    regular: Dict
    #: cset oid -> {element: count} added by acknowledged transactions.
    csets: Dict
    #: oid -> replica sites.
    replicas: Dict
    #: Tids of aborted attempts: their writes must never be visible.
    aborted_tids: Set[str]
    #: Acknowledged updates whose DS-durable/visible events never fired.
    unnotified: List[str]


def check(observed: Observed, expected: Expected, limit: int = 10) -> List[str]:
    """Every violation found (at most ``limit`` listed per kind)."""
    problems: List[str] = []

    def report(kind: List[str]) -> None:
        problems.extend(kind[:limit])
        if len(kind) > limit:
            problems.append("... %d more" % (len(kind) - limit))

    diverged, foreign = [], []
    for oid, allowed in expected.regular.items():
        values = {site: observed.regular.get((site, oid), "<missing>") for site in expected.replicas[oid]}
        if len(set(values.values())) != 1:
            diverged.append("%s diverged across replicas: %r" % (oid, values))
            continue
        value = next(iter(values.values()))
        if value not in allowed:
            foreign.append("%s holds %r, not written by an acknowledged transaction" % (oid, value))
    report(diverged)
    report(foreign)

    wrong_sets = []
    for oid, added in expected.csets.items():
        for site in expected.replicas[oid]:
            got = observed.csets.get((site, oid))
            if got is None:
                wrong_sets.append("cset %s was not read back at site %d" % (oid, site))
            elif got != added:
                missing = sorted(set(added.items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(added.items()))
                wrong_sets.append(
                    "cset %s at site %d: %d acknowledged adds missing (e.g. %s), %d unexpected (e.g. %s)"
                    % (oid, site, len(missing), missing[:2], len(extra), extra[:2])
                )
    report(wrong_sets)

    dirty = sorted(observed.read_tags & expected.aborted_tids)
    report(["a read returned a value of aborted transaction %s" % tid for tid in dirty])
    report(["acknowledged update %s never became DS-durable and visible" % tid for tid in expected.unnotified])
    return problems


def tamper_checks(observed: Observed, expected: Expected) -> List[str]:
    """Feed :func:`check` expectations that are wrong in one place and
    return a line for every tampering it failed to detect (empty means
    the check is not vacuous).  Two tamperings: one acknowledged
    ``set_add`` dropped (when the workload adds to csets), and one
    object whose observed final value is declared unwritten."""
    missed = []
    added = [oid for oid, elems in expected.csets.items() if elems]
    if added:
        oid = added[0]
        elems = dict(expected.csets[oid])
        del elems[min(elems)]
        bad = replace(expected, csets={**expected.csets, oid: elems})
        if not check(observed, bad):
            missed.append("dropping a set_add on %s went undetected" % oid)
    if expected.regular:
        oid = next(iter(expected.regular))
        final = observed.regular.get((expected.replicas[oid][0], oid))
        bad = replace(expected, regular={**expected.regular, oid: expected.regular[oid] - {final}})
        if not check(observed, bad):
            missed.append("an unacknowledged final value on %s went undetected" % oid)
    return missed
