"""Outside-in per-layer host timing for the traced run.

:class:`LayerProbe` installs class-attribute wrappers on the program's
public entry points, one layer per group below, and restores the
originals on :meth:`LayerProbe.remove`.  A wrapper never changes what a
call does: plain functions return their result, and generator functions
(RPC and cast handlers, client operations) stay generators that yield
exactly the waitables the original yields, so the simulated schedule is
unchanged -- the benchmark asserts that by comparing digests.

A generator is timed one resumption at a time.  Every timed stretch
pushes a frame on a nesting stack, so a layer's *self* time is its
duration minus the part covered by nested wrapped calls.  Time inside
``Kernel.run`` outside every wrapped call is the simulator's own
dispatch (``sim``).  Wrappers only record while the probe is armed,
which the episode does around the timed closed loop.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter
from types import GeneratorType
from typing import Dict, List, Tuple

from repro.client import WalterClient
from repro.core.history import SiteHistories
from repro.net import Host, Network
from repro.net import wire
from repro.obs.metrics import Counter as MetricCounter
from repro.obs.metrics import Gauge, Histogram
from repro.server import WalterServer
from repro.server.server import ServerStats
from repro.storage.disklog import DiskLog

#: layer -> (class, method names).  Names a class lacks are skipped, so
#: the probe keeps working when a later change removes an entry point.
TIMED: Dict[str, List[Tuple[type, Tuple[str, ...]]]] = {
    "net.send": [(Network, ("send",))],
    "storage.wal_append": [(DiskLog, ("append",))],
    "core.read": [(SiteHistories, ("read_regular",))],
    "core.cset_read": [(SiteHistories, ("read_cset",))],
    "core.apply": [(SiteHistories, ("apply",))],
    "core.gc": [(SiteHistories, ("gc",))],
    "exec.read": [
        (WalterServer, ("rpc_tx_read", "rpc_tx_set_read", "rpc_tx_set_read_id", "rpc_tx_multiread"))
    ],
    "exec.write": [
        (WalterServer, ("rpc_tx_write", "rpc_tx_set_add", "rpc_tx_set_del", "rpc_tx_multiwrite"))
    ],
    "exec.remote_read": [(WalterServer, ("rpc_remote_read", "rpc_remote_multiread"))],
    "commit.fast": [(WalterServer, ("rpc_tx_commit",))],
    "commit.prepare": [
        (
            WalterServer,
            ("rpc_prepare", "rpc_release_prepare", "on_release_prepare", "rpc_tx_decision"),
        )
    ],
    "prop.recv": [
        (
            WalterServer,
            (
                "on_propagate",
                "on_propagate_batch",
                "on_propagate_ack",
                "on_propagate_ack_batch",
                "on_ds_durable",
                "on_ds_durable_batch",
                "on_visible_ack",
                "on_visible_ack_batch",
            ),
        )
    ],
    "server.gc": [(WalterServer, ("gc_histories",))],
    "server.sweep": [(WalterServer, ("lease_sweep",))],
    "client": [
        (
            WalterClient,
            (
                "start_tx",
                "begin",
                "commit",
                "abort",
                "read",
                "write",
                "set_add",
                "set_del",
                "set_read",
                "set_read_id",
                "multiread",
                "multiwrite",
                "read_cset_objects",
                "on_tx_ds_durable",
                "on_tx_visible",
            ),
        )
    ],
    "obs": [
        (MetricCounter, ("inc", "set")),
        (Gauge, ("set",)),
        (Histogram, ("observe",)),
        (ServerStats, ("inc",)),
    ],
}

#: Module-level wire functions, timed where the program imported them.
WIRE_FUNCTIONS = ("encode_propagation_batch", "decode_propagation_batch", "ack_batch_bytes")

#: count name -> (class, method names): calls counted, not timed.
COUNTED: Dict[str, List[Tuple[type, Tuple[str, ...]]]] = {
    "net.rpc": [(Host, ("call",))],
    "net.cast": [(Host, ("cast",))],
    "exec.remote_read": [(WalterServer, ("rpc_remote_read", "rpc_remote_multiread"))],
    "commit.prepare": [(WalterServer, ("rpc_prepare",))],
}


class LayerProbe:
    """Per-layer self time (host seconds) and call counts."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Host seconds covered by outermost wrapped calls.
        self.wrapped_s = 0.0
        self.armed = False
        self._stack: List[list] = []
        self._saved: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    # Install / remove
    # ------------------------------------------------------------------
    def install(self) -> None:
        for layer, targets in TIMED.items():
            for cls, names in targets:
                for name in names:
                    self._patch(cls, name, self._timed(layer))
        for count, targets in COUNTED.items():
            for cls, names in targets:
                for name in names:
                    self._patch(cls, name, self._counted(count))
        originals = {name: getattr(wire, name, None) for name in WIRE_FUNCTIONS}
        for module in [m for n, m in sorted(sys.modules.items()) if n.startswith("repro.")]:
            for name, function in originals.items():
                if function is not None and getattr(module, name, None) is function:
                    self._patch(module, name, self._timed("net.wire"))

    def remove(self) -> None:
        while self._saved:
            owner, name, original, owned = self._saved.pop()
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _patch(self, owner, name: str, make) -> None:
        original = getattr(owner, name, None)
        if original is None:
            return
        owned = name in vars(owner)
        if owned:
            original = vars(owner)[name]
        setattr(owner, name, make(original))
        self._saved.append((owner, name, original, owned))

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _timed(self, layer: str):
        probe = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if not probe.armed:
                    return fn(*args, **kwargs)
                frame = probe._enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    probe._exit(frame)
                if type(result) is GeneratorType:
                    return probe._timed_gen(result, layer)
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _counted(self, count: str):
        probe = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if probe.armed:
                    probe.calls[count] += 1
                return fn(*args, **kwargs)

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _timed_gen(self, gen, layer: str):
        """Drive ``gen`` one resumption at a time, timing each one; yields
        and returns exactly what ``gen`` does."""
        send = gen.send
        value = exc = None
        while True:
            frame = self._enter(layer) if self.armed else None
            try:
                target = send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                if frame is not None:
                    self._exit(frame)
            try:
                value, exc = (yield target), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # noqa: BLE001 - forwarded into gen
                value, exc = None, err

    def _enter(self, layer: str) -> list:
        frame = [layer, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        duration = perf_counter() - frame[1]
        self._stack.pop()
        self.self_s[frame[0]] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.wrapped_s += duration
