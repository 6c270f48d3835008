"""RPC layer between simulated hosts.

Walter clients talk to their local server via remote procedure calls
(paper §5.1), and servers talk to each other both via RPCs (the slow
commit's prepare/abort) and via one-way protocol messages (PROPAGATE,
DS-DURABLE, VISIBLE -- Fig 13).  Both styles are provided here.

:class:`Host` is the base class for every networked component.  Subclasses
expose RPC methods named ``rpc_<method>`` and one-way handlers named
``on_<method>``; handlers may be plain functions or generators (which may
block on simulated I/O).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import GeneratorType
from typing import Any, Dict, Optional

import heapq

from ..sim import Event, Interrupt, Kernel, Waitable
from .network import Network


class _ReplyOrTimeout(Waitable):
    """``AnyOf([reply_event, Timeout(delay)])`` specialized for the RPC
    wait-for-reply race.

    Behaviourally identical to the generic combinator -- the yield value
    is ``(0, reply)`` or ``(1, None)``, and the subscription order (event
    first, then the timer) consumes kernel sequence numbers exactly as
    ``AnyOf`` would -- but avoids its per-call closure factories, child
    list, and Timeout allocation.  ``call`` runs once per RPC, which makes
    this one of the hottest allocation sites in the simulator.
    """

    __slots__ = ("event", "delay", "_callback", "_settled")

    def __init__(self, event: Event, delay: float):
        self.event = event
        self.delay = delay

    def _subscribe(self, kernel: Kernel, callback) -> None:
        self._callback = callback
        self._settled = False
        self.event._subscribe(kernel, self._on_reply)
        kernel._seq += 1
        heapq.heappush(
            kernel._heap,
            (kernel.now + self.delay, kernel._seq, self._on_timeout, (None, None)),
        )

    def _on_reply(self, value, exc) -> None:
        if self._settled:
            return
        self._settled = True
        if exc is not None:
            self._callback(None, exc)
        else:
            self._callback((0, value), None)

    def _on_timeout(self, value, exc) -> None:
        if self._settled:
            return
        self._settled = True
        self._callback((1, value), None)


class RpcError(Exception):
    """Base class for RPC failures."""


class RpcTimeout(RpcError):
    """The reply did not arrive within the caller's deadline."""


class RpcRemoteError(RpcError):
    """The remote handler raised; carries the remote error string."""


@dataclass(slots=True)
class RpcRequest:
    rpc_id: int
    method: str
    args: Dict[str, Any]
    reply_to: str
    #: Deep-tracing span context: ``(tid, parent_seq)`` linking the
    #: handler's spans back to the caller's span graph, or None.
    span: Optional[tuple] = None

    def __reduce__(self):
        # Constructor-args reduce (as on the core value classes, which
        # checkpoints deep-copy): a copied or pickled message is rebuilt
        # through the constructor instead of the slot-state default.
        return (RpcRequest, (self.rpc_id, self.method, self.args, self.reply_to, self.span))


@dataclass(slots=True)
class RpcReply:
    rpc_id: int
    value: Any = None
    error: Optional[str] = None

    def __reduce__(self):
        return (RpcReply, (self.rpc_id, self.value, self.error))


@dataclass(slots=True)
class Cast:
    """A one-way protocol message (no reply)."""

    method: str
    args: Dict[str, Any] = field(default_factory=dict)
    src: str = ""

    def __reduce__(self):
        return (Cast, (self.method, self.args, self.src))


class Host:
    """A networked component: mailbox, dispatch loop, RPC client+server."""

    #: Default request/reply sizes in bytes when the caller does not say.
    DEFAULT_MSG_BYTES = 256

    def __init__(self, kernel: Kernel, network: Network, site, name: str, takeover: bool = False):
        self.kernel = kernel
        self.network = network
        self.site = network.topology.site(site)
        self.address = name
        self.mailbox = network.register(name, self.site, takeover=takeover)
        self._pending: Dict[int, Event] = {}
        self._next_rpc_id = 0
        self._running = False
        self._loop = None
        self._children: list = []
        # Dead children are pruned when the list reaches this size; the
        # threshold then doubles with the surviving count so pruning is
        # amortized O(1) per spawn (it is count-based, so deterministic).
        self._prune_at = 32
        # getattr(self, "rpc_..."/"on_...") resolved once per method name.
        self._rpc_handlers: Dict[str, Any] = {}
        self._cast_handlers: Dict[str, Any] = {}
        #: Fault-injection hook: RPC method -> sim time until which this
        #: host's *replies* to that method are suppressed (the request IS
        #: processed -- models a reply lost on the wire after the handler
        #: ran, e.g. a prepare that locked but whose YES never arrived).
        self._drop_reply_until: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._loop = self.kernel.spawn(self._dispatch_loop(), name="dispatch:%s" % self.address)

    def stop(self) -> None:
        """Stop dispatching (used to model a host crash at the app level)."""
        self._running = False
        if self._loop is not None and not self._loop.done:
            self._loop.interrupt("stopped")
        for event in self._pending.values():
            if not event.triggered:
                event.fail(RpcTimeout("host %s stopped" % self.address))
        self._pending.clear()

    def crash(self) -> None:
        """Crash this host: stop dispatching, drop network traffic, and
        kill in-flight handler processes.  A crashed OS process does not
        keep executing, so work forked off the dispatch loop must not
        either -- only effects already handed to durable storage or the
        network survive the crash."""
        self.network.crash_host(self.address)
        self.stop()
        children, self._children = self._children, []
        for proc in children:
            proc.interrupt("crashed")

    def spawn_child(self, gen, name: str = ""):
        """Spawn a process that dies with this host (see :meth:`crash`).

        The process absorbs the :class:`~repro.sim.Interrupt` a crash
        throws (``absorb_interrupt``), so killed handlers never surface
        as orphan failures."""
        if len(self._children) >= self._prune_at:
            self._children = [p for p in self._children if not p.done]
            self._prune_at = max(32, 2 * len(self._children))
        proc = self.kernel.spawn(gen, name=name, absorb_interrupt=True)
        self._children.append(proc)
        return proc

    def _dispatch_loop(self):
        mailbox_get = self.mailbox.get
        try:
            while self._running:
                message = yield mailbox_get()
                payload = message.payload
                # Exact-type dispatch: the three payload classes are final
                # (slotted dataclasses, never subclassed), and an identity
                # check is the cheapest test on this per-message path.
                cls = payload.__class__
                if cls is RpcRequest:
                    self.spawn_child(
                        self._serve(payload),
                        name=("serve:%s.%s", (self.address, payload.method)),
                    )
                elif cls is RpcReply:
                    event = self._pending.pop(payload.rpc_id, None)
                    if event is not None and not event.triggered:
                        if payload.error is not None:
                            event.fail(RpcRemoteError(payload.error))
                        else:
                            event.trigger(payload.value)
                elif cls is Cast:
                    method = payload.method
                    handler = self._cast_handlers.get(method)
                    if handler is None:
                        handler = getattr(self, "on_" + method, None)
                        if handler is None:
                            raise RpcError(
                                "%s has no handler on_%s" % (self.address, method)
                            )
                        self._cast_handlers[method] = handler
                    result = handler(payload.src, **payload.args)
                    if type(result) is GeneratorType:
                        self.spawn_child(
                            result, name=("on:%s.%s", (self.address, method))
                        )
                else:
                    raise RpcError("unexpected payload %r" % (payload,))
        except Interrupt:
            return

    def _serve(self, request: RpcRequest):
        if request.span is not None:
            self._on_rpc_span(request.method, request.span)
        try:
            handler = self._rpc_handlers[request.method]
        except KeyError:
            handler = getattr(self, "rpc_" + request.method, None)
            if handler is not None:
                self._rpc_handlers[request.method] = handler
        reply = RpcReply(rpc_id=request.rpc_id)
        if handler is None:
            reply.error = "no such method %r on %s" % (request.method, self.address)
        else:
            try:
                result = handler(**request.args)
                if type(result) is GeneratorType:
                    result = yield from result
                reply.value = result
            except Exception as exc:  # noqa: BLE001 - shipped to caller
                reply.error = "%s: %s" % (type(exc).__name__, exc)
        if self._drop_reply_until:
            until = self._drop_reply_until.get(request.method)
            if until is not None:
                if self.kernel.now < until:
                    self._reply_dropped(request.method)
                    return
                del self._drop_reply_until[request.method]
        self.network.send(
            self.address, request.reply_to, reply, size_bytes=self.DEFAULT_MSG_BYTES
        )

    def _on_rpc_span(self, method: str, span_ctx: tuple) -> None:
        """Observability hook: a request carrying span context arrived.
        Hosts with a tracer override this to record the receive edge."""

    def drop_replies(self, method: str, duration: float) -> None:
        """Suppress replies to ``method`` for ``duration`` sim-seconds
        (chaos fault injection; requests are still fully processed)."""
        self._drop_reply_until[method] = self.kernel.now + duration

    def _reply_dropped(self, method: str) -> None:
        """Observability hook; subclasses may count dropped replies."""

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def call(
        self,
        dst: str,
        method: str,
        size_bytes: Optional[int] = None,
        timeout: Optional[float] = None,
        span: Optional[tuple] = None,
        **args,
    ):
        """Generator: invoke ``method`` on host ``dst`` and return the value.

        Use as ``value = yield from self.call(dst, "prepare", ...)``.
        Raises :class:`RpcTimeout` if no reply arrives within ``timeout``
        simulated seconds, and :class:`RpcRemoteError` if the remote handler
        raised.
        """
        self._next_rpc_id += 1
        rpc_id = self._next_rpc_id
        event = Event(self.kernel, ("rpc:%s->%s.%s", (self.address, dst, method)))
        self._pending[rpc_id] = event
        request = RpcRequest(
            rpc_id=rpc_id, method=method, args=args, reply_to=self.address, span=span
        )
        self.network.send(
            self.address, dst, request, size_bytes=size_bytes or self.DEFAULT_MSG_BYTES
        )
        if timeout is None:
            value = yield event
            return value
        index, value = yield _ReplyOrTimeout(event, timeout)
        if index == 1:
            self._pending.pop(rpc_id, None)
            raise RpcTimeout(
                "rpc %s.%s from %s timed out after %gs" % (dst, method, self.address, timeout)
            )
        return value

    def cast(self, dst: str, method: str, size_bytes: Optional[int] = None, **args) -> None:
        """Fire-and-forget protocol message to ``dst``."""
        self.network.send(
            self.address,
            dst,
            Cast(method=method, args=args, src=self.address),
            size_bytes=size_bytes or self.DEFAULT_MSG_BYTES,
        )
