"""Layer spans timed from outside the program.

:class:`Tracer` replaces public entry points of ``repro`` modules (class
methods and module-level names) with wrappers that time each call as a
span.  A span's *self time* is its duration minus the time its child spans
cover, so summing self time per layer says where a run's wall time went.
Every callback scheduled through the simulator's public API becomes a span
of the layer that owns the callback's code.

Nothing in ``src/`` changes: :meth:`Tracer.install` patches the entry
points and :meth:`Tracer.uninstall` restores the originals.  Links, hosts
and routers keep bound methods from construction time, so install before
any topology is built.

Spans are aggregated in memory per ``(parent, name)`` edge -- count, total
and self seconds -- instead of one record per span: the traced 16-party calls
run well over a million spans.  :meth:`Tracer.tree` returns the edges for
writing out when the benchmark ends.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Optional

__all__ = ["CALL_LAYERS", "CAMPAIGN_LAYERS", "SpanStat", "Tracer", "layer_of"]

#: Module prefixes that form a layer of their own at two levels
#: (``repro.net.link`` -> ``net.link``); other packages are one layer each
#: (``repro.cc.gcc`` -> ``cc``).
_TWO_LEVEL = ("net", "rtp", "core", "results", "barometer")

#: Entry-point groups: the call path and the campaign path.  The campaign
#: group is installed alone because pool workers fork from the traced
#: process, and call-layer wrappers would slow the cells they execute.
CALL_LAYERS = "call"
CAMPAIGN_LAYERS = "campaign"


def layer_of(module: Optional[str]) -> str:
    """The layer a module's code belongs to."""
    if not module or not module.startswith("repro."):
        return "other"
    parts = module.split(".")[1:]
    if parts[0] == "vca":
        return "vca.sfu" if parts[1:2] == ["sfu"] else "vca"
    if parts[0] == "netem":
        # The scenario compiler's own callbacks (queue sampling) are not
        # impairment work.
        return "netem.scenarios" if parts[1:2] == ["scenarios"] else "netem"
    if parts[0] in _TWO_LEVEL and len(parts) > 1:
        return f"{parts[0]}.{parts[1]}"
    return parts[0]


def _owner_module(callback: Callable[..., Any]) -> Optional[str]:
    while isinstance(callback, functools.partial):
        callback = callback.func
    return getattr(callback, "__module__", None)


def _arg_len(args: tuple) -> int:
    return len(args[1])


def _result_len(result: Any) -> int:
    return len(result) if result is not None else 0


class SpanStat:
    """Counters of one span name."""

    __slots__ = ("name", "layer", "calls", "outer_calls", "items", "total_s", "self_s")

    def __init__(self, name: str, layer: str) -> None:
        self.name = name
        self.layer = layer
        self.calls = 0
        #: Calls whose parent span belongs to another layer.
        self.outer_calls = 0
        #: Packets or frames handled by outer calls (batch length, result length).
        self.items = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Records spans around the entry points it installs."""

    def __init__(self) -> None:
        #: One ``[child_seconds, layer, name]`` frame per open span.
        self._stack: list[list[Any]] = []
        self.stats: dict[str, SpanStat] = {}
        self._edges: dict[tuple[str, str], list[float]] = {}
        #: Scheduled callbacks that ran inside a callback span.
        self.callbacks_run = 0
        #: Every ``Link`` constructed while installed.
        self.links: list[Any] = []
        self._callback_stats: dict[tuple[Optional[str], str], SpanStat] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording
    def stat(self, name: str, layer: str) -> SpanStat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = SpanStat(name, layer)
        return stat

    def _span(
        self,
        fn: Callable[..., Any],
        stat: SpanStat,
        arg_items: Optional[Callable[[tuple], int]] = None,
        result_items: Optional[Callable[[Any], int]] = None,
        event: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` wrapped so each call records one span into ``stat``."""
        stack = self._stack
        edges = self._edges
        layer = stat.layer
        name = stat.name
        clock = time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            outer = parent is None or parent[1] != layer
            if outer and arg_items is not None:
                stat.items += arg_items(args)
            frame = [0.0, layer, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - frame[0]
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += own
                key = (parent[2] if parent is not None else "", name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += own
                if parent is not None:
                    parent[0] += elapsed
                if event:
                    tracer.callbacks_run += 1
            if outer:
                stat.outer_calls += 1
                if result_items is not None:
                    stat.items += result_items(result)
            return result

        # Callbacks and handlers are attributed by module: a traced method
        # keeps its owner's.
        traced.__module__ = _owner_module(fn) or __name__
        traced.traced_span = True
        return traced

    def wrap_callback(
        self, callback: Callable[..., Any], kind: str = "callback", event: bool = True
    ) -> Callable[..., Any]:
        """``callback`` as a span named ``<layer>:<kind>``, where the layer is
        the one owning the callback's code.  ``event`` counts each run in
        :attr:`callbacks_run`."""
        module = _owner_module(callback)
        stat = self._callback_stats.get((module, kind))
        if stat is None:
            layer = layer_of(module)
            stat = self._callback_stats[(module, kind)] = self.stat(f"{layer}:{kind}", layer)
        return self._span(callback, stat, event=event)

    def wrap_handler(self, handler: Optional[Callable[..., Any]]) -> Optional[Callable[..., Any]]:
        """A packet handler registered on a host, as a span of its owner's
        layer; handlers that are already traced entry points stay as they are."""
        if handler is None or getattr(handler, "traced_span", False):
            return handler
        return self.wrap_callback(handler, kind="handler", event=False)

    # ------------------------------------------------------------- patching
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        arg_items: Optional[Callable[[tuple], int]] = None,
        result_items: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a class or module) with a spanned wrapper.

        Raises ``KeyError`` when ``owner`` does not define ``attr`` itself,
        so a renamed entry point fails the benchmark instead of going
        unmeasured.
        """
        original = owner.__dict__[attr]
        label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        stat = self.stat(f"{layer}:{label}", layer)
        self._patch(owner, attr, self._span(original, stat, arg_items, result_items))

    def install(self, group: str) -> None:
        """Wrap the entry points of one group (:data:`CALL_LAYERS` or
        :data:`CAMPAIGN_LAYERS`)."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            if group == CALL_LAYERS:
                self._install_call_layers()
            elif group == CAMPAIGN_LAYERS:
                self._install_campaign_layers()
            else:
                raise ValueError(f"unknown entry-point group {group!r}")
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every patched entry point (in reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install_call_layers(self) -> None:
        from repro.cc import fbra, gcc, loss_bwe, teams  # noqa: F401  (registers subclasses)
        from repro.cc.base import RateController
        from repro.core import capture
        from repro.media import encoder, simulcast, svc
        from repro.net import link, node, router, simulator
        from repro.netem import aqm, impairments, scenarios
        from repro.rtp import jitter, packetizer, session
        from repro.vca.sfu import node as sfu_node

        tracer = self
        sim_cls = simulator.Simulator
        call_at = sim_cls.__dict__["call_at"]
        call_in = sim_cls.__dict__["call_in"]
        every = sim_cls.__dict__["every"]

        def traced_call_at(sim, when, callback):
            return call_at(sim, when, tracer.wrap_callback(callback))

        def traced_call_in(sim, delay, callback):
            return call_in(sim, delay, tracer.wrap_callback(callback))

        def traced_every(sim, interval, callback, start=None, end=None):
            # The periodic task's own ``_fire`` is the scheduled event; the
            # user callback is a child span that is not counted again.
            return every(
                sim, interval, tracer.wrap_callback(callback, event=False), start, end
            )

        for attr, fn in (
            ("call_at", traced_call_at),
            ("call_in", traced_call_in),
            ("every", traced_every),
        ):
            stat = self.stat(f"net.simulator:Simulator.{attr}", "net.simulator")
            self._patch(sim_cls, attr, self._span(fn, stat))
        for attr in ("run", "schedule_at", "cancel_seq"):
            self.wrap(sim_cls, attr, "net.simulator")
        self.wrap(simulator.ScheduledEvent, "cancel", "net.simulator")

        link_init = link.Link.__dict__["__init__"]

        def traced_link_init(self_link, *args, **kwargs):
            link_init(self_link, *args, **kwargs)
            tracer.links.append(self_link)

        self._patch(link.Link, "__init__", traced_link_init)
        self.wrap(link.Link, "send", "net.link", arg_items=lambda args: 1)
        self.wrap(link.Link, "send_batch", "net.link", arg_items=_arg_len)
        self.wrap(link.Link, "set_rate", "net.link")

        self.wrap(router.Router, "receive", "net.router")
        self.wrap(router.Router, "receive_batch", "net.router")
        self.wrap(router.DelayPipe, "send", "net.router")
        self.wrap(router.DelayPipe, "send_batch", "net.router")
        self.wrap(router.DelayBus, "push", "net.router")
        self.wrap(router.SourceRoutedEgress, "send", "net.router")
        self.wrap(router.SourceRoutedEgress, "send_batch", "net.router")

        # Flow handlers run inside Host.receive(_batch); as spans of their
        # owners (applications, clients) their time leaves net.node.
        register_flow = node.Host.__dict__["register_flow"]
        set_default_handler = node.Host.__dict__["set_default_handler"]

        def traced_register_flow(host, flow_id, handler, batch_handler=None):
            register_flow(
                host, flow_id, tracer.wrap_handler(handler), tracer.wrap_handler(batch_handler)
            )

        def traced_set_default_handler(host, handler, batch_handler=None):
            set_default_handler(host, tracer.wrap_handler(handler), tracer.wrap_handler(batch_handler))

        self._patch(node.Host, "register_flow", traced_register_flow)
        self._patch(node.Host, "set_default_handler", traced_set_default_handler)
        self.wrap(node.Host, "send", "net.node", arg_items=lambda args: 1)
        self.wrap(node.Host, "receive", "net.node", arg_items=lambda args: 1)
        for attr in ("send_batch", "send_forwarded_batch", "receive_batch"):
            self.wrap(node.Host, attr, "net.node", arg_items=_arg_len)

        self.wrap(jitter.StreamReceiver, "on_packet", "rtp.jitter", arg_items=lambda args: 1)
        self.wrap(jitter.StreamReceiver, "on_packet_batch", "rtp.jitter", arg_items=_arg_len)
        self.wrap(jitter.StreamReceiver, "make_report", "rtp.jitter")
        self.wrap(packetizer.Packetizer, "packetize", "rtp.packetizer", result_items=_result_len)
        self.wrap(
            packetizer.Packetizer, "packetize_train", "rtp.packetizer", result_items=_result_len
        )
        self.wrap(session.RtpStreamSender, "apply_feedback", "rtp.session")

        controllers = [RateController]
        while controllers:
            cls = controllers.pop()
            controllers.extend(cls.__subclasses__())
            if "on_feedback" in cls.__dict__ and not getattr(
                cls.__dict__["on_feedback"], "__isabstractmethod__", False
            ):
                self.wrap(cls, "on_feedback", "cc")
        self.wrap(loss_bwe.LossBasedBwe, "update", "cc")

        for cls in (encoder.AdaptiveEncoder, simulcast.SimulcastEncoder, svc.SVCEncoder):
            self.wrap(cls, "frames_due", "media", result_items=_result_len)
            self.wrap(cls, "set_target_bitrate", "media")

        self.wrap(sfu_node.SfuNode, "on_packet", "vca.sfu")
        self.wrap(sfu_node.SfuNode, "on_packet_batch", "vca.sfu")
        self.wrap(sfu_node, "aggregate_reports", "vca.sfu")

        self.wrap(capture.FlowSeries, "add", "core.capture")
        # The per-packet tap inlines FlowSeries.add, so records are counted
        # at the tap itself.
        self.wrap(capture.PacketCapture, "_record", "core.capture", arg_items=lambda args: 1)
        self.wrap(scenarios.ScenarioRun, "metrics", "core.capture")
        # Topology build and call set-up: the root span of a call.
        self.wrap(scenarios, "run_scenario", "netem.scenarios")

        for cls in (impairments.IidLoss, impairments.GilbertElliottLoss, impairments.DelayJitter):
            self.wrap(cls, "sample", "netem")
        self.wrap(aqm.CoDelQueue, "should_drop", "netem")

    def _install_campaign_layers(self) -> None:
        from repro.barometer import campaign
        from repro.results import store

        # run_barometer_sweep calls run_campaign through its own namespace.
        self.wrap(campaign, "run_campaign", "core.campaign")
        self.wrap(campaign, "run_barometer_sweep", "barometer.campaign")
        # Items of a get are hits.
        self.wrap(
            store.ResultStore, "get", "results.store", result_items=lambda found: found is not None
        )
        self.wrap(store.ResultStore, "put", "results.store")

    # -------------------------------------------------------------- queries
    def reset(self) -> None:
        """Zero every counter, keeping the installed wrappers."""
        if self._stack:
            raise RuntimeError("cannot reset with spans open")
        for stat in self.stats.values():
            stat.calls = stat.outer_calls = stat.items = 0
            stat.total_s = stat.self_s = 0.0
        self._edges.clear()
        self.callbacks_run = 0
        self.links.clear()

    def layer(self, layer: str) -> list[SpanStat]:
        return [stat for stat in self.stats.values() if stat.layer == layer]

    def span(self, name: str) -> SpanStat:
        return self.stats.get(name) or SpanStat(name, name.split(":", 1)[0])

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer."""
        totals: dict[str, float] = {}
        for stat in self.stats.values():
            if stat.calls:
                totals[stat.layer] = totals.get(stat.layer, 0.0) + stat.self_s
        return totals

    def root_seconds(self) -> float:
        """Time covered by spans that had no parent span."""
        return sum(edge[1] for (parent, _), edge in self._edges.items() if not parent)

    def tree(self) -> list[dict[str, Any]]:
        """The aggregated span tree: one record per (parent, child) edge."""
        return [
            {"parent": parent, "name": name, "count": edge[0], "total_s": edge[1], "self_s": edge[2]}
            for (parent, name), edge in sorted(self._edges.items())
        ]
