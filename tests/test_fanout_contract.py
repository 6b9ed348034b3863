"""Contracts of the SFU fan-out fast path.

* :meth:`SourceRoutedEgress.send_fanout` (one call for a media server's
  whole fan-out) leaves the simulator exactly as one
  :meth:`SourceRoutedEgress.send_batch` per train would: same ``sim._seq``,
  same heap entries, same deliveries in the same order -- with bus-routed and
  fallback destinations mixed in one fan-out, and whether or not the bus
  already has a pending event.  One-packet trains travel in the fan-out
  record as a bare packet for the route's per-packet receiver; mixed with
  multi-packet trains and delivered to real hosts, a home router and a lossy
  queueing link, they leave host, router, link and RNG state as
  ``send_batch`` does.
* :meth:`Host.send_forwarded_trains` matches per-train
  :meth:`Host.send_forwarded_batch` (counters, taps, deliveries), with and
  without a fan-out egress.
* A one-packet train is a packet: a batch handler given ``[packet]``
  (``StreamReceiver.on_packet_batch``, ``SfuNode.on_packet_batch``), and
  :meth:`Host.receive_batch` given ``[packet]``, leave receiver and SFU
  state identical to the per-packet path.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cc.base import FeedbackReport
from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import Packet, PacketKind
from repro.net.router import DelayPipe, Router, SourceRoutedEgress
from repro.net.simulator import Simulator
from repro.rtp.jitter import StreamReceiver
from repro.rtp.rtcp import make_fir_packet, make_report_packet
from repro.vca.base import downlink_flow, uplink_flow
from repro.vca.registry import get_profile
from repro.vca.sfu.node import SfuNode

BUS_DELAY_S = 0.013
FALLBACK_DELAY_S = 0.001


# ------------------------------------------------------------------ fan-out
class _Net:
    """A server-side source-routed egress with recording destinations."""

    def __init__(self, bus_dsts):
        self.sim = Simulator(seed=0)
        self.log: list[tuple] = []
        pipe = DelayPipe(
            self.sim,
            lambda packet: self._record("fallback", [packet]),
            FALLBACK_DELAY_S,
            receiver_batch=lambda packets: self._record("fallback", packets),
        )
        self.egress = SourceRoutedEgress(
            self.sim, BUS_DELAY_S, pipe.send, fallback_batch=pipe.send_batch
        )
        for dst in bus_dsts:
            self.egress.add_route(
                dst,
                lambda packet, dst=dst: self._record(dst, [packet]),
                lambda packets, dst=dst: self._record(dst, packets),
            )

    def _record(self, hop, packets):
        self.log.append(
            (self.sim._now, hop, tuple((p.dst, p.seq, p.size_bytes) for p in packets))
        )

    def heap(self):
        return _heap(self.sim)


def _heap(sim):
    return sorted((when, seq, getattr(cb, "__qualname__", repr(cb))) for when, seq, cb in sim._queue)


def _trains(layout, base_seq):
    """``{dst: [size_total, packets]}`` in layout order."""
    trains = {}
    for index, (dst, count) in enumerate(layout):
        packets = [
            Packet(size_bytes=100 + k, flow_id=f"f:{dst}", src="S", dst=dst,
                   seq=base_seq + 100 * index + k)
            for k in range(count)
        ]
        trains[dst] = [sum(p.size_bytes for p in packets), packets]
    return trains


_DSTS = ["R1", "R2", "R3", "R4", "X1", "X2"]  # X* have no bus route
_BUS = _DSTS[:4]

_LAYOUT = st.lists(
    st.tuples(st.sampled_from(_DSTS), st.integers(min_value=1, max_value=3)),
    min_size=1,
    max_size=6,
    unique_by=lambda item: item[0],
)


@settings(max_examples=150, deadline=None)
@given(
    fanouts=st.lists(
        st.tuples(_LAYOUT, st.sampled_from([0.0, 0.0005, 0.004])), min_size=1, max_size=4
    ),
    prepush=st.booleans(),
)
def test_fanout_matches_sequential_send_batch(fanouts, prepush):
    one, many = _Net(_BUS), _Net(_BUS)
    for net in (one, many):
        if prepush:
            # A bus and a fallback pipe with events already pending.
            net.egress.send_batch(_trains([("R2", 1)], 9000)["R2"][1])
            net.egress.send_batch(_trains([("X1", 1)], 9100)["X1"][1])
    for index, (layout, gap) in enumerate(fanouts):
        for net in (one, many):
            trains = _trains(layout, 1000 * index)
            if net is one:
                net.egress.send_fanout(trains)
            else:
                for _, packets in trains.values():
                    net.egress.send_batch(packets)
        assert one.sim._seq == many.sim._seq
        assert one.heap() == many.heap()
        for net in (one, many):
            net.sim.run(until=net.sim._now + gap)
        assert one.log == many.log
    for net in (one, many):
        net.sim.run(until=10.0)
    assert one.sim._seq == many.sim._seq
    assert one.sim.events_processed == many.sim.events_processed
    # Same global delivery order, hence the same order per destination.
    assert one.log == many.log


def test_fanout_shares_one_bus_record():
    net = _Net(_BUS)
    trains = _trains([("R1", 2), ("X1", 1), ("R2", 1), ("R3", 3)], 0)
    net.egress.send_fanout(trains)
    transit = net.egress.bus._transit
    assert len(transit) == 1
    records = transit[0][2]
    # A multi-packet train is (receiver_batch, train); a one-packet train is
    # (per-packet receiver, packet).
    routes, routes_batch = net.egress._routes, net.egress._routes_batch
    assert [fn for fn, _ in records] == [routes_batch["R1"], routes["R2"], routes_batch["R3"]]
    assert records[0][1] is trains["R1"][1] and records[2][1] is trains["R3"][1]
    assert records[1][1] is trains["R2"][1][0]
    net.sim.run(until=10.0)
    assert [hop for _, hop, _ in net.log] == ["fallback", "R1", "R2", "R3"]


class _HostNet:
    """A media server's egress wired to real receivers, as in the access topology.

    ``R*`` are bus routes straight to :class:`Host` objects; ``C1`` is a bus
    route to a home :class:`Router` that puts it on a lossy, queueing
    downlink :class:`Link`; ``X*`` take the fallback pipe to a core router.
    """

    def __init__(self):
        self.sim = sim = Simulator(seed=5)
        self.log: list[tuple] = []
        self.hosts = {name: Host(sim, name) for name in ("R1", "R2", "R3", "C1", "X1", "X2")}
        for name, host in self.hosts.items():
            flow = f"f:{name}"
            host.register_flow(
                flow,
                lambda p, name=name: self._record(name, [p]),
                lambda ps, name=name: self._record(name, ps),
            )
        core = Router(sim, "core")
        for name in ("X1", "X2"):
            host = self.hosts[name]
            core.add_delay_route(name, host.receive, 0.002, receiver_batch=host.receive_batch)
        self.home = Router(sim, "home")
        self.downlink = Link(sim, "down", 2_000_000, 0.004, queue_bytes=2400, loss_rate=0.2)
        self.downlink.connect(self.hosts["C1"].receive)
        self.home.add_link_route("C1", self.downlink)
        pipe = DelayPipe(sim, core.receive, FALLBACK_DELAY_S, receiver_batch=core.receive_batch)
        self.egress = SourceRoutedEgress(
            sim, BUS_DELAY_S, pipe.send, fallback_batch=pipe.send_batch
        )
        for name in ("R1", "R2", "R3"):
            host = self.hosts[name]
            self.egress.add_route(name, host.receive, host.receive_batch)
        self.egress.add_route("C1", self.home.receive, self.home.receive_batch)
        self.core = core

    def _record(self, hop, packets):
        for p in packets:
            self.log.append((self.sim._now, hop, p.seq, p.size_bytes))

    def state(self):
        stats = self.downlink.stats
        return (
            self.sim._seq,
            self.sim.events_processed,
            _heap(self.sim),
            {n: (h.bytes_received, h.packets_received) for n, h in self.hosts.items()},
            (self.home.packets_forwarded, self.core.packets_forwarded),
            (stats.packets_sent, stats.bytes_sent, stats.packets_dropped,
             stats.packets_lost_random, self.downlink.queued_bytes),
            self.sim.rng.bit_generator.state,
        )


def _host_trains(layout, base_seq):
    trains = {}
    for index, (dst, count) in enumerate(layout):
        packets = [
            Packet(size_bytes=300 + 50 * k, flow_id=f"f:{dst}", src="S", dst=dst,
                   seq=base_seq + 100 * index + k)
            for k in range(count)
        ]
        trains[dst] = [sum(p.size_bytes for p in packets), packets]
    return trains


@settings(max_examples=150, deadline=None)
@given(
    fanouts=st.lists(
        st.tuples(
            st.lists(
                st.tuples(
                    st.sampled_from(["R1", "R2", "R3", "C1", "X1", "X2"]),
                    st.sampled_from([1, 1, 2, 4]),
                ),
                min_size=1,
                max_size=6,
                unique_by=lambda item: item[0],
            ),
            st.sampled_from([0.0, 0.0005, 0.004, 0.02]),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_mixed_one_packet_fanout_matches_send_batch_on_real_receivers(fanouts):
    """One-packet and multi-packet trains through hosts, a router and a link."""
    one, many = _HostNet(), _HostNet()
    for index, (layout, gap) in enumerate(fanouts):
        for net in (one, many):
            trains = _host_trains(layout, 1000 * index)
            if net is one:
                net.egress.send_fanout(trains)
            else:
                for _, packets in trains.values():
                    net.egress.send_batch(packets)
        assert one.state() == many.state()
        for net in (one, many):
            net.sim.run(until=net.sim._now + gap)
        assert one.log == many.log
        assert one.state() == many.state()
    for net in (one, many):
        net.sim.run(until=10.0)
    assert one.log == many.log
    assert one.state() == many.state()


def _host_pair(with_fanout, with_tap):
    nets, hosts, taps = [], [], []
    for fanout in (True, False):
        net = _Net(_BUS)
        host = Host(net.sim, "S")
        host.set_egress(
            net.egress.send,
            batch=net.egress.send_batch,
            fanout=net.egress.send_fanout if (fanout and with_fanout) else None,
        )
        seen: list = []
        if with_tap:
            host.taps.append(lambda direction, p, seen=seen: seen.append((direction, p.dst, p.seq)))
        nets.append(net)
        hosts.append(host)
        taps.append(seen)
    return nets, hosts, taps


def test_host_send_forwarded_trains_matches_per_train_batches():
    for with_fanout in (True, False):
        for with_tap in (True, False):
            (one, many), (host_one, host_many), (tap_one, tap_many) = _host_pair(
                with_fanout, with_tap
            )
            layout = [("R3", 2), ("X2", 1), ("R1", 1), ("X1", 2), ("R4", 1)]
            host_one.send_forwarded_trains(_trains(layout, 0))
            for size_total, packets in _trains(layout, 0).values():
                host_many.send_forwarded_batch(packets, size_total)
            assert (host_one.bytes_sent, host_one.packets_sent) == (
                host_many.bytes_sent,
                host_many.packets_sent,
            )
            assert one.sim._seq == many.sim._seq
            assert one.heap() == many.heap()
            one.sim.run(until=10.0)
            many.sim.run(until=10.0)
            assert one.log == many.log
            assert tap_one == tap_many


# ------------------------------------------------------- one-packet trains
def _video(flow, seq, frame_id, frags, now, layer="main", src="C1"):
    return Packet(
        size_bytes=900 + 7 * seq,
        flow_id=flow,
        src=src,
        dst="S",
        kind=PacketKind.RTP_VIDEO,
        seq=seq,
        created_at=now - 0.02,
        meta={"frame_id": frame_id, "frag_count": frags, "keyframe": frame_id == 1,
              "layer": layer},
    )


def _receiver_stream(flow):
    """(arrival time, packet) of one stream with loss, FEC, audio and a stale frame."""
    items = []
    seq = 0
    t = 1.0
    for frame_id in range(1, 17):
        frags = 1 + frame_id % 3
        for frag in range(frags):
            seq += 1
            t += 0.004
            if frame_id in (1, 5, 7) and frag == 0:
                continue  # lost fragments: stale frames, a lost keyframe -> FIR
            items.append((t, _video(flow, seq, frame_id, frags, t)))
        if frame_id >= 14:
            items.append((t, Packet(size_bytes=300, flow_id=flow, src="C1", dst="S",
                                    kind=PacketKind.FEC, seq=10_000 + frame_id, created_at=t)))
        items.append((t, Packet(size_bytes=120, flow_id=flow, src="C1", dst="S",
                                kind=PacketKind.RTP_AUDIO, seq=20_000 + frame_id, created_at=t)))
        t += 0.1
    return items


def _receiver_state(receiver: StreamReceiver):
    state = {}
    for name in StreamReceiver.__slots__:
        if name in ("sim", "config", "on_fir"):
            continue
        value = getattr(receiver, name)
        if name == "_pending":
            value = {k: (f.fragments_expected, f.fragments_received, f.keyframe,
                         f.first_arrival, f.completed) for k, f in value.items()}
        elif name == "freeze_tracker" and value is not None:
            value = (value.frames_displayed, value.total_freeze_s, tuple(value.freezes),
                     value._last_frame_at, value._mean_interval)
        state[name] = value
    return state


def _drive_receiver(mode):
    sim = Simulator(seed=3)
    flow = "call:down:C1>C2"
    receiver = StreamReceiver(sim, flow)
    firs: list = []
    receiver.on_fir = firs.append
    host = Host(sim, "C2")
    host.register_flow(flow, receiver.on_packet, batch_handler=receiver.on_packet_batch)
    for when, packet in _receiver_stream(flow):
        sim.call_at(when, lambda p=packet: deliver(p))

    def deliver(packet):
        if mode == "receive":
            host.receive(packet)
        elif mode == "receive_batch":
            host.receive_batch([packet])
        elif mode == "handler":
            receiver.on_packet(packet)
        else:
            receiver.on_packet_batch([packet])

    sim.run(until=10.0)
    report = receiver.make_report(sim.now)
    return _receiver_state(receiver), report, firs, (host.bytes_received, host.packets_received)


def test_one_packet_train_leaves_stream_receiver_identical():
    reference = _drive_receiver("receive")
    state, _, firs, _ = reference
    assert state["lost_frames"] == 3 and state["fir_sent"] >= 1 and firs
    assert state["total_frames"] >= 5 and state["_fec_credits"] > 0
    for mode in ("receive_batch", "handler", "batch_handler"):
        got = _drive_receiver(mode)
        assert got[:3] == reference[:3], mode
        if mode.startswith("receive"):
            assert got[3] == reference[3]


def _sfu_packets(call_id, layers):
    """Uplink media of C1 and C2 plus downlink RTCP (reports and a FIR)."""
    items = []
    t = 1.0
    seq = {"C1": 0, "C2": 0}
    for frame_id in range(1, 9):
        for sender in ("C1", "C2"):
            flow = uplink_flow(sender, call_id)
            for layer in layers:
                seq[sender] += 1
                t += 0.002
                items.append((t, _video(flow, seq[sender], frame_id, 1, t, layer=layer,
                                        src=sender)))
            items.append((t, Packet(size_bytes=120, flow_id=flow, src=sender, dst="S",
                                    kind=PacketKind.RTP_AUDIO, seq=30_000 + frame_id,
                                    created_at=t)))
        if frame_id % 3 == 0:
            for sender, receiver in (("C1", "C2"), ("C2", "C3"), ("C1", "C3")):
                report = FeedbackReport(timestamp=t, interval_s=0.25,
                                        receive_rate_bps=400_000.0 * frame_id,
                                        loss_fraction=0.01 * frame_id, queueing_delay_s=0.01,
                                        packets_expected=50, packets_received=49)
                items.append((t, make_report_packet(
                    f"{downlink_flow(sender, receiver, call_id)}:rtcp", receiver, "S", report, t
                )))
        if frame_id == 4:
            items.append((t, make_fir_packet(
                f"{downlink_flow('C2', 'C1', call_id)}:rtcp", "C1", "S", t
            )))
        t += 0.05
    return items


def _drive_sfu(mode, vca):
    sim = Simulator(seed=11)
    host = Host(sim, "S")
    sent: list = []
    host.set_egress(
        lambda p: sent.append((sim._now, p.flow_id, p.dst, p.kind, p.seq, p.size_bytes)),
        batch=lambda ps: sent.extend(
            (sim._now, p.flow_id, p.dst, p.kind, p.seq, p.size_bytes) for p in ps
        ),
    )
    node = SfuNode(sim, host, get_profile(vca))
    for name in ("C1", "C2", "C3"):
        node.add_participant(name)
    node.start()
    layers = ("low", "high") if vca == "meet" else ("base", "mid", "top")
    for when, packet in _sfu_packets(node.call_id, layers):
        sim.call_at(when, lambda p=packet: deliver(p))

    def deliver(packet):
        if mode == "receive":
            host.receive(packet)
        elif mode == "receive_batch":
            host.receive_batch([packet])
        elif mode == "handler":
            node.on_packet(packet)
        else:
            node.on_packet_batch([packet])

    sim.run(until=2.5)
    participants = {}
    for name, state in node.participants.items():
        participants[name] = (
            _receiver_state(state.uplink_receiver),
            dict(state.layer_bytes),
            {k: (m.bytes_in_window, m.rate_bps) for k, m in state.layer_meters.items()},
            {k: vars(r) for k, r in state.last_reports.items()},
            {k: (sorted(v[0]), v[1]) for k, v in state.forwarding.items()},
            state.downlink_estimator.target_bitrate_bps,
            state.shed_loss_ewma,
            state.loss_high_since,
        )
    return (
        participants,
        sent,
        (node.bytes_forwarded, node.fec_bytes_added, node.probe_bytes_sent),
        {k: v[0] for k, v in node._forward_seq.items()},
        sim.rng.bit_generator.state,
    )


def test_one_packet_train_leaves_sfu_identical():
    for vca in ("zoom", "meet", "teams"):
        reference = _drive_sfu("receive", vca)
        assert reference[1], vca
        for mode in ("receive_batch", "handler", "batch_handler"):
            assert _drive_sfu(mode, vca) == reference, (vca, mode)
