"""Contract of the single-fragment fast path in :class:`StreamReceiver`.

A frame seen for the first time with ``frag_count <= 1`` completes on
arrival without a pending entry.  ``_PendingEntryReceiver`` below is a
reference model that keeps the original path: every frame gets a
:class:`_PendingFrame`, which a one-fragment frame completes and deletes in
the same call.  Over generated streams that mix single- and multi-fragment
frames, repeated frame ids, sequence gaps, time jumps past
``frame_timeout_s``, FEC credits, keyframes, audio and interleaved reports,
``on_packet`` and ``on_packet_batch`` must leave every counter,
``_pending``, ``_oldest_pending_arrival``, every report and the FIR
callbacks exactly as the reference does packet by packet.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.net.packet import Packet, PacketKind
from repro.net.simulator import Simulator
from repro.rtp.jitter import StreamReceiver, _PendingFrame

FLOW = "call:down:C1>C2"


class _PendingEntryReceiver(StreamReceiver):
    """Reference model: the pending-entry path for every frame, packet by packet."""

    __slots__ = ()

    def on_packet(self, packet: Packet) -> None:
        now = self.sim._now
        self.total_bytes += packet.size_bytes
        self._interval_bytes += packet.size_bytes
        if packet.kind is not PacketKind.RTP_VIDEO:
            if packet.kind is PacketKind.FEC:
                self._fec_credits += 1
            return
        self.total_video_packets += 1
        self._interval_video_packets += 1
        seq = packet.seq
        if self._highest_seq is None or seq > self._highest_seq:
            self._highest_seq = seq
        if self._prev_highest_seq is None:
            self._prev_highest_seq = seq - 1
        owd = max(now - packet.created_at, 0.0)
        if self._base_owd is None or owd < self._base_owd:
            self._base_owd = owd
        if self._smoothed_owd is None:
            self._smoothed_owd = owd
        else:
            w = self.config.delay_smoothing
            self._smoothed_owd = (1 - w) * self._smoothed_owd + w * owd

        meta = packet._meta
        frame_id = meta.get("frame_id") if meta is not None else None
        if frame_id is not None:
            frame = self._pending.get(frame_id)
            if frame is None:
                frame = _PendingFrame(
                    frame_id=frame_id,
                    fragments_expected=int(meta.get("frag_count", 1)),
                    keyframe=bool(meta.get("keyframe", False)),
                    first_arrival=now,
                )
                self._pending[frame_id] = frame
                if now < self._oldest_pending_arrival:
                    self._oldest_pending_arrival = now
            frame.fragments_received += 1
            if frame.fragments_received >= frame.fragments_expected and not frame.completed:
                frame.completed = True
                self._on_frame_complete(packet, now)
                del self._pending[frame_id]
                if not self._pending:
                    self._oldest_pending_arrival = float("inf")
        if self._pending and now - self._oldest_pending_arrival > self.config.frame_timeout_s:
            self._expire_stale_frames(now)

    def on_packet_batch(self, packets) -> None:
        for packet in packets:
            self.on_packet(packet)


def _state(receiver: StreamReceiver) -> dict:
    state = {}
    for name in StreamReceiver.__slots__:
        if name in ("sim", "config", "on_fir"):
            continue
        value = getattr(receiver, name)
        if name == "_pending":
            value = [
                (k, f.frame_id, f.fragments_expected, f.fragments_received, f.keyframe,
                 f.first_arrival, f.completed)
                for k, f in value.items()
            ]
        elif name == "freeze_tracker":
            value = (value.frames_displayed, value.total_freeze_s, tuple(value.freezes),
                     value._last_frame_at, value._mean_interval)
        state[name] = value
    return state


# ------------------------------------------------------------------ streams
_DT = st.sampled_from([0.0, 0.0, 0.0, 0.002, 0.03, 0.25, 0.41, 1.5])
_FRAMES = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),  # frame id (repeats allowed)
        st.sampled_from([None, 0, 1, 1, 1, 2, 3]),  # frag_count; None: key absent
        st.booleans(),  # keyframe
    ),
    min_size=1,
    max_size=8,
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("video"),
            _DT,
            st.integers(min_value=0, max_value=7),  # frame index (mod len)
            st.sampled_from([1, 1, 1, 2, 5, -3]),  # sequence step: gaps, reordering
            st.sampled_from([0.01, 0.02, 0.06, -0.01]),  # one-way delay
        ),
        st.tuples(st.sampled_from(["fec", "audio", "bare", "report"]), _DT),
    ),
    max_size=60,
)


def _schedule(frames, steps):
    """``[(time, [packet, ...] | "report")]``: same-instant packets form one train."""
    groups: list = []
    t = 1.0
    seq = 100
    for step in steps:
        kind, dt = step[0], step[1]
        t += dt
        if kind == "report":
            groups.append((t, "report"))
            continue
        if kind == "video":
            frame_id, frag_count, keyframe = frames[step[2] % len(frames)]
            seq += step[3]
            meta = {"frame_id": frame_id, "keyframe": keyframe, "width": 640}
            if frag_count is not None:
                meta["frag_count"] = frag_count
            packet = Packet(size_bytes=900 + seq % 50, flow_id=FLOW, src="S", dst="C2",
                            kind=PacketKind.RTP_VIDEO, seq=seq, created_at=t - step[4],
                            meta=meta)
        elif kind == "bare":
            seq += 1
            packet = Packet(size_bytes=700, flow_id=FLOW, src="S", dst="C2",
                            kind=PacketKind.RTP_VIDEO, seq=seq, created_at=t - 0.02)
        else:
            fec = kind == "fec"
            packet = Packet(size_bytes=300 if fec else 120, flow_id=FLOW, src="S", dst="C2",
                            kind=PacketKind.FEC if fec else PacketKind.RTP_AUDIO,
                            seq=50_000 + len(groups), created_at=t - 0.02)
        if groups and groups[-1][0] == t and groups[-1][1] != "report":
            groups[-1][1].append(packet)
        else:
            groups.append((t, [packet]))
    return groups


def _drive(receiver_cls, batched, groups):
    sim = Simulator(seed=0)
    firs: list = []
    receiver = receiver_cls(sim, FLOW, on_fir=lambda flow: firs.append((sim._now, flow)))
    reports: list = []

    def deliver(item):
        if item == "report":
            reports.append(receiver.make_report(sim._now))
        elif batched:
            receiver.on_packet_batch(item)
        else:
            for packet in item:
                receiver.on_packet(packet)

    for when, item in groups:
        sim.call_at(when, lambda item=item: deliver(item))
    sim.run(until=groups[-1][0] + 1.0 if groups else 1.0)
    reports.append(receiver.make_report(sim._now))
    return _state(receiver), reports, firs


@settings(max_examples=300, deadline=None)
@given(frames=_FRAMES, steps=_STEPS)
def test_single_fragment_fast_path_matches_pending_entry_model(frames, steps):
    groups = _schedule(frames, steps)
    reference = _drive(_PendingEntryReceiver, False, groups)
    assert _drive(StreamReceiver, False, groups) == reference
    assert _drive(StreamReceiver, True, groups) == reference


def test_single_fragment_frames_around_a_stale_keyframe():
    """A fixed stream through every branch the generated ones may miss."""
    frames = [(1, 3, True), (2, 1, False), (3, None, False), (4, 2, False), (5, 0, False)]
    steps = [
        ("video", 0.0, 0, 1, 0.02),  # keyframe 1: first of three fragments
        ("video", 0.0, 1, 1, 0.02),  # single-fragment frame while 1 is pending
        ("fec", 0.01),
        ("video", 0.0, 3, 2, 0.02),  # frame 4 starts after a sequence gap
        ("video", 0.5, 2, 1, 0.02),  # past the timeout: 1 and 4 go stale
        ("video", 0.0, 4, 1, -0.01),  # frag_count 0 completes too
        ("report", 0.0),
        ("video", 0.0, 3, 1, 0.02),  # a late fragment of 4 re-creates it
        ("video", 0.0, 1, 1, 0.02),  # a repeated single-fragment frame id
        ("audio", 2.0),
    ]
    groups = _schedule(frames, steps)
    reference = _drive(_PendingEntryReceiver, False, groups)
    state, _, firs = reference
    assert firs and state["lost_frames"] >= 1 and state["total_frames"] >= 5
    assert state["_pending"] and state["_oldest_pending_arrival"] < float("inf")
    assert _drive(StreamReceiver, False, groups) == reference
    assert _drive(StreamReceiver, True, groups) == reference
