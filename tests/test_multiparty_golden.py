"""Byte-identity of multi-party SFU calls against digests recorded before the fan-out fast path.

The two-party and cascade goldens in ``test_workload.py`` never exercise a
single server fanning one uplink out to many receivers, which is where the
SFU forwarding plane, the server's source-routed egress and the receivers'
jitter buffers do most of their work.  Each call below is digested over
everything the forwarding path can perturb:

* the measured client's access-link :class:`~repro.net.link.LinkStats` and
  its capture bins,
* every client's per-sender :class:`~repro.rtp.jitter.StreamReceiver`
  totals (bytes, frames, lost frames, FIRs),
* the server's forwarded, FEC and probe byte counters,
* the scenario metrics.

The number of simulator events is recorded next to each digest and asserted
exactly, but kept out of the digest: it counts the simulator's work (timer
firings, bus deliveries) as well as the model's, so a change that
restructures that work without changing any state moves the count and
nothing else, and re-records only the count.

The calls cover a 16-party Meet gallery (simulcast copy selection), a
9-party Zoom call (server FEC draws interleaved with the fan-out), a
5-party Teams call (plain relay, RTCP relayed to senders) and a 5-party Zoom
call on a shaped downlink (thinning and loss on C1's leg).

Re-record (only for an intended change of state or event count, explained in
CHANGES.md)::

    PYTHONPATH=src python tests/test_multiparty_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.net import router as router_mod
from repro.net.node import Host
from repro.net.packet import Packet
from repro.net.router import Router
from repro.net.simulator import Simulator
from repro.netem.scenarios import ScenarioSpec, run_scenario
from repro.results.fingerprint import canonical_json
from repro.rtp import jitter
from repro.rtp.jitter import StreamReceiver

GOLDEN_PATH = Path(__file__).parent / "data" / "multiparty_golden_head.json"
SEED = 0
DURATION_S = 6.0

CALLS = {
    "gallery-16p-meet": ScenarioSpec(
        name="golden/gallery-16p-meet",
        description="Unconstrained 16-party Meet gallery",
        vca="meet",
        participants=16,
    ),
    "gallery-9p-zoom": ScenarioSpec(
        name="golden/gallery-9p-zoom",
        description="Unconstrained 9-party Zoom gallery (server FEC)",
        vca="zoom",
        participants=9,
    ),
    "gallery-5p-teams": ScenarioSpec(
        name="golden/gallery-5p-teams",
        description="Unconstrained 5-party Teams gallery (plain relay)",
        vca="teams",
        participants=5,
    ),
    "shaped-down-5p-zoom": ScenarioSpec(
        name="golden/shaped-down-5p-zoom",
        description="5-party Zoom with C1's downlink shaped to 1.5 Mbps",
        vca="zoom",
        participants=5,
        direction="down",
        profile=("constant", {"mbps": 1.5}),
    ),
}


def call_digest(run) -> str:
    """SHA-256 over the forwarding-sensitive state of a finished call.

    ``events_processed`` is deliberately not part of it (see the module
    docstring); :func:`_run` returns it separately.
    """
    links = {}
    for label, link in (("up", run.topology.uplink), ("down", run.topology.downlink)):
        s = link.stats
        links[label] = {
            "packets_sent": s.packets_sent,
            "bytes_sent": s.bytes_sent,
            "packets_dropped": s.packets_dropped,
            "bytes_dropped": s.bytes_dropped,
            "packets_dropped_aqm": s.packets_dropped_aqm,
            "packets_lost_random": s.packets_lost_random,
        }
    flows = {}
    for direction in ("tx", "rx"):
        for series in run.capture.flows_at("C1", direction):
            flows[f"{direction}:{series.flow_id}"] = dict(series.bins)
    receivers = {}
    for name, client in run.call.clients.items():
        for sender, receiver in client.receivers.items():
            receivers[f"{name}<{sender}"] = [
                receiver.total_bytes,
                receiver.total_video_packets,
                receiver.total_frames,
                receiver.lost_frames,
                receiver.fir_sent,
            ]
    server = run.call.server
    payload = {
        "links": links,
        "flows": flows,
        "receivers": receivers,
        "server": [server.bytes_forwarded, server.fec_bytes_added, server.probe_bytes_sent],
        "metrics": run.metrics(),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _run(name: str) -> tuple[str, int]:
    """``(state digest, events_processed)`` of one golden call."""
    run = run_scenario(CALLS[name], seed=SEED, duration_s=DURATION_S)
    return call_digest(run), run.sim.events_processed


@pytest.mark.parametrize("name", sorted(CALLS))
def test_multiparty_call_byte_identical_to_head(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["seed"] == SEED and golden["duration_s"] == DURATION_S
    digest, events = _run(name)
    assert digest == golden["digests"][name], f"{name} diverged from HEAD"
    assert events == golden["events"][name], f"{name} event count moved"


def test_golden_covers_every_call():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden["digests"]) == sorted(golden["events"]) == sorted(CALLS)


def test_gallery_16p_per_copy_work_counters(monkeypatch):
    """Deterministic counters of the per-copy and per-report fast paths.

    In the 16-party golden call (whose state digest is asserted too, so the
    counters watch the pinned call):

    * no :class:`~repro.rtp.jitter._PendingFrame` is built for a frame with
      ``frag_count <= 1``;
    * the server's fan-out destinations (the clients and C1's home router)
      get no one-packet ``receive_batch`` call: one-packet copies travel as
      bare packets;
    * each client has exactly one feedback timer, not one per remote.
    """
    server = "S"
    counts = {
        "pending_single": 0,
        "pending_multi": 0,
        "single_completed": 0,
        "dest_batch_one": 0,
        "dest_batch_many": 0,
        "bare_records": 0,
    }
    timer_callbacks: list = []

    real_pending = jitter._PendingFrame

    def pending_frame(*args, **kwargs):
        frame = real_pending(*args, **kwargs)
        counts["pending_single" if frame.fragments_expected <= 1 else "pending_multi"] += 1
        return frame

    real_complete = StreamReceiver._on_frame_complete

    def on_frame_complete(self, packet, now):
        if int(packet.meta.get("frag_count", 1)) <= 1:
            counts["single_completed"] += 1
        real_complete(self, packet, now)

    def counting_receive_batch(real):
        def receive_batch(self, packets):
            if isinstance(self, Router) or self.name != server:
                counts["dest_batch_one" if len(packets) == 1 else "dest_batch_many"] += 1
            real(self, packets)

        return receive_batch

    real_deliver = router_mod._deliver_records

    def deliver_records(records):
        counts["bare_records"] += sum(arg.__class__ is Packet for _, arg in records)
        real_deliver(records)

    real_every = Simulator.every

    def every(self, interval, callback, *args, **kwargs):
        timer_callbacks.append(callback)
        return real_every(self, interval, callback, *args, **kwargs)

    monkeypatch.setattr(jitter, "_PendingFrame", pending_frame)
    monkeypatch.setattr(StreamReceiver, "_on_frame_complete", on_frame_complete)
    monkeypatch.setattr(Host, "receive_batch", counting_receive_batch(Host.receive_batch))
    monkeypatch.setattr(Router, "receive_batch", counting_receive_batch(Router.receive_batch))
    monkeypatch.setattr(router_mod, "_deliver_records", deliver_records)
    monkeypatch.setattr(Simulator, "every", every)

    name = "gallery-16p-meet"
    run = run_scenario(CALLS[name], seed=SEED, duration_s=DURATION_S)
    assert run.topology.server_name == server
    golden = json.loads(GOLDEN_PATH.read_text())
    assert call_digest(run) == golden["digests"][name]

    assert counts["pending_single"] == 0
    assert counts["pending_multi"] > 0 and counts["single_completed"] > 0
    assert counts["dest_batch_one"] == 0
    assert counts["dest_batch_many"] > 0 and counts["bare_records"] > 0
    feedback = [
        cb for cb in timer_callbacks
        if cb.__qualname__ == "VCAClient._send_feedback"
        or cb.__qualname__.startswith("VCAClient.expect_stream_from")
    ]
    n = CALLS[name].participants
    assert len(feedback) == n
    assert {cb.__self__.name for cb in feedback} == set(run.call.clients)


def _record() -> None:
    results = {name: _run(name) for name in sorted(CALLS)}
    payload = {
        "digests": {name: digest for name, (digest, _) in results.items()},
        "events": {name: events for name, (_, events) in results.items()},
        "duration_s": DURATION_S,
        "seed": SEED,
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_multiparty_golden.py --record")
    _record()
