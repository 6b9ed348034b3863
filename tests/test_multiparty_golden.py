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
* the number of simulator events and the scenario metrics.

The calls cover a 16-party Meet gallery (simulcast copy selection), a
9-party Zoom call (server FEC draws interleaved with the fan-out), a
5-party Teams call (plain relay, RTCP relayed to senders) and a 5-party Zoom
call on a shaped downlink (thinning and loss on C1's leg).

Re-record (only for an intended behaviour change, explained in CHANGES.md)::

    PYTHONPATH=src python tests/test_multiparty_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.netem.scenarios import ScenarioSpec, run_scenario
from repro.results.fingerprint import canonical_json

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
    """SHA-256 over the forwarding-sensitive state of a finished call."""
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
        "events": run.sim.events_processed,
        "metrics": run.metrics(),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _run(name: str):
    return run_scenario(CALLS[name], seed=SEED, duration_s=DURATION_S)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_multiparty_call_byte_identical_to_head(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["seed"] == SEED and golden["duration_s"] == DURATION_S
    assert call_digest(_run(name)) == golden["digests"][name], f"{name} diverged from HEAD"


def test_golden_covers_every_call():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden["digests"]) == sorted(CALLS)


def _record() -> None:
    digests = {name: call_digest(_run(name)) for name in sorted(CALLS)}
    payload = {"digests": digests, "duration_s": DURATION_S, "seed": SEED}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_multiparty_golden.py --record")
    _record()
