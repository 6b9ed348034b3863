"""The benchmark's three workloads, driven through the public API.

Calls go ``ScenarioSpec`` -> ``run_scenario`` -> ``ScenarioRun.metrics()``;
the campaign goes ``run_barometer_sweep`` -> ``run_campaign`` ->
``ResultStore``.  Each workload has three entry points:

* ``setup``: import the program and build the inputs from the seed (what
  ``setup_s`` times in a fresh process);
* ``measure_calls`` / ``measure_campaign``: the untraced run that gives the
  end-to-end metrics;
* ``trace_calls`` / ``trace_campaign``: a fixed amount of work run once
  untraced and once traced, which gives the per-layer metrics, the tracing
  overhead and a digest check.

Every operation (one call, or one cell of a campaign pass) is checked; a
failed check counts the operation as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Any, Callable, Mapping, Optional

from reference import REFERENCE_S, Speedometer, pool_kernel_seconds
from tracer import CALL_LAYERS, CAMPAIGN_LAYERS, Tracer

GALLERY = "gallery-16p-meet"
ACCESS = "access-contended-zoom"
CAMPAIGN = "campaign-barometer-48"
WORKLOADS = (GALLERY, ACCESS, CAMPAIGN)

#: Simulated length of one call.
CALL_DURATION_S = {GALLERY: 5.0, ACCESS: 20.0}
#: Seeded calls (or campaign grids) in one cycle.  A measured run repeats
#: its cycle until its time is up, so its median spans many seeds: the cost
#: of a call or a grid varies with its seed (capacity process, loss draws,
#: household parameters), so few seeds per run would make runs with
#: different benchmark seeds disagree.
CYCLE = {GALLERY: 8, ACCESS: 40, CAMPAIGN: 8}
#: A traced run executes exactly this many calls of the cycle (or the first
#: grid), so its counts repeat exactly.
TRACED_CALLS = 8

#: Campaign grid: one household per ISP tier (8), two VCAs, every use case (3).
CAMPAIGN_VCAS = ("zoom", "meet")
CELL_DURATION_S = 4.0
WARM_PASSES = 3
#: Times ``ScenarioRun.metrics()`` is re-derived per call for ``warm_cells_per_s``.
WARM_REPEATS = 5

_clock = time.perf_counter


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    #: Layer rows ``(layer, self_s, share)`` of a traced run, ranked.
    layers: list[tuple[str, float, float]] = field(default_factory=list)
    #: Aggregated span tree of a traced run.
    spans: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.notes.append(f"FAILED {what}")


def digest_of(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def output_problems(metrics: Mapping[str, Any]) -> list[str]:
    """Violations of the output checks by one call's or cell's metrics."""
    problems = [
        f"{key}={value!r} is not finite"
        for key, value in metrics.items()
        if not isinstance(value, (int, float)) or not math.isfinite(value)
    ]
    for key in ("median_up_mbps", "median_down_mbps"):
        value = metrics.get(key)
        if not (isinstance(value, (int, float)) and value > 0.0):
            problems.append(f"{key}={value!r} is not above 0")
    for key in ("freeze_ratio", "tx_loss_rate", "share_up", "share_down"):
        if key in metrics and not 0.0 <= metrics[key] <= 1.0:
            problems.append(f"{key}={metrics[key]!r} is outside [0, 1]")
    return problems


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident memory in MB (Linux reports ``ru_maxrss`` in KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def cycle_seeds(workload: str, seed: int) -> list[int]:
    """The simulation seeds of one cycle, derived from the benchmark seed."""
    return random.Random(f"{workload}:{seed}").sample(range(1 << 30), CYCLE[workload])


# ------------------------------------------------------------------ set-up
@dataclass
class CallInputs:
    spec: Any
    seeds: list[int]
    duration_s: float


@dataclass
class Grid:
    """One seeded barometer grid: its households and campaign conditions."""

    seed: int
    households: list[Any]
    conditions: list[Any]


@dataclass
class CampaignInputs:
    grids: list[Grid]
    work_dir: Path
    workers: int


def call_spec(workload: str):
    from repro.netem.scenarios import ScenarioSpec

    if workload == GALLERY:
        return ScenarioSpec(
            name=f"perfbench/{GALLERY}",
            description="Unconstrained 16-party Meet gallery call",
            vca="meet",
            participants=16,
        )
    return ScenarioSpec(
        name=f"perfbench/{ACCESS}",
        description="Two-party Zoom on a contended LTE access link with burst loss, "
        "CoDel and one bulk TCP download",
        vca="zoom",
        direction="both",
        profile=("lte", {"mean_mbps": 2.5}),
        loss=("gilbert_elliott", {"mean_loss": 0.02, "mean_burst_packets": 8}),
        aqm=("codel", {}),
        workload=("tcp_bulk", {"flows": 1, "direction": "down"}),
    )


def campaign_households(seed: int) -> list[Any]:
    """One seeded household per ISP tier, so every seed has the same tier mix.

    The tiers' cross-traffic habits are left out: two coin flips per grid
    (cable 25 %, wifi-hotspot 35 %) would add competing applications to a
    quarter of its cells and make one seed's grid cost up to 2x another's.
    Cross-traffic is measured by the access workload.  Tiers draw their
    workload last, so the other household parameters are unchanged.
    """
    from repro.barometer import DEFAULT_TIERS, sample_households

    return [
        sample_households(len(DEFAULT_TIERS), seed=seed, tiers=(replace(tier, workload=None),))[index]
        for index, tier in enumerate(DEFAULT_TIERS)
    ]


def setup(workload: str, seed: int, work_dir: Path, workers: int):
    """Import the program and build one workload's inputs from ``seed``."""
    if workload == CAMPAIGN:
        from repro.barometer.campaign import barometer_conditions

        grids = []
        for grid_seed in cycle_seeds(workload, seed):
            households = campaign_households(grid_seed)
            conditions = barometer_conditions(
                households, vcas=CAMPAIGN_VCAS, duration_s=CELL_DURATION_S, seed=grid_seed
            )
            grids.append(Grid(grid_seed, households, conditions))
        work_dir.mkdir(parents=True, exist_ok=True)
        return CampaignInputs(grids, work_dir, workers)
    return CallInputs(call_spec(workload), cycle_seeds(workload, seed), CALL_DURATION_S[workload])


# ------------------------------------------------------------------- calls
def _run_call(inputs: CallInputs, seed: int) -> tuple[float, Any, dict[str, float]]:
    """One timed call: ``run_scenario`` plus ``metrics()``."""
    from repro.netem import scenarios

    start = _clock()
    # Looked up on the module at call time, so a traced run sees the wrapper.
    run = scenarios.run_scenario(inputs.spec, seed=seed, duration_s=inputs.duration_s)
    metrics = run.metrics()
    return _clock() - start, run, metrics


def _checked_call(
    inputs: CallInputs, seed: int, outcome: Outcome
) -> Optional[tuple[float, Any, dict[str, float]]]:
    outcome.attempted += 1
    try:
        wall, run, metrics = _run_call(inputs, seed)
    except Exception:  # noqa: BLE001 - a raising call is a failed operation
        outcome.fail(f"call seed={seed} raised:\n{traceback.format_exc()}")
        return None
    problems = output_problems(metrics)
    if problems:
        outcome.fail(f"call seed={seed}: " + "; ".join(problems))
    return wall, run, metrics


def measure_calls(inputs: CallInputs, seconds: float) -> Outcome:
    """Repeat the seeded call cycle for ``seconds``; end-to-end metrics.

    Each call's wall, and the wall of re-deriving its metrics from the
    finished run, are scaled to reference seconds (see ``reference.py``).
    """
    outcome = Outcome()
    sim_s = inputs.duration_s
    _warm_up(inputs)

    speed = Speedometer()
    raw_s: list[float] = []
    scaled_s: list[float] = []
    warm_s: list[float] = []
    first_cycle: dict[int, dict[str, float]] = {}
    started = _clock()
    index = 0
    while index < len(inputs.seeds) or _clock() - started < seconds:
        position = index % len(inputs.seeds)
        seed = inputs.seeds[position]
        index += 1
        result = _checked_call(inputs, seed, outcome)
        if result is None:
            speed.factor()
            continue
        wall, run, metrics = result
        if first_cycle.setdefault(position, metrics) != metrics:
            outcome.fail(f"call seed={seed} repeated with different metrics")
        start = _clock()
        for _ in range(WARM_REPEATS):
            run.metrics()
        warm = (_clock() - start) / WARM_REPEATS
        del run
        factor = speed.factor()
        raw_s.append(wall)
        scaled_s.append(wall * factor)
        warm_s.append(warm * factor)
    loop_s = _clock() - started

    # The digest covers the calls a traced run makes, so both modes print
    # the same digest for a seed.
    outcome.digest = digest_of([first_cycle.get(key) for key in range(TRACED_CALLS)])
    if scaled_s:
        call_s = median(scaled_s)
        outcome.metrics = {
            "wall_ms_per_sim_s": call_s * 1e3 / sim_s,
            "cells_per_s": 1.0 / call_s,
            "warm_cells_per_s": 1.0 / median(warm_s),
            "peak_rss_mb": peak_rss_mb(),
        }
        outcome.notes.append(
            f"{len(scaled_s)} calls of {sim_s:g} simulated s over {loop_s:.1f} s, "
            f"{len(inputs.seeds)} seeds from {inputs.seeds[0]}; unscaled median "
            f"{median(raw_s) * 1e3 / sim_s:.1f} ms per simulated s"
        )
    return outcome


def _warm_up(inputs: CallInputs) -> None:
    """A short untimed call, so lazy imports and caches fill before timing."""
    _run_call(CallInputs(inputs.spec, inputs.seeds[:1], 2.0), inputs.seeds[0])


def _cycle(inputs: CallInputs, outcome: Outcome) -> Optional[list[tuple[float, dict, int]]]:
    """Each seed of the cycle once: ``(wall, metrics, events)`` per call, or
    ``None`` when a call raised."""
    calls = []
    for seed in inputs.seeds:
        result = _checked_call(inputs, seed, outcome)
        if result is None:
            return None
        wall, run, metrics = result
        calls.append((wall, metrics, run.sim.events_processed))
    return calls


def trace_calls(inputs: CallInputs) -> Outcome:
    """The first ``TRACED_CALLS`` calls of the cycle untraced, then traced;
    per-layer metrics."""
    outcome = Outcome()
    inputs = CallInputs(inputs.spec, inputs.seeds[:TRACED_CALLS], inputs.duration_s)
    _warm_up(inputs)
    untraced = _cycle(inputs, outcome)
    tracer = Tracer()
    tracer.install(CALL_LAYERS)
    try:
        traced = _cycle(inputs, outcome)
    finally:
        tracer.uninstall()
    if untraced is None or traced is None:
        return outcome

    untraced_digest = digest_of([metrics for _, metrics, _ in untraced])
    outcome.digest = digest_of([metrics for _, metrics, _ in traced])
    if outcome.digest != untraced_digest:
        outcome.fail(f"traced digest {outcome.digest} != untraced digest {untraced_digest}")
    traced_wall = sum(wall for wall, _, _ in traced)
    untraced_wall = sum(wall for wall, _, _ in untraced)
    sim_s = inputs.duration_s * len(inputs.seeds)
    outcome.metrics = call_layer_metrics(
        tracer,
        sum(events for _, _, events in traced),
        sim_s,
        inputs.spec.participants,
        len(inputs.seeds),
    )
    outcome.metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    outcome.layers = layer_table(tracer, traced_wall)
    outcome.spans = tracer.tree()
    outcome.notes.append(
        f"traced {len(traced)} calls ({sim_s:g} simulated s): {traced_wall:.2f} s traced "
        f"vs {untraced_wall:.2f} s untraced"
    )
    return outcome


def _calls(tracer: Tracer, *names: str) -> int:
    return sum(tracer.span(name).calls for name in names)


def call_layer_metrics(
    tracer: Tracer, events: int, sim_s: float, participants: int, calls: int
) -> dict[str, float]:
    """Per-layer metrics of a traced call cycle, per simulated second."""
    self_s = tracer.self_seconds()

    def per_sim(count: float) -> float:
        return count / sim_s

    def self_ms(layer: str) -> float:
        return self_s.get(layer, 0.0) * 1e3 / sim_s

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def items(*names: str) -> int:
        return sum(tracer.span(name).items for name in names)

    def outer(*names: str) -> int:
        return sum(tracer.span(name).outer_calls for name in names)

    scheduled = _calls(tracer, "net.simulator:Simulator.call_at", "net.simulator:Simulator.call_in")
    cancelled = _calls(
        tracer, "net.simulator:Simulator.cancel_seq", "net.simulator:ScheduledEvent.cancel"
    )
    offered = sum(link.stats.packets_sent + link.stats.packets_dropped for link in tracer.links)
    lost = sum(link.stats.packets_dropped + link.stats.packets_lost_random for link in tracer.links)
    node_batches = (
        "net.node:Host.send_batch",
        "net.node:Host.send_forwarded_batch",
        "net.node:Host.receive_batch",
    )
    participant_s = sim_s * participants
    return {
        "net.simulator.events_per_sim_s": per_sim(events),
        "net.simulator.scheduled_per_sim_s": per_sim(scheduled),
        "net.simulator.cancelled_frac": ratio(cancelled, scheduled),
        "net.simulator.unattributed_events_per_sim_s": per_sim(events - tracer.callbacks_run),
        "net.simulator.dispatch_self_ms_per_sim_s": (
            tracer.span("net.simulator:Simulator.run").self_s * 1e3 / sim_s
        ),
        "net.link.calls_per_sim_s": per_sim(sum(s.calls for s in tracer.layer("net.link"))),
        "net.link.packets_per_sim_s": per_sim(items("net.link:Link.send", "net.link:Link.send_batch")),
        "net.link.drop_frac": ratio(lost, offered),
        "net.link.self_ms_per_sim_s": self_ms("net.link"),
        "net.router.calls_per_sim_s": per_sim(sum(s.calls for s in tracer.layer("net.router"))),
        "net.router.self_ms_per_sim_s": self_ms("net.router"),
        "net.node.calls_per_sim_s": per_sim(sum(s.calls for s in tracer.layer("net.node"))),
        "net.node.packets_per_batch": ratio(items(*node_batches), outer(*node_batches)),
        "net.node.self_ms_per_sim_s": self_ms("net.node"),
        "rtp.jitter.packets_per_sim_s": per_sim(
            items("rtp.jitter:StreamReceiver.on_packet", "rtp.jitter:StreamReceiver.on_packet_batch")
        ),
        "rtp.jitter.packets_per_batch": ratio(
            items("rtp.jitter:StreamReceiver.on_packet_batch"),
            outer("rtp.jitter:StreamReceiver.on_packet_batch"),
        ),
        "rtp.jitter.self_ms_per_sim_s": self_ms("rtp.jitter"),
        "rtp.packetizer.packets_per_sim_s": per_sim(
            items("rtp.packetizer:Packetizer.packetize", "rtp.packetizer:Packetizer.packetize_train")
        ),
        "rtp.packetizer.self_ms_per_sim_s": self_ms("rtp.packetizer"),
        "rtp.session.calls_per_sim_s": per_sim(_calls(tracer, "rtp.session:RtpStreamSender.apply_feedback")),
        "rtp.session.self_ms_per_sim_s": self_ms("rtp.session"),
        "cc.on_feedback_per_participant_sim_s": (
            sum(s.calls for s in tracer.layer("cc") if s.name.endswith(".on_feedback")) / participant_s
        ),
        "cc.self_ms_per_sim_s": self_ms("cc"),
        "media.frames_per_sim_s": per_sim(
            sum(s.items for s in tracer.layer("media") if s.name.endswith(".frames_due"))
        ),
        "media.self_ms_per_sim_s": self_ms("media"),
        "vca.sfu.aggregate_reports_per_participant_sim_s": (
            _calls(tracer, "vca.sfu:node.aggregate_reports") / participant_s
        ),
        "vca.sfu.calls_per_sim_s": per_sim(
            _calls(tracer, "vca.sfu:SfuNode.on_packet", "vca.sfu:SfuNode.on_packet_batch")
        ),
        "vca.sfu.self_ms_per_sim_s": self_ms("vca.sfu"),
        "core.capture.records_per_sim_s": per_sim(
            items("core.capture:PacketCapture._record") + _calls(tracer, "core.capture:FlowSeries.add")
        ),
        "core.capture.self_ms_per_sim_s": self_ms("core.capture"),
        "core.capture.metrics_ms": tracer.span("core.capture:ScenarioRun.metrics").total_s * 1e3 / calls,
        "netem.samples_per_sim_s": per_sim(sum(s.calls for s in tracer.layer("netem"))),
        "netem.self_ms_per_sim_s": self_ms("netem"),
        "apps.events_per_sim_s": per_sim(_calls(tracer, "apps:callback")),
        "apps.self_ms_per_sim_s": self_ms("apps"),
    }


def layer_table(tracer: Tracer, wall_s: float) -> list[tuple[str, float, float]]:
    """Layers ranked by self time, each with its share of the traced wall."""
    rows = list(tracer.self_seconds().items())
    rows.append(("(outside spans)", max(wall_s - tracer.root_seconds(), 0.0)))
    rows.sort(key=lambda row: -row[1])
    return [(layer, seconds, seconds / wall_s) for layer, seconds in rows]


# ---------------------------------------------------------------- campaign
def _sweep(inputs: CampaignInputs, grid: Grid, store_dir: Path):
    from repro.barometer import campaign

    # Looked up on the module at call time, so a traced run sees the wrapper.
    return campaign.run_barometer_sweep(
        households=grid.households,
        vcas=CAMPAIGN_VCAS,
        duration_s=CELL_DURATION_S,
        seed=grid.seed,
        workers=inputs.workers,
        store=store_dir,
        progress=False,
    )


def _rows_json(table) -> str:
    return json.dumps(table.rows, sort_keys=True, separators=(",", ":"))


def _check_rows(table, units: int, outcome: Outcome, label: str) -> None:
    """Count each of the ``units`` cells of one pass and check its metrics."""
    from repro.barometer import BAROMETER_METRICS

    outcome.attempted += units
    if len(table.rows) != units:
        outcome.failed += units - len(table.rows)
        outcome.notes.append(f"FAILED {label}: {units - len(table.rows)} cells missing")
    columns = table.columns
    for row in table.rows:
        values = dict(zip(columns, row))
        metrics = {key: values[key] for key in ("quality_index", *BAROMETER_METRICS)}
        problems = output_problems(metrics)
        if problems:
            outcome.fail(f"{label} cell {row[:4]}: " + "; ".join(problems))


@dataclass
class CampaignPass:
    cold_s: float
    warm_s: list[float]
    #: The cold pass's rows as JSON and its campaign statistics.
    rows: str
    stats: dict[str, Any]


def _campaign_pass(
    inputs: CampaignInputs,
    grid: Grid,
    outcome: Outcome,
    warm_passes: int,
    between: Optional[Callable[[], None]] = None,
    speed: Optional[Speedometer] = None,
) -> Optional[CampaignPass]:
    """One cold pass into a fresh store and ``warm_passes`` against it.

    ``between`` runs after the cold pass.  With ``speed``, warm walls are
    scaled to reference seconds; the cold wall is returned unscaled (the
    caller scales it over the whole run).  Returns ``None`` when a pass
    raised; all of its cells then count as failed.
    """
    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=inputs.work_dir))
    try:
        start = _clock()
        cold = _sweep(inputs, grid, store_dir)
        cold_s = _clock() - start
        _check_rows(cold, len(grid.conditions), outcome, "cold pass")
        rows = _rows_json(cold)
        if between is not None:
            between()
        warm_s = []
        if speed is not None:
            speed.restart()
        for _ in range(warm_passes):
            start = _clock()
            warm = _sweep(inputs, grid, store_dir)
            warm_s.append(_clock() - start)
            _check_rows(warm, len(grid.conditions), outcome, "warm pass")
            if _rows_json(warm) != rows:
                outcome.fail("warm pass rows differ from the cold pass")
            if warm.campaign_stats["cache_hits"] != warm.campaign_stats["units"]:
                outcome.fail(
                    f"warm pass: {warm.campaign_stats['cache_hits']} cache hits "
                    f"for {warm.campaign_stats['units']} units"
                )
        if speed is not None:
            # One kernel timing around the whole batch: a warm pass is too
            # short to be bracketed on its own.
            factor = speed.factor()
            warm_s = [wall * factor for wall in warm_s]
        return CampaignPass(cold_s, warm_s, rows, cold.campaign_stats)
    except Exception:  # noqa: BLE001 - a raising pass fails all of its cells
        cells = len(grid.conditions) * (1 + warm_passes)
        outcome.attempted += cells
        outcome.failed += cells
        outcome.notes.append(f"FAILED campaign pass raised:\n{traceback.format_exc()}")
        return None
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


def measure_campaign(inputs: CampaignInputs, seconds: float) -> Outcome:
    """Repeat the cycle of grids, one cold and ``WARM_PASSES`` warm passes
    each, for ``seconds``; end-to-end metrics."""
    outcome = Outcome()
    grids = inputs.grids
    cells = len(grids[0].conditions)
    speed = Speedometer()
    pool_kernel_s = [pool_kernel_seconds(inputs.workers)]
    cold_s: list[float] = []
    warm_s: list[float] = []
    first_cycle: dict[int, str] = {}
    started = _clock()
    index = 0
    while index < len(grids) or _clock() - started < seconds:
        position = index % len(grids)
        grid = grids[position]
        index += 1
        result = _campaign_pass(inputs, grid, outcome, WARM_PASSES, speed=speed)
        pool_kernel_s.append(pool_kernel_seconds(inputs.workers))
        if result is None:
            continue
        cold_s.append(result.cold_s)
        warm_s.extend(result.warm_s)
        if first_cycle.setdefault(position, result.rows) != result.rows:
            outcome.fail(f"grid seed={grid.seed}: a repeated cold pass gave different rows")
    # The digest covers the grid a traced run executes, so both modes print
    # the same digest for a seed.
    outcome.digest = digest_of([json.loads(first_cycle.get(0, "null"))])
    if cold_s:
        # Grids differ in cost, so the cold passes are pooled: cells over
        # the mean wall of every cold pass of the run.  The pool's cores
        # change speed faster than timings around one pass can follow, so
        # the pooled wall is scaled once, by the run's median kernel time
        # on every pool core.
        cold = sum(cold_s) / len(cold_s) * REFERENCE_S / median(pool_kernel_s)
        outcome.metrics = {
            "wall_ms_per_sim_s": cold * 1e3 / (cells * CELL_DURATION_S),
            "cells_per_s": cells / cold,
            "warm_cells_per_s": cells / median(warm_s),
            "peak_rss_mb": peak_rss_mb(include_children=True),
        }
        outcome.notes.append(
            f"{len(cold_s)} cold passes of {cells} cells x {CELL_DURATION_S:g} simulated s "
            f"with {inputs.workers} workers, {len(grids)} grids from seed {grids[0].seed}; "
            f"{len(warm_s)} warm passes; unscaled mean cold pass "
            f"{sum(cold_s) / len(cold_s):.3f} s"
        )
    return outcome


def trace_campaign(inputs: CampaignInputs) -> Outcome:
    """One pass of the first grid untraced, then one traced; per-layer metrics."""
    outcome = Outcome()
    grid = inputs.grids[0]
    untraced = _campaign_pass(inputs, grid, outcome, warm_passes=1)

    tracer = Tracer()
    tracer.install(CAMPAIGN_LAYERS)
    cold: dict[str, Any] = {}

    def after_cold() -> None:
        # The cold pass's figures are kept before the counters restart for
        # the warm pass.
        sweep_s = tracer.span("barometer.campaign:campaign.run_barometer_sweep").total_s
        put = tracer.span("results.store:ResultStore.put")
        get = tracer.span("results.store:ResultStore.get")
        cold.update(
            run_campaign_s=tracer.span("core.campaign:campaign.run_campaign").total_s,
            put_calls=put.calls,
            put_s=put.total_s,
            get_calls=get.calls,
            get_hits=get.items,
            layers=layer_table(tracer, sweep_s),
            spans=tracer.tree(),
        )
        tracer.reset()

    try:
        traced = _campaign_pass(inputs, grid, outcome, warm_passes=1, between=after_cold)
    finally:
        tracer.uninstall()
    if untraced is None or traced is None:
        return outcome

    outcome.digest = digest_of([json.loads(traced.rows)])
    untraced_digest = digest_of([json.loads(untraced.rows)])
    if outcome.digest != untraced_digest:
        outcome.fail(f"traced digest {outcome.digest} != untraced digest {untraced_digest}")
    stats = traced.stats
    warm_get = tracer.span("results.store:ResultStore.get")
    outcome.metrics = {
        "core.campaign.overhead_ms_per_cell": (
            (cold["run_campaign_s"] * inputs.workers - stats["exec_wall_s"]) * 1e3 / stats["units"]
        ),
        "core.campaign.exec_ms_per_cell": stats["exec_wall_s"] * 1e3 / stats["completed"],
        "core.campaign.retry_frac": stats["retries"] / stats["dispatched"],
        "results.store.get_ms": warm_get.total_s * 1e3 / warm_get.calls,
        "results.store.put_ms": cold["put_s"] * 1e3 / cold["put_calls"],
        "results.store.hit_frac": (
            (cold["get_hits"] + warm_get.items) / (cold["get_calls"] + warm_get.calls)
        ),
        "trace.overhead_ratio": traced.cold_s / untraced.cold_s,
    }
    outcome.layers = cold["layers"]
    outcome.spans = cold["spans"]
    outcome.notes.append(
        f"traced cold pass {traced.cold_s:.2f} s vs untraced {untraced.cold_s:.2f} s; "
        f"warm-pass get spans {warm_get.calls}"
    )
    return outcome
