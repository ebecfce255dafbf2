"""The benchmark's workloads and the metrics it reports.

Shared by the runner (``run.py``) and the measured child
(``campaign.py``); ``BENCHMARK.json`` at the repository root lists the
same names, which the benchmark's tests cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: The paper's warm-up (§IV): provider databases reach the steady-state
#: population of stale records the week-1 scan saw.  Never rescaled.
WARMUP_DAYS = 56
DEFAULT_SEED = 2018
#: Pinned in every measured child so str/bytes hashing, and with it any
#: set or dict order it could reach, is the same on every run.
PYTHONHASHSEED = "0"


@dataclass(frozen=True)
class Workload:
    name: str
    population: int
    study_days: int
    traffic_profile: Optional[str] = None
    attack_profile: Optional[str] = None
    #: Commit a checkpoint barrier every day (run_checkpointed_study).
    durable: bool = False
    #: Forked shard workers (run_sharded_study, mode="process"); 1 runs
    #: the monolithic SixWeekStudy loop.
    shards: int = 1

    def inputs_key(self, seed: int) -> str:
        """Everything that determines the study's artifacts.

        The shard count and checkpointing are absent on purpose: the
        artifacts must not depend on them, so ``campaign`` and
        ``campaign_sharded`` share a key and must share a digest.
        """
        return (
            f"seed={seed};population={self.population};warmup={WARMUP_DAYS};"
            f"days={self.study_days};traffic={self.traffic_profile};"
            f"attacks={self.attack_profile}"
        )


# Rescaled from the p5000 x 14 / p2000 x 21 shapes so that three runs,
# each a fresh interpreter, fit one measurement window.  The paper
# warm-up and two weekly scans (study days 0 and 7) are kept, and every
# setup stays at 2 s or more: sub-second setups were the noisiest
# numbers the benchmark reported.
WORKLOADS: Dict[str, Workload] = {
    # Collection-bound: dns, net and core.collector dominate, and no
    # checkpoint, shard, traffic or attack code runs.
    "campaign": Workload("campaign", population=3000, study_days=8),
    # The same resolver under throttling and failover while origin floods
    # drive JOIN waves, with a barrier committed every day: serde cost
    # grows with study length.
    "campaign_durable": Workload(
        "campaign_durable",
        population=2800,
        study_days=8,
        traffic_profile="surge",
        attack_profile="campaign",
        durable=True,
    ),
    # campaign's inputs over two forked workers: three world builds,
    # redundant collection CPU and a serial coordinator tail.
    "campaign_sharded": Workload(
        "campaign_sharded", population=3000, study_days=8, shards=2
    ),
}

#: ``(name, unit)`` reported by an untraced run, all medians over runs.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("site_days_per_s", "site-days/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("measured_frac", "ratio"),
)

#: Span-name totals (seconds) reported as ``<span>_s``.
SPAN_SECONDS = (
    "world.build",
    "world.engine.day",
    "core.study.begin",
    "core.collector.collect",
    "core.residual_scan.harvest_resolve",
    "core.residual_scan.scan",
    "core.pipeline.run",
    "core.study.finalise",
    "core.report.render",
    "core.export.save",
    "traffic.drive",
    "attacks.drive",
    "checkpoint.serialize",
    "checkpoint.append",
    "shard.op.start",
    "shard.op.barrier",
    "shard.op.collect",
    "shard.op.harvest_names",
    "shard.op.scan",
    "shard.op.advance",
    "shard.op.finish",
    "shard.merge",
    "shard.overlay",
)

#: Layers whose self time (span minus covered children) is reported as
#: ``self.<layer>_s``.  DNS resolution and fabric delivery run inside
#: the collector and scanner spans and count as their self time.
LAYERS = (
    "world",
    "core.study",
    "core.status",
    "core.collector",
    "core.residual_scan",
    "core.pipeline",
    "core.report",
    "traffic",
    "attacks",
    "checkpoint",
    "shard",
)

#: ``(name, unit)`` reported by a traced run.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    *((f"{span}_s", "s") for span in SPAN_SECONDS),
    ("world.build_calls", "count"),
    ("world.engine.days", "count"),
    ("core.collector.site_days", "count"),
    ("core.collector.us_per_site_day", "us"),
    ("core.status.observe_s", "s"),
    ("dns.resolver.queries_sent", "count"),
    ("dns.resolver.resolutions", "count"),
    ("dns.resolver.queries_per_resolution", "ratio"),
    ("dns.cache.hit_ratio", "ratio"),
    ("dns.resolver.failovers", "count"),
    ("dns.resolver.throttled", "count"),
    ("dns.resolver.attack_outage", "count"),
    ("dns.resolver.gave_up", "count"),
    ("traffic.throttled", "count"),
    ("traffic.shed", "count"),
    ("attacks.dns_outage", "count"),
    ("checkpoint.barriers", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.last_barrier_s", "s"),
    ("shard.replay_s", "s"),
    ("shard.tail_s", "s"),
    ("py.gc_s", "s"),
    ("py.gc.gen2_collections", "count"),
    *((f"self.{layer}_s", "s") for layer in LAYERS),
    ("unmeasured_frac", "ratio"),
    ("run.partial_days", "count"),
    ("run.partial_scan_weeks", "count"),
    ("run.scan_queries_throttled", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
)
