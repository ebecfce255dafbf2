"""The paper's contribution: the measurement methodology and analyses.

Collectors, matchers, status/behaviour inference, the FSM, the hidden-
record filter pipeline, the residual-resolution scanners, the attacker
and countermeasures, and the six-week study orchestrator.
"""

from .attacker import (
    AttackOutcome,
    DdosSimulator,
    DiscoveryResult,
    ResidualResolutionAttacker,
)
from .behaviors import BehaviorDetector, MeasuredBehavior, MultiCdnFilter
from .collector import DayTable, DnsRecordCollector, DomainSnapshot
from .countermeasures import (
    apply_provider_policy,
    leave_with_fake_a,
    silent_termination,
    track_and_compare,
)
from .export import report_to_dict, save_report
from .exposure import ExposureSummary, ExposureTimeline
from .fsm import DpsUsageFsm, FsmState
from .history import HistoryEntry, PassiveDnsDb
from .htmlverify import HtmlVerifier, VerificationOutcome
from .ip_change import IpChangeExperiment, IpChangeResult, IpUnchangedRow
from .matching import ProviderMatcher
from .pause import PauseAnalyzer, PauseWindow, empirical_cdf
from .pipeline import FilterPipeline, HiddenRecord, PipelineReport, RetrievedRecord
from .purge_probe import PurgeProbe, PurgeTrial
from .report import (
    render_fig2_adoption,
    render_fig3_behaviors,
    render_fig5_pause_cdf,
    render_fig6_cloudflare,
    render_fig7_vantage,
    render_fig9_exposure,
    render_full_report,
    render_table5_ip_unchanged,
    render_table6_residual,
)
from .residual_scan import CloudflareScanner, IncapsulaScanner, NameserverHarvest
from .stats import (
    CalibrationCheck,
    count_zscore,
    poisson_interval,
    proportion_zscore,
    wilson_interval,
)
from .status import DpsObservation, DpsStatus, StatusDeterminer
from .study import SixWeekStudy, StudyConfig, StudyReport
from .vectors import (
    DEFAULT_SUBDOMAIN_WORDLIST,
    OriginExposureScanner,
    VectorFinding,
)

__all__ = [
    "AttackOutcome",
    "DdosSimulator",
    "DiscoveryResult",
    "ResidualResolutionAttacker",
    "BehaviorDetector",
    "MeasuredBehavior",
    "MultiCdnFilter",
    "DayTable",
    "DnsRecordCollector",
    "DomainSnapshot",
    "apply_provider_policy",
    "leave_with_fake_a",
    "silent_termination",
    "track_and_compare",
    "report_to_dict",
    "save_report",
    "ExposureSummary",
    "ExposureTimeline",
    "DpsUsageFsm",
    "FsmState",
    "HtmlVerifier",
    "VerificationOutcome",
    "IpChangeExperiment",
    "IpChangeResult",
    "IpUnchangedRow",
    "ProviderMatcher",
    "PauseAnalyzer",
    "PauseWindow",
    "empirical_cdf",
    "FilterPipeline",
    "HiddenRecord",
    "PipelineReport",
    "RetrievedRecord",
    "PurgeProbe",
    "PurgeTrial",
    "render_fig2_adoption",
    "render_fig3_behaviors",
    "render_fig5_pause_cdf",
    "render_fig6_cloudflare",
    "render_fig7_vantage",
    "render_fig9_exposure",
    "render_full_report",
    "render_table5_ip_unchanged",
    "render_table6_residual",
    "CloudflareScanner",
    "IncapsulaScanner",
    "NameserverHarvest",
    "CalibrationCheck",
    "count_zscore",
    "poisson_interval",
    "proportion_zscore",
    "wilson_interval",
    "DpsObservation",
    "DpsStatus",
    "StatusDeterminer",
    "SixWeekStudy",
    "StudyConfig",
    "StudyReport",
    "HistoryEntry",
    "PassiveDnsDb",
    "DEFAULT_SUBDOMAIN_WORDLIST",
    "OriginExposureScanner",
    "VectorFinding",
]
