"""Deterministic fault injection and the retry machinery to survive it.

``repro.faults`` gives the simulation the one property the live
Internet forced on the paper's measurement: the substrate can break.
A :class:`FaultPlan` injects loss, latency, transient ``SERVFAIL``,
lame delegations and outage windows at the
:class:`~repro.net.fabric.NetworkFabric`, each verdict a keyed draw on
the delivery and its attempt; a :class:`RetryPolicy` threads bounded
retries with keyed backoff jitter through every network client;
and a :class:`NameserverQuarantine` deprioritises servers that stop
responding until their scheduled re-probe.

The chaos harness (two same-seed runs, one faulty, diffed artifact by
artifact) lives in :mod:`repro.faults.chaos`; it is imported lazily by
the CLI because it depends on the world/study layers above this
package.  See ``docs/ROBUSTNESS.md`` for the full model.
"""

from .crash import CRASH_MODES, CrashPlan
from .plan import FaultKind, FaultPlan, FaultRule, FaultVerdict
from .profiles import PROFILES, FaultProfile
from .quarantine import NameserverQuarantine
from .retry import RetryBudget, RetryPolicy

__all__ = [
    "CRASH_MODES",
    "CrashPlan",
    "FaultKind",
    "FaultPlan",
    "FaultRule",
    "FaultVerdict",
    "FaultProfile",
    "PROFILES",
    "NameserverQuarantine",
    "RetryBudget",
    "RetryPolicy",
]
