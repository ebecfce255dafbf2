"""Exception hierarchy for the ``repro`` library.

Every exception raised by this library derives from :class:`ReproError`,
so callers can catch one base class at an API boundary.  Subsystems define
narrower classes here rather than in their own packages so that the whole
hierarchy is visible in one place and there are no circular imports.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "NetworkError",
    "AddressError",
    "AllocationError",
    "RoutingError",
    "DnsError",
    "NameError_",
    "ZoneError",
    "ResolutionError",
    "DpsError",
    "PortalError",
    "PlanError",
    "SimulationError",
    "MeasurementError",
    "AnalysisError",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointMismatchError",
    "CheckpointSchemaError",
    "SimulatedCrash",
    "ShardError",
    "ShardWorkerError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A component was constructed or wired with invalid parameters."""


# ---------------------------------------------------------------------------
# Network substrate
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for errors in the simulated network substrate."""


class AddressError(NetworkError):
    """An IPv4 address or prefix was malformed or out of range."""


class AllocationError(NetworkError):
    """An address-space allocation could not be satisfied."""


class RoutingError(NetworkError):
    """No route/catchment could be computed for a destination."""


# ---------------------------------------------------------------------------
# DNS substrate
# ---------------------------------------------------------------------------


class DnsError(ReproError):
    """Base class for DNS-related errors."""


class NameError_(DnsError):
    """A domain name was syntactically invalid.

    Named with a trailing underscore to avoid shadowing the Python
    built-in ``NameError``.
    """


class ZoneError(DnsError):
    """A zone is malformed (e.g. record added outside the zone cut)."""


class ResolutionError(DnsError):
    """Recursive resolution failed (loop, depth exceeded, no servers)."""


# ---------------------------------------------------------------------------
# DPS platform
# ---------------------------------------------------------------------------


class DpsError(ReproError):
    """Base class for DPS/CDN platform errors."""


class PortalError(DpsError):
    """An invalid customer-portal operation (e.g. pausing a non-customer)."""


class PlanError(DpsError):
    """The requested feature is not available on the customer's plan."""


# ---------------------------------------------------------------------------
# World / simulation driver
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """The simulated world reached an inconsistent state."""


# ---------------------------------------------------------------------------
# Measurement core
# ---------------------------------------------------------------------------


class MeasurementError(ReproError):
    """A measurement component was used incorrectly (e.g. diffing
    snapshots from non-consecutive days)."""


# ---------------------------------------------------------------------------
# Static analysis
# ---------------------------------------------------------------------------


class AnalysisError(ReproError):
    """The ``repro lint`` engine was misused (bad rule ID, unreadable
    path, malformed baseline file).  Maps to CLI exit code 2."""


# ---------------------------------------------------------------------------
# Checkpoint / resume plane
# ---------------------------------------------------------------------------


class CheckpointError(ReproError):
    """Base class for checkpoint-store and resume failures."""


class CheckpointCorruptError(CheckpointError):
    """Stored state failed an integrity check: a snapshot whose content
    hash does not match its journal record, a journal record corrupted
    mid-file, or a resumed world whose replayed clock disagrees with the
    snapshot.  (A torn *tail* record is not corruption — it is the
    expected signature of a crash mid-append and is discarded.)"""


class CheckpointMismatchError(CheckpointError):
    """A resume was attempted against different inputs than the run that
    wrote the checkpoint — seed, population, study config, or fault
    profile.  Refused loudly rather than silently diverging."""


class CheckpointSchemaError(CheckpointError):
    """The checkpoint was written by an incompatible schema version."""


class SimulatedCrash(ReproError):
    """Raised by a ``CRASH`` fault at its checkpoint barrier — the
    deterministic stand-in for ``kill -9`` that the kill-matrix harness
    uses to cut a study short at a known point."""


# ---------------------------------------------------------------------------
# Sharded execution plane
# ---------------------------------------------------------------------------


class ShardError(ReproError):
    """The sharded study runner or merge detected an inconsistency:
    worker payloads from mismatched topologies or positions, a worker
    process that died without reporting, or merge inputs that could not
    have come from one lockstep run."""


class ShardWorkerError(ShardError):
    """A forked shard worker stopped participating in the lockstep —
    it died mid-protocol or failed to answer an operation within the
    coordinator's deadline.  The coordinator terminates the straggler
    and raises this (naming the shard and the operation) instead of
    blocking forever on a pipe that will never fill."""
