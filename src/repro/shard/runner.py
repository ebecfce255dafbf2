"""The study driver: lockstep workers stepped through one barrier loop.

``N`` workers — in-process objects (``mode="inline"``) or forked OS
processes (``mode="process"``) — each measure one contiguous slice of
the site population on a full replica of the deterministic world.  The
coordinator builds that world once from ``(seed, population)``, warms
it up and installs the run's :class:`~repro.scenario.Scenario`
(:func:`warm_world`); forked workers inherit it and begin their slice
with no build and no warm-up of their own.  Every other worker — the
lone worker, inline workers, and workers spawned where the platform
cannot fork — warms its own identical replica through the same call.
The coordinator drives them day by day through the same phases the
monolithic loop runs:

1. **barrier** — each worker commits its per-shard checkpoint (barrier
   ``k`` before study day ``k`` runs, exactly like the monolithic
   checkpoint plane) and, with more than one worker, answers with its
   report delta since the previous barrier;
2. **collect** — the daily A/CNAME/NS sweep over the worker's slice;
3. **broadcast + scan** (weekly) — the workers ship their harvested
   nameserver names home, the coordinator merges them (sorted union)
   and broadcasts the campaign-wide harvest back, then every worker
   runs the §V sweeps over its slice with the *merged* harvest — the
   one step of the daily loop that genuinely needs cross-shard state;
4. **advance** — the world steps one day (every replica steps
   identically; the lockstep is never allowed to skew).

The coordinator keeps its own copy of the warm world, begun as the
whole-population study once the workers started.  While the workers
collect each day it folds the previous barrier's deltas into its own
report (:func:`~repro.shard.merge.fold_barrier`) and steps its world
one day.  After the last barrier each worker ships only its whole-state
parts (:func:`~repro.shard.merge.worker_payload`); the coordinator
merges them, overlays the result and runs
:meth:`~repro.core.study.SixWeekStudy.finalise`.  The merged report is
byte-identical to a single-process campaign's, whatever the shard
count.  One worker (``N = 1``) is the monolithic run: it always runs
inline and finalises its own runtime — no deltas, no payload, no
merge, no coordinator world.  Plain, checkpointed and sharded studies
all run here.

A one-worker run keeps its checkpoint store at the checkpoint directory
itself.  With more workers the stores nest: the coordinator's manifest
at the top (recording the shard count), one full per-shard store in
``shard-<i>-of-<n>/`` each.  Each barrier's snapshot holds the report
entries gained since the previous barrier, so a seek folds the chain
``0..k``.  A resume seeks every worker to the *lowest* barrier any
shard committed — workers ahead of it simply replay (their journals
already hold the later barriers and are never re-appended), the same
tolerance a torn journal tail gets.
"""

from __future__ import annotations

import functools
import gc
import multiprocessing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..checkpoint.serde import (
    config_to_dict,
    report_partial_to_dict,
    report_position,
    restore_report_partial,
    restore_runtime,
    serialize_runtime,
)
from ..checkpoint.store import CheckpointStore
from ..core.residual_scan import NameserverHarvest
from ..core.study import SixWeekStudy, StudyConfig, StudyReport, StudyRuntime
from ..errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    ConfigurationError,
    ShardError,
    ShardWorkerError,
    SimulatedCrash,
    SimulationError,
)
from ..faults.crash import CrashPlan
from ..scenario import Scenario
from ..world.config import WorldConfig
from ..world.internet import SimulatedInternet
from .merge import (
    barrier_delta,
    fold_barrier,
    merge_payloads,
    overlay_merged,
    worker_payload,
)

__all__ = [
    "DEFAULT_OP_TIMEOUT",
    "WorkerSpec",
    "ShardWorker",
    "InlineExecutor",
    "ProcessExecutor",
    "shard_directory",
    "warm_world",
    "replay_to_snapshot",
    "run_campaign",
    "resume_campaign",
    "run_sharded_study",
]

SHARD_MODES = ("inline", "process")

#: Seconds the coordinator waits for one worker to answer one lockstep
#: operation before declaring it hung.  Generous: a single operation is
#: one study day over one shard's slice, which finishes in seconds even
#: on large populations — a worker silent this long is stuck, not slow.
DEFAULT_OP_TIMEOUT = 120.0

#: Seconds a worker waits for the coordinator's next operation before
#: concluding the coordinator itself is gone and exiting.  Larger than
#: the coordinator's deadline so the coordinator always rules first.
WORKER_IDLE_TIMEOUT = 600.0

#: Granularity of the bounded waits.  Both deadlines are accounted by
#: accumulating poll slices rather than reading the wall clock, so the
#: watchdog stays deterministic to reason about: the budget is a count
#: of slices, not a race against the scheduler.
_POLL_SLICE = 0.05


def shard_directory(base: "Path | str", shard_index: int, shard_count: int) -> Path:
    """Where shard ``shard_index``'s checkpoint store lives under ``base``.

    A one-worker run's store is ``base`` itself.
    """
    if shard_count == 1:
        return Path(base)
    return Path(base) / f"shard-{shard_index}-of-{shard_count}"


def warm_world(spec: "WorkerSpec") -> SimulatedInternet:
    """Build the world, run its warm-up and install the scenario.

    The one world build: the coordinator's world, which forked workers
    inherit, and the world every other worker warms for itself.  A
    study begun on it runs no further warm-up
    (:meth:`SixWeekStudy.begin` only tops the engine's days up to
    ``warmup_days``).  The planes install after the warm-up, so their
    day-windowed rules, background load and attack schedule are
    relative to the same clock day on every build — a resumed run, a
    shard worker and the coordinator's world all regenerate the
    original's.
    """
    world = SimulatedInternet(
        WorldConfig(population_size=spec.population, seed=spec.seed)
    )
    world.engine.run_days(spec.config.warmup_days)
    spec.scenario.install(world)
    return world


def replay_to_snapshot(
    study: SixWeekStudy, runtime: StudyRuntime, state: Dict[str, object]
) -> None:
    """Replay the world to ``state``'s day, check the clock, restore it.

    The world is never serialized: its dynamics are measurement-
    independent, so stepping a freshly begun world ``day_index`` engine
    days reproduces it.  A clock that lands anywhere but the recorded
    ``clock_now`` means the dynamics were not reproduced, and the
    overlaid measurements would silently diverge.
    """
    for _ in range(int(state["day_index"])):
        study.world.engine.run_day()
    _require_clock(study.world, state["clock_now"], "the snapshot")
    restore_runtime(study, runtime, state)


def _require_clock(world: SimulatedInternet, clock_now: object, source: str) -> None:
    """Refuse a replayed world whose clock is not at ``clock_now``."""
    try:
        world.clock.require(int(clock_now))
    except SimulationError as exc:
        raise CheckpointCorruptError(
            f"replayed world clock drifted from {source}: {exc}"
        ) from exc


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to build its replica — picklable, so a
    spawned process can reconstruct the worker from scratch."""

    shard_index: int
    shard_count: int
    population: int
    seed: int
    config: StudyConfig
    scenario: Scenario = Scenario()
    checkpoint_dir: Optional[str] = None
    crash_plan: Optional[CrashPlan] = None
    #: False: fresh run (create the store).  True: open the existing
    #: store and seek to ``seek_barrier`` (-1 = no committed snapshot
    #: anywhere; re-begin from scratch but keep the journal's history).
    resume: bool = False
    seek_barrier: int = -1


class ShardWorker:
    """One shard's replica: full world, slice-wide measurement state.

    ``world`` is a warm world to measure on — a forked worker's copy of
    the coordinator's; without one the worker warms its own
    (:func:`warm_world`).

    Driven operation by operation from the coordinator; every operation
    asserts the worker is at the lockstep position the coordinator
    believes it is, so a skew bug dies loudly instead of merging
    garbage.
    """

    def __init__(
        self, spec: WorkerSpec, world: Optional[SimulatedInternet] = None
    ) -> None:
        self.spec = spec
        self.store = self._attach_store()
        records = self.store.barriers() if self.store is not None else []
        self.latest_barrier = int(records[-1]["barrier"]) if records else -1
        #: Where the report's series stood at the last barrier crossed:
        #: the base the next committed snapshot and the next answer to
        #: the coordinator are deltas from.  None before the first
        #: barrier crossed (barrier 0, or the seek barrier of a resume),
        #: whose delta is whole.
        self._since: Optional[Dict[str, int]] = None
        if world is None:
            world = warm_world(spec)
        self.study = SixWeekStudy(world, spec.config)
        self.runtime = self.study.begin(spec.shard_index, spec.shard_count)
        if spec.resume and spec.seek_barrier >= 0:
            self._seek(records)

    # -- construction --------------------------------------------------

    def _attach_store(self) -> Optional[CheckpointStore]:
        spec = self.spec
        if spec.checkpoint_dir is None:
            return None
        identity = dict(
            seed=spec.seed,
            population=spec.population,
            config=config_to_dict(spec.config),
            scenario=spec.scenario,
            shard=(
                {"index": spec.shard_index, "count": spec.shard_count}
                if spec.shard_count > 1
                else None
            ),
        )
        if spec.resume:
            store = CheckpointStore.open(spec.checkpoint_dir)
            store.verify_inputs(**identity)
            return store
        return CheckpointStore.create(spec.checkpoint_dir, **identity)

    def _seek(self, records: List[Dict[str, object]]) -> None:
        """Fold the snapshot chain up to ``seek_barrier`` and replay to it.

        Each snapshot's report is a delta on the one before, so the
        report series of barriers ``0..target-1`` are folded in order
        (every snapshot hash-verified as it loads); then the world
        replays once and the target's snapshot overlays its own delta
        and the whole-state parts.
        """
        target = self.spec.seek_barrier
        if target > self.latest_barrier:
            raise ShardError(
                f"shard {self.spec.shard_index} was asked to seek to "
                f"barrier {target} but has only committed up to "
                f"{self.latest_barrier}"
            )
        for record in records[:target]:  # contiguous from 0
            state = self.store.load_snapshot(record)
            restore_report_partial(self.runtime.report, state["report"])
        state = self.store.load_snapshot(records[target])
        replay_to_snapshot(self.study, self.runtime, state)

    # -- lockstep operations -------------------------------------------

    def dispatch(self, op: str, argument: object = None) -> object:
        """Execute one coordinator-issued operation."""
        if op == "barrier":
            return self._op_barrier(int(argument))
        if op == "collect":
            return self.study.collect_day(self.runtime)
        if op == "harvest_names":
            return self.runtime.harvest.state_dict()
        if op == "scan":
            return self._op_scan(argument)
        if op == "advance":
            return self.study.advance_day(self.runtime)
        if op == "finish":
            return worker_payload(self.study, self.runtime, self._since)
        if op == "finalise":
            return self.study.finalise(self.runtime)
        raise ShardError(f"unknown shard operation {op!r}")

    def _op_barrier(self, barrier: int) -> object:
        """Commit barrier ``barrier`` if it is new; answer the coordinator.

        A lone worker answers its latest committed barrier.  With more,
        every worker answers its report delta since the barrier before
        (:func:`~repro.shard.merge.barrier_delta`) — the same dict it
        commits, serialized once.  After a resume's seek the base is
        None, so the first answer carries days ``0..k-1`` whole.
        """
        if barrier != self.runtime.day_index:
            raise ShardError(
                f"shard {self.spec.shard_index} sits at day "
                f"{self.runtime.day_index} but the coordinator announced "
                f"barrier {barrier}; the lockstep has skewed"
            )
        shipping = self.spec.shard_count > 1
        report: Optional[Dict[str, object]] = None
        if barrier > self.latest_barrier:
            crash_plan = self.spec.crash_plan
            if crash_plan is not None:
                crash_plan.fire_if_due(barrier, "before-commit")
            if self.store is not None:
                state = serialize_runtime(self.study, self.runtime, since=self._since)
                report = state["report"]
                self.store.append_barrier(
                    barrier=barrier,
                    day=self.study.world.clock.day,
                    clock_now=self.study.world.clock.now,
                    state=state,
                )
            if crash_plan is not None:
                crash_plan.fire_if_due(barrier, "after-commit")
            self.latest_barrier = barrier
        if shipping and report is None:
            report = report_partial_to_dict(self.runtime.report, self._since)
        # Re-crossed barriers move the base too: a resumed worker that
        # committed past the seek barrier must not make its next delta
        # span the days it replayed.
        self._since = report_position(self.runtime.report)
        if not shipping:
            return self.latest_barrier
        return barrier_delta(self.runtime, barrier, report)

    def _op_scan(self, merged_names: object) -> None:
        """Run the weekly sweeps with the broadcast campaign harvest."""
        broadcast = NameserverHarvest()
        broadcast.restore_state(merged_names)
        self.runtime.scan_harvest = broadcast
        self.study.scan_day(self.runtime)


# -- executors --------------------------------------------------------------


class InlineExecutor:
    """All workers in this process, stepped sequentially.

    The reference executor: no transport, no pickling, identical
    semantics — equivalence tests run against it, and it is the mode of
    choice when the campaign is small enough that process fan-out costs
    more than it buys.
    """

    def __init__(self, specs: Sequence[WorkerSpec]) -> None:
        self._specs = list(specs)
        self._workers: List[ShardWorker] = []

    def start(self) -> None:
        self._workers = [ShardWorker(spec) for spec in self._specs]

    def call_all(
        self,
        op: str,
        argument: object = None,
        meanwhile: Optional[Callable[[], None]] = None,
    ) -> List[object]:
        """Run ``op`` on every worker, then ``meanwhile``."""
        results = [worker.dispatch(op, argument) for worker in self._workers]
        if meanwhile is not None:
            meanwhile()
        return results

    def close(self) -> None:
        self._workers = []


class ProcessExecutor:
    """One forked worker process per shard, coordinated over pipes.

    Fork is preferred where available: the parent's imports and
    ``world`` — the coordinator's warm world — are shared copy-on-write,
    never pickled, and every worker measures on its own copy.  Spawn
    works too because :class:`WorkerSpec` is picklable and the worker
    entrypoint is a module-level function; a spawned worker warms its
    own world.  A
    :class:`~repro.errors.SimulatedCrash` in any worker ends the whole
    campaign — the surviving processes are terminated and the crash is
    re-raised in the coordinator, exactly as the inline mode propagates
    it.

    Every wait on a worker is bounded.  The coordinator never issues a
    blind ``recv()``: it polls with a deadline (``op_timeout``), checks
    the process is still alive, and on expiry terminates the stragglers
    and raises :class:`~repro.errors.ShardWorkerError` naming them — a
    hung or killed worker fails the campaign loudly instead of
    deadlocking the study.
    """

    def __init__(
        self,
        specs: Sequence[WorkerSpec],
        op_timeout: Optional[float] = None,
        world: Optional[SimulatedInternet] = None,
    ) -> None:
        self._specs = list(specs)
        self._op_timeout = (
            float(op_timeout) if op_timeout is not None else DEFAULT_OP_TIMEOUT
        )
        forking = "fork" in multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context("fork" if forking else "spawn")
        self._world = world if forking else None
        self._processes: List[object] = []
        self._connections: List[object] = []

    def start(self) -> None:
        for spec in self._specs:
            parent_end, child_end = self._context.Pipe()
            # A forked worker inherits every coordinator end open at
            # fork time, its own included; it closes them first so the
            # coordinator's close() reaches it as EOF.
            inherited = self._connections + [parent_end]
            process = self._context.Process(
                target=_worker_main,
                args=(child_end, spec, inherited, self._world),
                daemon=True,
            )
            process.start()
            child_end.close()
            self._processes.append(process)
            self._connections.append(parent_end)
        self._gather("start")

    def call_all(
        self,
        op: str,
        argument: object = None,
        meanwhile: Optional[Callable[[], None]] = None,
    ) -> List[object]:
        """Send ``op`` to every worker, run ``meanwhile``, then gather.

        ``meanwhile`` is the coordinator's own work for the step — it
        runs while the workers execute ``op``.  If it fails, the workers
        are terminated before the failure propagates.
        """
        undeliverable: List[int] = []
        for index, connection in enumerate(self._connections):
            try:
                connection.send((op, argument))
            except (BrokenPipeError, OSError):
                # The worker's pipe end is gone — it died between
                # operations.  Recorded here, reported (with any other
                # deaths) by the gather's refusal.
                undeliverable.append(index)
        if meanwhile is not None:
            try:
                meanwhile()
            except BaseException:  # repro: allow[REP021] -- whatever stops the coordinator mid-step must terminate the busy workers before it propagates
                self.close(force=True)
                raise
        return self._gather(op, undeliverable)

    def _await_reply(self, connection: object, process: object) -> bool:
        """Bounded wait for one worker's next message.

        Returns True when a message (or the EOF of a dead worker's
        closed pipe) is ready to ``recv()``, False when the deadline
        expired with the worker still alive and silent — a straggler.
        The deadline is accounted by accumulating poll slices, never by
        reading the wall clock.
        """
        waited = 0.0
        while waited < self._op_timeout:
            if connection.poll(_POLL_SLICE):
                return True
            if not process.is_alive():
                # recv() still drains anything the worker wrote before
                # exiting; on an empty closed pipe it raises EOFError
                # and the caller maps that to the died-mid-protocol
                # refusal.
                return True
            waited += _POLL_SLICE
        return False

    def _gather(
        self, op: str, undeliverable: Sequence[int] = ()
    ) -> List[object]:
        results: List[object] = []
        crashes: List[str] = []
        failures: List[object] = []
        dead: List[int] = list(undeliverable)
        stragglers: List[int] = []
        for index, connection in enumerate(self._connections):
            if index in dead:
                continue
            if not self._await_reply(connection, self._processes[index]):
                stragglers.append(index)
                continue
            try:
                kind, value = connection.recv()
            except (EOFError, OSError):
                kind, value = "dead", None
            if kind == "ok":
                results.append(value)
            elif kind == "crashed":
                crashes.append(f"shard {index}: {value}")
            elif kind == "dead":
                dead.append(index)
            else:
                failures.append(value)
        if failures:
            self.close(force=True)
            # Workers ship the exception object itself when it pickles,
            # so refusal semantics survive the process boundary — a
            # CheckpointCorruptError in a worker's seek is the same
            # refusal it would be inline.
            first = failures[0]
            if isinstance(first, BaseException):
                raise first
            raise ShardError(f"worker failure during {op!r}: {first}")
        if crashes:
            self.close(force=True)
            raise SimulatedCrash("; ".join(crashes))
        if dead or stragglers:
            self.close(force=True)
            parts = []
            if dead:
                named = ", ".join(f"shard {index}" for index in dead)
                parts.append(f"{named} died mid-protocol without reporting")
            if stragglers:
                named = ", ".join(f"shard {index}" for index in stragglers)
                parts.append(
                    f"{named} did not answer within "
                    f"{self._op_timeout:g}s and was terminated"
                )
            raise ShardWorkerError(
                f"lockstep operation {op!r} lost worker(s): "
                + "; ".join(parts)
            )
        return results

    def close(self, force: bool = False) -> None:
        for connection in self._connections:
            connection.close()
        for process in self._processes:
            # A forced close follows a failure and terminates at once: a
            # hung or mid-operation worker is not reading its pipe, so
            # it would not see the EOF that ends a healthy one.
            if not force:
                process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        self._processes = []
        self._connections = []


def _worker_main(
    connection,
    spec: WorkerSpec,
    inherited: Sequence,
    world: Optional[SimulatedInternet],
) -> None:
    """Entrypoint of a worker process (module-level for spawn safety).

    The worker runs until the coordinator closes its pipe end, which
    arrives here as EOF.
    """
    for end in inherited:
        end.close()
    try:
        try:
            worker = ShardWorker(spec, world)
            connection.send(("ok", worker.latest_barrier))
            while True:
                # The worker-side half of the deadlock fix: never block
                # forever on a coordinator that hung without closing its
                # pipe (a killed one's pipe closes, which reads as EOF).
                waited = 0.0
                while not connection.poll(_POLL_SLICE):
                    waited += _POLL_SLICE
                    if waited >= WORKER_IDLE_TIMEOUT:
                        raise ShardWorkerError(
                            f"shard {spec.shard_index} waited "
                            f"{WORKER_IDLE_TIMEOUT:g}s for the "
                            "coordinator's next operation; giving up"
                        )
                op, argument = connection.recv()
                result = worker.dispatch(op, argument)
                connection.send(("ok", result))
        except SimulatedCrash as crash:
            connection.send(("crashed", str(crash)))
        except EOFError:
            pass  # coordinator went away; nothing to report to
        except Exception as exc:  # repro: allow[REP021] -- a worker process must report any failure over the pipe, not die silently with a broken campaign
            try:
                connection.send(("error", exc))
            except Exception:  # repro: allow[REP021] -- unpicklable exception; fall back to its text
                connection.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        connection.close()


# -- the coordinator --------------------------------------------------------


def run_campaign(
    *,
    population: int,
    seed: int,
    config: Optional[StudyConfig] = None,
    shard_count: int = 1,
    mode: str = "inline",
    checkpoint_dir: "Path | str | None" = None,
    crash_plan: Optional[CrashPlan] = None,
    op_timeout: Optional[float] = None,
    **profiles: Optional[str],
) -> StudyReport:
    """Run a study from scratch over ``shard_count`` lockstep workers.

    ``profiles`` name the planes by :meth:`Scenario.of` keyword; an
    unknown name or keyword is refused before anything touches disk.
    With ``checkpoint_dir`` every worker commits a barrier per day into
    its store (:func:`shard_directory`); a campaign of more than one
    worker also writes the coordinator's manifest at the top, and
    :func:`resume_campaign` continues a killed run on the identical
    trajectory.  ``crash_plan`` arms the same
    :class:`~repro.faults.crash.CrashPlan` in *every* worker — the kill
    matrix's fault kind.
    """
    scenario = Scenario.of(**profiles)
    config = config if config is not None else StudyConfig()
    _require_mode(mode)
    if shard_count < 1:
        raise ConfigurationError(f"shard_count must be >= 1, got {shard_count}")
    if shard_count > population:
        raise ConfigurationError(
            f"cannot split a population of {population} over {shard_count} "
            "shard(s); every shard needs at least one site"
        )
    base = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if base is not None and shard_count > 1:
        CheckpointStore.create(
            base,
            seed=seed,
            population=population,
            config=config_to_dict(config),
            scenario=scenario,
            shard={"count": shard_count},
        )
    template = WorkerSpec(
        shard_index=0,
        shard_count=shard_count,
        population=population,
        seed=seed,
        config=config,
        scenario=scenario,
        crash_plan=crash_plan,
    )
    return _drive(_fan_out(template, base), mode, 0, op_timeout)


def resume_campaign(
    checkpoint_dir: "Path | str",
    *,
    population: int,
    seed: int,
    config: Optional[StudyConfig] = None,
    mode: str = "inline",
    crash_plan: Optional[CrashPlan] = None,
    op_timeout: Optional[float] = None,
    **profiles: Optional[str],
) -> StudyReport:
    """Continue a crashed study, one-worker or sharded, from its manifest.

    The shard count is read from the manifest.  Every worker seeks to the
    lowest barrier committed by *any* shard — workers that got further
    replay up to their journals' existing records without re-appending
    them.  Refuses loudly when the supplied inputs differ from the
    manifest (:class:`CheckpointMismatchError`), when no journal holds a
    committed barrier, when a snapshot or mid-journal record is damaged
    (:class:`CheckpointCorruptError`), or when the replayed world's
    clock drifts from the snapshot's recorded position — drift means
    world dynamics were not reproduced and the resumed measurements
    would silently diverge.
    """
    scenario = Scenario.of(**profiles)
    config = config if config is not None else StudyConfig()
    _require_mode(mode)
    base = Path(checkpoint_dir)
    top = CheckpointStore.open(base)
    count = _recorded_shard_count(top)
    top.verify_inputs(
        seed=seed,
        population=population,
        config=config_to_dict(config),
        scenario=scenario,
        shard={"count": count} if count > 1 else None,
    )
    latest_barriers: List[int] = []
    for index in range(count):
        record = CheckpointStore.open(shard_directory(base, index, count)).latest()
        latest_barriers.append(int(record["barrier"]) if record else -1)
    if max(latest_barriers) < 0:
        raise CheckpointError(
            f"checkpoint at {base} holds no committed barriers; nothing "
            "to resume — rerun from scratch"
        )
    seek_barrier = min(latest_barriers)
    template = WorkerSpec(
        shard_index=0,
        shard_count=count,
        population=population,
        seed=seed,
        config=config,
        scenario=scenario,
        crash_plan=crash_plan,
        resume=True,
        seek_barrier=seek_barrier,
    )
    return _drive(
        _fan_out(template, base), mode, max(seek_barrier, 0), op_timeout
    )


#: The name the frozen campaign benchmark calls; the same driver.
run_sharded_study = run_campaign


# -- internals -------------------------------------------------------------


def _require_mode(mode: str) -> None:
    if mode not in SHARD_MODES:
        raise ShardError(
            f"unknown shard mode {mode!r}; expected one of {SHARD_MODES}"
        )


def _recorded_shard_count(store: CheckpointStore) -> int:
    """The worker count of the run whose top-level manifest ``store`` is."""
    recorded = store.manifest.get("shard")
    if recorded is None:
        return 1
    if "index" in recorded:
        raise CheckpointMismatchError(
            f"{store.directory} is shard {recorded['index']}'s store of a "
            f"{recorded['count']}-shard campaign; resume the campaign "
            "directory above it"
        )
    return int(recorded["count"])


def _fan_out(template: WorkerSpec, base: Optional[Path]) -> List[WorkerSpec]:
    """One spec per shard, each pointed at its own checkpoint store."""
    count = template.shard_count
    return [
        replace(
            template,
            shard_index=index,
            checkpoint_dir=(
                str(shard_directory(base, index, count)) if base is not None else None
            ),
        )
        for index in range(count)
    ]


def _drive(
    specs: Sequence[WorkerSpec],
    mode: str,
    start_barrier: int,
    op_timeout: Optional[float] = None,
) -> StudyReport:
    """Step the workers through every barrier, then finalise.

    A lone worker measured the whole population, so its runtime *is*
    the monolithic one: it runs inline (a process would buy nothing)
    and finalises in place.  With several workers the coordinator warms
    one world first; forked workers measure on copies of it.  While the
    workers collect each day, the coordinator folds the previous
    barrier's deltas into its own runtime and steps its world one day;
    after the last barrier it overlays the merged whole-state payloads
    and finalises.
    """
    spec = specs[0]
    if len(specs) == 1:
        executor = InlineExecutor(specs)
        try:
            executor.start()
            # The built, warmed world lives for the whole run: frozen, it
            # is out of every full collection's walk.
            gc.freeze()
            _drive_lockstep(executor, spec.config, start_barrier)
            return executor.call_all("finalise")[0]
        finally:
            gc.unfreeze()
            executor.close()
    world = warm_world(spec)
    executor = (
        ProcessExecutor(specs, op_timeout=op_timeout, world=world)
        if mode == "process"
        else InlineExecutor(specs)
    )
    # The warm world lives for the whole run, so it is moved out of the
    # cyclic collector's reach.  Frozen before the fork, it stays out of
    # the workers' collections too, which then never write its objects'
    # GC headers and so never copy its pages just to collect.
    gc.freeze()
    try:
        executor.start()
        try:
            study = SixWeekStudy(world, spec.config)
            runtime = study.begin()
            # A resume starts at its seek barrier: the coordinator's
            # world replays to it, and the first deltas carry the days
            # before it whole.
            for _ in range(start_barrier):
                study.advance_day(runtime)

            def fold(deltas: List[object]) -> None:
                fold_barrier(runtime, deltas)
                # The coordinator's world keeps pace with the workers'.
                if not runtime.finished:
                    study.advance_day(runtime)

            _drive_lockstep(executor, spec.config, start_barrier, fold)
            merged = merge_payloads(executor.call_all("finish"))
        finally:
            executor.close()
        _require_clock(world, merged["clock_now"], "the workers' clock")
        overlay_merged(study, runtime, merged)
        return study.finalise(runtime)
    finally:
        gc.unfreeze()


def _drive_lockstep(
    executor: "InlineExecutor | ProcessExecutor",
    config: StudyConfig,
    start_barrier: int,
    fold: Optional[Callable[[List[object]], None]] = None,
) -> None:
    """The barrier loop: barrier → collect → (scan) → advance.

    ``fold`` is the coordinator's share of the loop: it takes each
    barrier's answers while the workers collect the next day, and the
    last barrier's once the loop ends.
    """
    day = start_barrier
    while True:
        answers = executor.call_all("barrier", day)
        if day >= config.study_days:
            break
        executor.call_all(
            "collect",
            meanwhile=functools.partial(fold, answers) if fold is not None else None,
        )
        if config.run_residual_scans and day % config.scan_every_days == 0:
            name_lists = executor.call_all("harvest_names")
            campaign_harvest = sorted(
                {name for names in name_lists for name in names}
            )
            executor.call_all("scan", campaign_harvest)
        executor.call_all("advance")
        day += 1
    if fold is not None:
        fold(answers)
