"""The discrete-event simulation loop.

Each delivery task flows through three stages, each a planning query
issued online at the moment the stage begins:

1. *pickup* — the assigned robot drives from its cell to the rack;
2. *transmission* — the robot carries the rack to the picker;
3. *return* — the robot carries the rack back to its home cell.

Tasks arrive at their release times; a task waits in FIFO order until a
robot is idle.  Planning is instantaneous in simulated time (TC is wall
time, accounted separately by the planner), matching the paper's test
environment, which measures algorithm time while the warehouse clock
advances with robot motion.

**Execution disturbances.**  An optional seeded
:class:`~repro.simulation.faults.FaultPlan` injects robot stalls,
transient cell blockages, slowdowns and aisle closures mid-run.  In the
default ``recovery="serial"`` mode each fault triggers a
*stop-and-replan* recovery (after Kulich et al.'s "Push, Stop, and
Replan"): the disturbed robot's committed route suffix is decommitted
and replanned from its actual position via
:meth:`~repro.core.planner.SRPPlanner.replan_from`, and a bounded
cascade stops-and-replans any other robot whose surviving route now
conflicts with the disturbance.  ``recovery="joint"`` instead groups
mutually conflicting robots into clusters and recovers each cluster
jointly (prioritised replanning, CBS escalation, serial fallback) via
:mod:`repro.simulation.recovery`.  With an empty fault plan the
engine's behaviour is bit-identical to an undisturbed run in either
mode.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.validate import (
    Conflict,
    audit_planner_state,
    find_conflicts,
    find_illegal_cells,
)
from repro.exceptions import PlanningFailedError, SimulationError
from repro.planner_base import Planner
from repro.simulation.charging import ChargingScheduler, ChargingStation
from repro.simulation.dispatch import (
    BatteryAwareDispatcher,
    Dispatcher,
    NearestIdleDispatcher,
)
from repro.simulation.energy import BatterySpec, FleetEnergy
from repro.simulation.faults import (
    AisleClosureFault,
    BlockageFault,
    Fault,
    FaultPlan,
    SlowdownFault,
    StallFault,
)
from repro.simulation.metrics import ProgressSnapshot, SimulationMetrics
from repro.simulation.recovery import resolve_joint, stretch_route_suffix
from repro.simulation.robots import Robot, RobotFleet
from repro.types import Grid, Query, QueryKind, Route, Task
from repro.warehouse.matrix import Warehouse

_STAGE_KINDS = (QueryKind.PICKUP, QueryKind.TRANSMISSION, QueryKind.RETURN)

#: event-heap entry: (time, seq, kind, payload); kinds: 0 release,
#: 1 stage done, 2 fault injection
_Event = Tuple[int, int, int, Any]

#: busy horizon marking a robot as claimed while its stage is planned
_CLAIMED = 1 << 60

#: recovery-cascade rounds tried per fault before declaring divergence
_MAX_RECOVERY_ROUNDS = 32


@dataclass
class SimulationResult:
    """End-of-day aggregates of one simulated day."""

    planner_name: str
    n_tasks: int
    completed_tasks: int
    failed_tasks: int
    makespan: int  # the paper's OG
    tc_seconds: float  # the paper's TC
    peak_mc_bytes: Optional[int]  # max of the paper's MC curve
    snapshots: List[ProgressSnapshot]
    conflicts: List[Conflict]
    #: faults injected from the fault plan (0 on undisturbed runs)
    faults_injected: int = 0
    #: successful decommit/replan recoveries performed
    replans: int = 0
    #: tasks abandoned because a recovery replan failed
    recovery_failures: int = 0
    #: planner-state audit findings (filled when ``validate=True`` and
    #: the planner exposes auditable stores; empty means stores and
    #: crossings exactly matched the surviving routes)
    audit_violations: List[str] = field(default_factory=list)
    #: recovery strategy the run was configured with
    recovery: str = "serial"
    #: recovery planning operations attempted (``replan_from`` calls
    #: plus externally planned suffix commits) — with
    #: ``decommitted_segments`` the serial-vs-joint efficiency metric
    replan_attempts: int = 0
    #: store segments removed by route decommits
    decommitted_segments: int = 0
    #: conflict clusters recovered jointly (0 on serial runs)
    recovery_clusters: int = 0
    #: largest cluster seen over the day
    max_cluster_size: int = 0
    #: robots that went through joint cluster recovery
    cluster_robots: int = 0
    #: clusters escalated to CBS after prioritised replanning failed
    recovery_cbs: int = 0
    #: clusters that fell back to the serial hold-and-replan ladder
    recovery_serial: int = 0
    #: in-flight routes stretched by slowdown faults
    slowdown_stretches: int = 0
    #: aisle-closure cells committed as blockage pseudo-routes
    closure_cells: int = 0
    #: structured recovery events (cluster recoveries, abandoned
    #: tasks), bounded; each carries size/strategy/decommit counts
    recovery_events: List[Dict[str, object]] = field(default_factory=list)
    #: charge trips launched over the day (0 with the battery disabled)
    charge_trips: int = 0
    #: charge-trip legs abandoned because planning failed (retried on a
    #: later event; a persistently failing trip shows up here loudly)
    charge_aborts: int = 0
    #: total estimated seconds robots queued for busy charging pads
    charge_queue_wait: int = 0
    #: robots whose battery hit zero — must be 0 on a well-provisioned
    #: day; anything else means the thresholds were too tight
    stranded_robots: int = 0
    #: total charge units drained executing routes over the day
    energy_drained: int = 0
    #: charging stations the day was provisioned with
    charge_stations: int = 0

    @property
    def og(self) -> int:
        """Alias matching the paper's metric name."""
        return self.makespan


@dataclass
class _ActiveTask:
    """One in-flight stage: a delivery leg, or a charge-trip leg.

    ``charging`` trips carry no :class:`~repro.types.Task`; their
    ``stage`` indexes the charge-trip phases instead (0 travel to the
    station's queue cell, 1 dock on the pad, 2 clear to the exit cell).
    Both kinds flow through the same executing map, the same stage-done
    events and the same recovery machinery.
    """

    task: Optional[Task]
    robot: Robot
    stage: int = 0  # index into _STAGE_KINDS (or the charge phases)
    #: query id and committed route of the stage being executed
    query_id: int = -1
    route: Optional[Route] = None
    #: bumped on every recovery replan; stage-done events carry the
    #: epoch they were scheduled under, so superseded events are inert
    epoch: int = 0
    #: True for charge-trip legs (battery-triggered detours)
    charging: bool = False
    #: the reserved charging station (charge trips only)
    station: Optional[ChargingStation] = None
    #: the scheduler's pad admission time for this trip
    admit: int = 0


class Simulation:
    """Drive one day of tasks through a planner and record metrics."""

    def __init__(
        self,
        warehouse: Warehouse,
        planner: Planner,
        tasks: Sequence[Task],
        snapshot_every: float = 0.02,
        measure_memory: bool = True,
        memory_every: float = 0.1,
        validate: bool = False,
        prune_interval: int = 256,
        handover_delay: int = 1,
        dispatcher: Optional[Dispatcher] = None,
        faults: Optional[FaultPlan] = None,
        recovery: str = "serial",
        battery: Optional[BatterySpec] = None,
        stations: Optional[Sequence[ChargingStation]] = None,
    ) -> None:
        if not tasks:
            raise SimulationError("cannot simulate an empty task list", phase="setup")
        if recovery not in ("serial", "joint"):
            raise SimulationError(
                f"unknown recovery mode {recovery!r}; expected 'serial' or 'joint'",
                phase="setup",
            )
        if not warehouse.robot_homes:
            raise SimulationError(
                "warehouse defines no robot home cells", phase="setup"
            )
        self.warehouse = warehouse
        self.planner = planner
        self.tasks = sorted(tasks, key=lambda t: (t.release_time, t.task_id))
        self.fleet = RobotFleet(list(warehouse.robot_homes))
        self.metrics = SimulationMetrics(
            total_tasks=len(self.tasks),
            snapshot_every=snapshot_every,
            measure_memory=measure_memory,
            memory_every=memory_every,
        )
        self.validate = validate
        #: simulated seconds between planner.prune calls; <= 0 disables
        #: pruning entirely (stores then only grow).
        self.prune_interval = prune_interval
        #: seconds a robot spends lifting/dropping a rack between stages;
        #: also means a stage's start cell is no longer claimed by the
        #: robot's own previous arrival second.
        self.handover_delay = handover_delay
        self.dispatcher: Dispatcher = dispatcher or NearestIdleDispatcher()
        #: recovery strategy for fault disturbances: "serial" is PR 2's
        #: one-robot-at-a-time stop-and-replan cascade; "joint" groups
        #: conflicting robots into clusters and recovers each jointly
        #: (see repro.simulation.recovery).
        self.recovery = recovery
        #: battery/charging axis — None keeps the engine's behaviour
        #: byte-identical to an energy-unaware run (every battery hook
        #: below is gated on ``self.energy``).
        self.battery = battery
        self.energy: Optional[FleetEnergy] = None
        self.charger: Optional[ChargingScheduler] = None
        self.charge_stations: List[ChargingStation] = list(stations or ())
        #: robots currently on a charge trip (launch guard: a leg
        #: finishing at second t makes the robot look idle to events at
        #: t that pop before its stage-done, and must not re-trip)
        self._on_charge_trip: List[bool] = []
        if battery is not None:
            if not self.charge_stations:
                raise SimulationError(
                    "battery simulation needs at least one charging station "
                    "(see repro.simulation.charging.place_stations)",
                    phase="setup",
                )
            for station in self.charge_stations:
                station.validate(warehouse)
            self.energy = FleetEnergy(battery, len(self.fleet))
            self.charger = ChargingScheduler(
                self.charge_stations, getattr(planner, "distance_maps", None)
            )
            self._on_charge_trip = [False] * len(self.fleet)
            # Priority threading at the dispatch layer: robots bound for
            # a charger (or stranded) are never handed delivery tasks.
            self.dispatcher = BatteryAwareDispatcher(
                self.dispatcher, self._robot_needs_charge
            )
        self.faults = faults if faults is not None else FaultPlan.empty()
        if self.faults:
            self.faults.validate()
            if not hasattr(self.planner, "replan_from"):
                raise SimulationError(
                    f"planner {self.planner.name} cannot recover from execution "
                    "faults (no replan_from); run it with an empty fault plan",
                    phase="fault-injection",
                )
            if (self.faults.slowdowns or self.faults.closures) and not hasattr(
                self.planner, "commit_recovered_route"
            ):
                raise SimulationError(
                    f"planner {self.planner.name} cannot execute slowdown or "
                    "closure faults (no commit_recovered_route)",
                    phase="fault-injection",
                )
        self._routes: Dict[int, Route] = {}  # query_id -> latest route
        #: query_id -> the in-flight stage that committed it.  Keyed by
        #: query rather than robot: a release event landing on exactly a
        #: stage's finish second can dispatch a robot's next task before
        #: that stage-done event pops, so one robot may briefly carry
        #: two in-flight stages — both must stay visible to recovery.
        self._executing: Dict[int, _ActiveTask] = {}
        #: blockage windows still relevant to the recovery cascade
        self._active_blockages: List[BlockageFault] = []
        self._next_query_id = 0
        self._seq = 0
        self.completed = 0
        self.failed = 0
        self.makespan = 0
        self.faults_injected = 0
        self.replans = 0
        self.recovery_failures = 0
        self.recovery_clusters = 0
        self.max_cluster_size = 0
        self.cluster_robots = 0
        self.recovery_cbs = 0
        self.recovery_serial = 0
        self.slowdown_stretches = 0
        self.closure_cells = 0
        self.recovery_events: List[Dict[str, object]] = []
        self.charge_trips = 0
        self.charge_aborts = 0
        self._last_prune = 0

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the whole day and return the aggregates."""
        # Event heap: (time, seq, kind, payload); kinds: 0 release,
        # 1 stage done, 2 fault injection.
        events: List[_Event] = []
        for task in self.tasks:
            events.append((task.release_time, self._next_seq(), 0, task))
        for fault in self.faults:
            events.append((fault.time, self._next_seq(), 2, fault))
        heapq.heapify(events)
        waiting: List[Task] = []

        while events:
            now, _s, kind, payload = heapq.heappop(events)
            if kind == 0:
                waiting.append(payload)
            elif kind == 1:
                active, epoch = payload
                if epoch == active.epoch:  # superseded by a recovery otherwise
                    if active.charging:
                        self._advance_charge(active, now, events)
                    else:
                        self._advance_stage(active, now, events)
            else:
                self._inject_fault(payload, now, events)
            # Low-battery robots head to a charger before task dispatch
            # sees them: going-to-charge outranks idle work.
            if self.energy is not None:
                self._launch_charge_trips(now, events)
            # Dispatch as many waiting tasks as the policy allows.
            if waiting:
                assignments = self.dispatcher.assign(waiting, self.fleet, now)
                started = {id(task) for task, _robot in assignments}
                waiting = [t for t in waiting if id(t) not in started]
                for task, robot in assignments:
                    robot.busy_until = _CLAIMED
                    self._start_stage(_ActiveTask(task, robot), now, events)
            if self.prune_interval > 0 and now - self._last_prune >= self.prune_interval:
                self.planner.prune(now)
                self._last_prune = now

        conflicts: List[Conflict] = []
        audit: List[str] = []
        if self.validate:
            routes = list(self._routes.values())
            conflicts = find_conflicts(routes)
            conflicts += find_illegal_cells(routes, self.warehouse)
            if hasattr(self.planner, "stores"):
                audit = audit_planner_state(
                    self.planner, routes, since=self._last_prune
                )
        stats = getattr(self.planner, "stats", None)
        return SimulationResult(
            planner_name=self.planner.name,
            n_tasks=len(self.tasks),
            completed_tasks=self.completed,
            failed_tasks=self.failed,
            makespan=self.makespan,
            tc_seconds=self.planner.timers.total,
            peak_mc_bytes=self.metrics.peak_mc(),
            snapshots=self.metrics.snapshots,
            conflicts=conflicts,
            faults_injected=self.faults_injected,
            replans=self.replans,
            recovery_failures=self.recovery_failures,
            audit_violations=audit,
            recovery=self.recovery,
            replan_attempts=getattr(stats, "replan_attempts", 0),
            decommitted_segments=getattr(stats, "decommitted_segments", 0),
            recovery_clusters=self.recovery_clusters,
            max_cluster_size=self.max_cluster_size,
            cluster_robots=self.cluster_robots,
            recovery_cbs=self.recovery_cbs,
            recovery_serial=self.recovery_serial,
            slowdown_stretches=self.slowdown_stretches,
            closure_cells=self.closure_cells,
            recovery_events=self.recovery_events,
            charge_trips=self.charge_trips,
            charge_aborts=self.charge_aborts,
            charge_queue_wait=(
                self.charger.queue_wait if self.charger is not None else 0
            ),
            stranded_robots=(
                len(self.energy.stranded_ids) if self.energy is not None else 0
            ),
            energy_drained=(
                self.energy.total_drained if self.energy is not None else 0
            ),
            charge_stations=(
                len(self.charge_stations) if self.energy is not None else 0
            ),
        )

    # ------------------------------------------------------------------
    def _start_stage(self, active: _ActiveTask, now: int, events: List[_Event]) -> None:
        task, robot = active.task, active.robot
        assert task is not None  # delivery stages always carry a task
        kind = _STAGE_KINDS[active.stage]
        if kind is QueryKind.PICKUP:
            origin, destination = robot.cell, task.rack
        elif kind is QueryKind.TRANSMISSION:
            origin, destination = task.rack, task.picker
        else:
            origin, destination = task.picker, task.rack
        query = Query(origin, destination, now, kind, self._next_query_id_value())
        try:
            route = self.planner.plan(query)
        except PlanningFailedError:
            # Abandon the task; the robot frees up where it stands.
            self.failed += 1
            robot.busy_until = now
            self._task_finished(now)
            return
        self._record_route(query.query_id, route)
        self._install_stage(active, query, route, events)

    def _install_stage(
        self, active: _ActiveTask, query: Query, route: Route, events: List[_Event]
    ) -> None:
        """Register one planned stage: slowdown stretch, event, cascade.

        Shared by delivery stages and charge-trip legs — both commit
        through the same planner, stretch under the same slowdown
        windows, and arm the same epoch-stamped stage-done events.
        """
        robot = active.robot
        stretched_slow = False
        if (
            robot.slow_until > route.start_time
            and robot.slow_factor > 1
            and hasattr(self.planner, "commit_recovered_route")
        ):
            # The robot is inside a slowdown window: its fresh route must
            # be executed at reduced speed.  Rewrite it immediately as the
            # stretched hold/move interleaving so the committed claims
            # match the physical motion, then chase any conflicts the
            # longer occupancy introduced.
            stretched = stretch_route_suffix(
                route, route.start_time, robot.slow_factor, robot.slow_until
            )
            if stretched.finish_time != route.finish_time:
                self.planner.decommit_for_recovery(
                    query.query_id, route.origin, route.start_time
                )
                route = self.planner.commit_recovered_route(
                    query.query_id, route.origin, route.start_time, stretched
                )
                self._apply_revisions()
                self.slowdown_stretches += 1
                stretched_slow = True
        active.query_id = query.query_id
        active.route = route
        self._executing[query.query_id] = active
        robot.cell = route.destination
        robot.busy_until = route.finish_time
        heapq.heappush(
            events, (route.finish_time, self._next_seq(), 1, (active, active.epoch))
        )
        if stretched_slow:
            # Run after the stage is fully registered so the cascade sees
            # (and may itself revise) the stretched route; a further
            # replan supersedes the event pushed above via the epoch.
            self._resolve_disturbances(route.start_time, events)

    def _advance_stage(self, active: _ActiveTask, now: int, events: List[_Event]) -> None:
        self._executing.pop(active.query_id, None)
        if self.energy is not None and active.route is not None:
            self.energy.drain_route(active.robot.robot_id, active.route)
        active.stage += 1
        if active.stage < len(_STAGE_KINDS):
            active.robot.busy_until = _CLAIMED
            # A stalled robot resumes its next stage only once the stall
            # has cleared (the rack handover cannot happen mid-fault).
            resume = max(now + self.handover_delay, active.robot.stalled_until)
            self._start_stage(active, resume, events)
            return
        # Task complete: the robot idles under the returned rack.
        active.robot.tasks_served += 1
        active.robot.busy_until = now
        self.completed += 1
        self.makespan = max(self.makespan, now)
        self._task_finished(now)

    # ------------------------------------------------------------------
    # Battery drain and charge trips
    # ------------------------------------------------------------------
    def _robot_needs_charge(self, robot: Robot) -> bool:
        """Dispatch filter: low-battery robots take no delivery tasks."""
        assert self.energy is not None
        return self.energy.needs_charge(robot.robot_id)

    def _launch_charge_trips(self, now: int, events: List[_Event]) -> None:
        """Send every idle low-battery robot to its best station.

        Runs once per event in robot-id order, so launches are
        deterministic.  Stranded robots (charge exactly zero) stay
        where they are — stranding is a provisioning failure counted
        loudly, not silently healed by a free tow to the charger.
        """
        assert self.energy is not None and self.charger is not None
        for robot in self.fleet.robots:
            rid = robot.robot_id
            if (
                self._on_charge_trip[rid]
                or not robot.is_idle(now)
                or self.energy.is_stranded(rid)
                or not self.energy.needs_charge(rid)
            ):
                continue
            station, _admit = self.charger.pick(robot.cell, now)
            duration = self.energy.charge_duration(rid)
            admit = self.charger.reserve(station, robot.cell, now, duration)
            self.charge_trips += 1
            self._on_charge_trip[rid] = True
            robot.busy_until = _CLAIMED
            active = _ActiveTask(
                None, robot, charging=True, station=station, admit=admit
            )
            self._start_charge_stage(active, max(now, robot.stalled_until), events)

    def _start_charge_stage(
        self, active: _ActiveTask, now: int, events: List[_Event]
    ) -> None:
        """Plan and commit one charge-trip leg through the SRP planner.

        Legs are ordinary GENERIC queries — collision-checked and
        committed into the segment stores like any delivery route, and
        recovered by the same fault machinery.
        """
        station = active.station
        assert station is not None
        robot = active.robot
        if active.stage == 0:
            origin, destination, release = robot.cell, station.queue_cell, now
        elif active.stage == 1:
            # Hold at the queue cell until one second before admission,
            # so the docking move lands on the pad right on time.
            origin, destination = station.queue_cell, station.cell
            release = max(now, active.admit - 1)
        else:
            origin, destination, release = station.cell, station.exit_cell, now
        if origin == destination:
            # Degenerate leg: the robot already stands on the target
            # (it went low while idling on the station's queue cell).
            # Nothing to plan or commit; advance the trip directly.
            active.route = None
            active.query_id = -1
            robot.busy_until = _CLAIMED
            heapq.heappush(
                events, (release, self._next_seq(), 1, (active, active.epoch))
            )
            return
        query = Query(
            origin, destination, release, QueryKind.GENERIC,
            self._next_query_id_value(),
        )
        try:
            route = self.planner.plan(query)
        except PlanningFailedError:
            self._abort_charge(active, release)
            return
        self._record_route(query.query_id, route)
        active.query_id = query.query_id
        self._install_stage(active, query, route, events)

    def _advance_charge(
        self, active: _ActiveTask, now: int, events: List[_Event]
    ) -> None:
        """One charge-trip leg finished: dock, refill, or complete."""
        assert self.energy is not None and self.charger is not None
        station = active.station
        assert station is not None
        robot = active.robot
        self._executing.pop(active.query_id, None)
        if active.route is not None:
            self.energy.drain_route(robot.robot_id, active.route)
        active.stage += 1
        if active.stage == 1:
            # Arrived at the queue cell; dock when the pad admits us.
            robot.busy_until = _CLAIMED
            resume = max(now + self.handover_delay, robot.stalled_until)
            self._start_charge_stage(active, resume, events)
            return
        if active.stage == 2:
            # Docked.  Pin the pad busy for the *actual* charge window
            # (congestion can put the docking later than the
            # reservation estimated), refill, then clear to the exit
            # cell so the next robot can dock.
            fill = self.energy.charge_duration(robot.robot_id)
            done = now + fill
            self.charger.occupy(station, done)
            self.energy.refill(robot.robot_id)
            robot.busy_until = _CLAIMED
            resume = max(done, now + self.handover_delay, robot.stalled_until)
            self._start_charge_stage(active, resume, events)
            return
        # Trip complete: the robot idles, fully charged, at the exit cell.
        robot.busy_until = now
        self._on_charge_trip[robot.robot_id] = False

    def _abort_charge(self, active: _ActiveTask, now: int) -> None:
        """Abandon a charge trip whose leg could not be planned.

        The robot frees up where it stands, still low on battery, so a
        later event relaunches the trip (possibly to another station).
        Retries push no new events, so a persistently unplannable trip
        is bounded by the day's event count and shows up loudly in
        ``charge_aborts`` instead of hanging the loop.
        """
        self.charge_aborts += 1
        active.epoch += 1
        self._executing.pop(active.query_id, None)
        active.robot.busy_until = now
        self._on_charge_trip[active.robot.robot_id] = False

    # ------------------------------------------------------------------
    # Fault injection and stop-and-replan recovery
    # ------------------------------------------------------------------
    def _inject_fault(self, fault: Fault, now: int, events: List[_Event]) -> None:
        self.faults_injected += 1
        forced: List[Tuple[_ActiveTask, Grid, int]] = []
        if isinstance(fault, StallFault):
            robots = self.fleet.robots
            robot = robots[fault.robot_id % len(robots)]
            robot.stalls += 1
            robot.stalled_until = max(robot.stalled_until, now + fault.duration)
            # Every in-flight stage of this robot whose route overlaps
            # the stall window must be recovered.  Routes departing
            # after the stall clears stay executable verbatim and must
            # not be disturbed (pulling their start earlier would
            # fabricate standing presence the model does not reserve).
            disturbed = [
                a
                for a in self._executing.values()
                if a.robot is robot
                and a.route is not None
                and a.route.finish_time > now
                and a.route.start_time < now + fault.duration
            ]
            if not disturbed:
                # Idle or between stages: the stall only delays the next
                # dispatch/handover; nothing committed needs recovery.
                if robot.busy_until != _CLAIMED:
                    robot.busy_until = max(robot.busy_until, robot.stalled_until)
                return
            if self.recovery == "joint":
                # Joint mode defers the pinned robots to the cluster
                # resolver so they are recovered together with whoever
                # their forced holds collide with.
                forced = [
                    (a, a.route.position_at(now), now + fault.duration)
                    for a in disturbed
                ]
            else:
                for active in disturbed:
                    cell = active.route.position_at(now)
                    self._replan_execution(
                        active, cell, now, hold_until=now + fault.duration,
                        events=events,
                    )
        elif isinstance(fault, SlowdownFault):
            self._apply_slowdown(fault, now, events)
        elif isinstance(fault, AisleClosureFault):
            committed_any = False
            for cell in fault.cells:
                if self.warehouse.is_rack(cell):
                    continue  # racks are never traversed; inert
                if self.planner.cell_occupied(cell, now):
                    # Debris cannot land under a robot (same rule as
                    # single-cell blockages); the rest of the span still
                    # closes.
                    continue
                self.planner.commit_blockage(cell, now, now + fault.duration)
                self._active_blockages.append(
                    BlockageFault(time=now, cell=cell, duration=fault.duration)
                )
                self.closure_cells += 1
                committed_any = True
            if not committed_any:
                return
        else:
            if self.warehouse.is_rack(fault.cell):
                return  # racks are never traversed; a blocked rack is inert
            if self.planner.cell_occupied(fault.cell, now):
                # Debris cannot land under a robot — and a blockage
                # overlapping a robot's standing second would make its
                # recovery hold conflict with the blockage forever.
                return
            self.planner.commit_blockage(fault.cell, now, now + fault.duration)
            self._active_blockages.append(fault)
        self._resolve_disturbances(now, events, forced=forced)

    def _apply_slowdown(self, fault: SlowdownFault, now: int, events: List[_Event]) -> None:
        """Slow a robot down: stretch its in-flight routes in place.

        The stretched suffix visits the same cells in the same order at
        ``1/factor`` speed (a deterministic hold/move interleaving), so
        this is forced physics rather than a planning choice — conflicts
        the longer occupancy introduces are chased by the disturbance
        cascade that runs after every injection.  Stages planned while
        the window is still open are stretched at plan time
        (see :meth:`_start_stage`).
        """
        robots = self.fleet.robots
        robot = robots[fault.robot_id % len(robots)]
        robot.slowdowns += 1
        until = now + fault.duration
        robot.slow_until = max(robot.slow_until, until)
        robot.slow_factor = fault.factor
        disturbed = [
            a
            for a in self._executing.values()
            if a.robot is robot
            and a.route is not None
            and a.route.finish_time > now
            and a.route.start_time < until
        ]
        for active in disturbed:
            route = active.route
            suffix = stretch_route_suffix(route, now, fault.factor, until)
            if suffix.finish_time == route.finish_time:
                continue  # no move falls inside the window; nothing changes
            cell = route.position_at(now)
            self.planner.decommit_for_recovery(active.query_id, cell, now)
            revised = self.planner.commit_recovered_route(
                active.query_id, cell, now, suffix
            )
            self._apply_revisions()
            self.slowdown_stretches += 1
            self._install_revision(active, revised, events)

    def _resolve_disturbances(
        self,
        now: int,
        events: List[_Event],
        forced: Sequence[Tuple[_ActiveTask, Grid, int]] = (),
    ) -> None:
        """Stop-and-replan every robot whose surviving route conflicts.

        A disturbance (a stalled robot's hold, a blockage, or a freshly
        recovered route) can invalidate routes committed earlier; each
        round detects grid-level conflicts among the not-yet-executed
        route suffixes (plus blockage windows as pseudo-routes) and
        replans the affected robots from their actual positions.  Each
        recovery is collision-free against all committed state, so the
        cascade converges; the round bound turns a logic bug into a loud
        :class:`SimulationError` instead of a hang.

        With ``recovery="joint"`` the work is delegated to
        :func:`repro.simulation.recovery.resolve_joint`, which recovers
        whole conflict clusters at a time; ``forced`` carries robots
        pinned in place by the triggering fault (serial mode replans
        them before calling here, so it always passes none).
        """
        if self.recovery == "joint":
            resolve_joint(self, now, events, forced=forced)
            return
        for _round in range(_MAX_RECOVERY_ROUNDS):
            self._active_blockages = [
                b for b in self._active_blockages if b.time + b.duration >= now
            ]
            suffixes: List[Route] = []
            owners: List[Optional[_ActiveTask]] = []
            for active in self._executing.values():
                route = active.route
                if route is None or route.finish_time <= now:
                    continue
                # Occupancy follows the validator's convention exactly:
                # a route claims grids over [start_time, finish_time]
                # only (standing robots between stages are non-blocking,
                # DESIGN.md §4), so the cascade replans precisely the
                # robots whose *routes* the disturbance invalidates.
                start = max(now, route.start_time)
                grids = [
                    route.position_at(t) for t in range(start, route.finish_time + 1)
                ]
                suffixes.append(Route(start, grids, query_id=active.query_id))
                owners.append(active)
            for blockage in self._active_blockages:
                start = max(blockage.time, now)
                span = blockage.time + blockage.duration - start + 1
                suffixes.append(Route(start, [blockage.cell] * span))
                owners.append(None)
            disturbed: Dict[int, _ActiveTask] = {}
            for conflict in find_conflicts(suffixes):
                for idx in (conflict.route_a, conflict.route_b):
                    active = owners[idx]
                    if active is not None:
                        disturbed[active.query_id] = active
            if not disturbed:
                return
            for active in disturbed.values():
                if active.query_id not in self._executing:
                    continue  # its recovery failed earlier this round
                cell = active.route.position_at(now)
                self._replan_execution(
                    active, cell, now, hold_until=now + 1, events=events
                )
        raise SimulationError(
            "recovery cascade did not converge within "
            f"{_MAX_RECOVERY_ROUNDS} rounds",
            release_time=now,
            phase="recovery-cascade",
        )

    def _replan_execution(
        self,
        active: _ActiveTask,
        cell: Grid,
        now: int,
        hold_until: int,
        events: List[_Event],
        decommitted: bool = False,
        context: Optional[Dict[str, object]] = None,
    ) -> None:
        """Stop one robot at ``cell`` and recover its route in place.

        ``decommitted`` marks a suffix already stripped by joint
        recovery; ``context`` carries the cluster diagnostics (size,
        strategy, decommit count) attached to the failure exception and
        the recovery event log when the ladder gives up.
        """
        robot = active.robot
        try:
            revised = self.planner.replan_from(
                active.query_id, cell, now, hold_until=hold_until,
                decommitted=decommitted,
            )
        except PlanningFailedError as exc:
            # Recovery exhausted its ladder: abandon the task where the
            # robot stands (mirrors the stage-planning failure policy).
            if context is not None:
                exc.cluster_size = context.get("cluster_size", exc.cluster_size)  # type: ignore[assignment]
                exc.strategy = context.get("strategy", exc.strategy)  # type: ignore[assignment]
                exc.decommits = context.get("decommits", exc.decommits)  # type: ignore[assignment]
            elif exc.strategy is None:
                exc.strategy = "serial"
            self._log_recovery_event(
                {"time": now, "event": "task-abandoned", **exc.diagnostics()}
            )
            self._apply_revisions()
            if self.energy is not None and active.route is not None:
                # Drain the prefix actually driven before the stop.
                self.energy.drain_route(robot.robot_id, active.route, until=now)
            if active.charging:
                self.charge_aborts += 1
                self._on_charge_trip[robot.robot_id] = False
            else:
                self.failed += 1
            self.recovery_failures += 1
            active.epoch += 1  # neutralise the pending stage-done event
            self._executing.pop(active.query_id, None)
            robot.cell = cell
            robot.busy_until = max(robot.busy_until, hold_until)
            # The abandoned robot's residual hold stays committed in the
            # stores; surface it to the cascade as a pseudo-blockage so
            # robots whose committed routes cross it are replanned too.
            release = max(now + 1, hold_until)
            self._active_blockages.append(
                BlockageFault(time=now, cell=cell, duration=release - now)
            )
            if not active.charging:
                self._task_finished(now)
            return
        self._apply_revisions()
        self.replans += 1
        self._install_revision(active, revised, events)

    def _install_revision(
        self, active: _ActiveTask, revised: Route, events: List[_Event]
    ) -> None:
        """Adopt a recovered route: bump the epoch, re-arm the stage event."""
        robot = active.robot
        if self.energy is not None and active.route is not None:
            # The executed prefix of the superseded route drains now;
            # the revised route drains at its own stage-done.
            self.energy.drain_route(
                robot.robot_id, active.route, until=revised.start_time
            )
        active.route = revised
        active.epoch += 1
        robot.cell = revised.destination
        robot.busy_until = revised.finish_time
        heapq.heappush(
            events, (revised.finish_time, self._next_seq(), 1, (active, active.epoch))
        )

    def _log_recovery_event(self, event: Dict[str, object]) -> None:
        """Record a structured recovery event, bounded against storms."""
        if len(self.recovery_events) < 512:
            self.recovery_events.append(event)

    def _apply_revisions(self) -> None:
        for revised_id, revised in self.planner.take_revisions().items():
            self._routes[revised_id] = revised

    # ------------------------------------------------------------------
    def _task_finished(self, now: int) -> None:
        finished = self.completed + self.failed
        self.metrics.maybe_snapshot(finished, now, self.planner)

    def _record_route(self, query_id: int, route: Route) -> None:
        self._routes[query_id] = route
        self._apply_revisions()

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _next_query_id_value(self) -> int:
        self._next_query_id += 1
        return self._next_query_id


def run_day(
    warehouse: Warehouse,
    planner: Planner,
    tasks: Sequence[Task],
    snapshot_every: float = 0.02,
    measure_memory: bool = True,
    memory_every: float = 0.1,
    validate: bool = False,
    prune_interval: int = 256,
    handover_delay: int = 1,
    dispatcher: Optional[Dispatcher] = None,
    faults: Optional[FaultPlan] = None,
    recovery: str = "serial",
    battery: Optional[BatterySpec] = None,
    stations: Optional[Sequence[ChargingStation]] = None,
) -> SimulationResult:
    """Convenience wrapper: simulate one day and return the result."""
    sim = Simulation(
        warehouse,
        planner,
        tasks,
        snapshot_every=snapshot_every,
        measure_memory=measure_memory,
        memory_every=memory_every,
        validate=validate,
        prune_interval=prune_interval,
        handover_delay=handover_delay,
        dispatcher=dispatcher,
        faults=faults,
        recovery=recovery,
        battery=battery,
        stations=stations,
    )
    return sim.run()
