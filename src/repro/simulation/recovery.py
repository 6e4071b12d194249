"""Joint multi-robot recovery over conflict clusters.

PR 2's recovery replans disturbed robots *one at a time*: each replan
holds the robot in place and plans around everyone else's committed
suffixes — including suffixes that are themselves doomed and about to
be replanned.  Under dense faults this cascades: robot A plans around
B's stale route, B's recovery then invalidates A's fresh plan, and both
burn ladder attempts and decommits round after round.

This module implements the joint alternative (``recovery="joint"``),
following the context-aware replanning literature ("Context-Aware Route
Planning", Hvězda et al.; "Push, Stop, and Replan"):

1. **cluster** — the not-yet-executed route suffixes of all in-flight
   robots (plus blockage windows, and forced holds for robots pinned by
   a stall) are conflict-checked pairwise; the conflict graph's
   connected components (union-find) are the *conflict clusters*.
   Robots in no cluster keep their routes untouched.
2. **joint decommit** — every cluster member's suffix is stripped back
   to its executed prefix first
   (:meth:`~repro.core.planner.SRPPlanner.decommit_for_recovery`), so
   nobody plans around a doomed suffix.
3. **prioritised replanning** — members replan sequentially in
   deterministic priority order (carrying robots before in-transit
   pickups before anything else, ties by robot id) via
   ``replan_from(..., decommitted=True)``.
4. **CBS escalation** — if any member's ladder fails, the whole cluster
   is re-decommitted and solved jointly with conflict-based search
   (:func:`repro.baselines.cbs.solve_conflict_cluster`) against the
   live segment stores.
5. **serial fallback** — if CBS exhausts its budget too, the cluster
   falls back to PR 2's serial hold-and-replan ladder, which can
   abandon individual tasks (the only phase that can).

Every phase is deterministic, so a seeded disturbed day reproduces
bit-identically.  See ``docs/robustness.md`` for the full story and the
measured serial-vs-joint comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.validate import find_conflicts
from repro.baselines.cbs import ClusterAgent, solve_conflict_cluster
from repro.exceptions import PlanningFailedError, SimulationError
from repro.types import Grid, Route

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.simulation.engine import Simulation, _ActiveTask

#: joint-recovery rounds tried per fault before declaring divergence
#: (mirrors the serial cascade's bound)
_MAX_JOINT_ROUNDS = 32

#: high-level constraint-tree budget for the CBS escalation; clusters
#: are small (typically 2-5 robots), so a modest budget either solves
#: them or proves the instance needs the serial fallback quickly
_CBS_MAX_NODES = 256


def stretch_route_suffix(route: Route, now: int, factor: int, until: int) -> Route:
    """The suffix of ``route`` after ``now``, slowed to ``1/factor`` speed.

    Every move of the original route departing (in stretched time)
    before ``until`` is rewritten as ``factor - 1`` holds at the source
    cell followed by the move; waits and moves departing at or after
    ``until`` keep their one-second duration.  The result starts at the
    committed anchor ``max(now, route.start_time)`` and visits the same
    cells in the same order, so it is exactly the disturbed robot's
    physically slowed execution — still one grid per second in the
    representation, hence exact-integer everywhere.

    Pure and deterministic: same inputs, same route, always.
    """
    if factor < 2:
        raise SimulationError(
            f"slowdown factor must be >= 2, got {factor}", phase="fault-injection"
        )
    anchor = max(now, route.start_time)
    grids: List[Grid] = [route.position_at(anchor)]
    t = anchor
    for step in range(anchor, route.finish_time):
        here = route.position_at(step)
        there = route.position_at(step + 1)
        if there != here and t < until:
            grids.extend([here] * (factor - 1))
            grids.append(there)
            t += factor
        else:
            grids.append(there)
            t += 1
    return Route(anchor, grids, query_id=route.query_id)


def recovery_priority(active: "_ActiveTask") -> Tuple[int, int, int]:
    """Deterministic replanning order inside a cluster.

    The fleet's three-tier priority ordering: carrying robots
    (transmission/return stages, a rack on board) go first, charge-trip
    legs second (a low battery is urgent but a rack on board is more
    so), in-transit pickups and everything else last; ties break by
    robot id, then by query id (a robot briefly owning two in-flight
    stages recovers the earlier stage first).  On runs without the
    battery axis no charging legs exist and the order is unchanged.
    """
    if getattr(active, "charging", False):
        rank = 1
    elif active.stage == 0:
        rank = 2
    else:
        rank = 0
    return (rank, active.robot.robot_id, active.query_id)


def build_clusters(
    suffixes: Sequence[Route],
    owners: Sequence[Optional["_ActiveTask"]],
    must_recover: Iterable[int] = (),
) -> List[List["_ActiveTask"]]:
    """Group conflicting route suffixes into recovery clusters.

    ``suffixes[i]`` belongs to ``owners[i]`` (None marks a blockage
    pseudo-route — it joins components but is never recovered).  A
    robot is clustered when its component contains at least one
    conflict, or when its query id appears in ``must_recover`` (robots
    pinned by a stall must be replanned even if nothing collides with
    their forced hold).  Clusters come back ordered by their smallest
    (robot id, query id) member, members unordered.
    """
    parent = list(range(len(suffixes)))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    conflicts = find_conflicts(list(suffixes))
    for conflict in conflicts:
        ra, rb = find(conflict.route_a), find(conflict.route_b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    conflicted = {find(c.route_a) for c in conflicts}
    forced = set(must_recover)
    grouped: Dict[int, List["_ActiveTask"]] = {}
    for idx, owner in enumerate(owners):
        if owner is None:
            continue
        root = find(idx)
        if root in conflicted or owner.query_id in forced:
            grouped.setdefault(root, []).append(owner)
    return sorted(
        grouped.values(),
        key=lambda group: min((a.robot.robot_id, a.query_id) for a in group),
    )


@dataclass
class _Member:
    """One cluster member's recovery inputs, captured before decommit."""

    active: "_ActiveTask"
    cell: Grid  # where the robot stands at the fault second
    hold: int  # earliest second it may move again
    anchor: int  # second its standing presence is claimable from (the
    # committed anchor; the delayed departure itself when parked)
    destination: Grid  # original stage destination


def resolve_joint(
    sim: "Simulation",
    now: int,
    events: List[Tuple[int, int, int, Any]],
    forced: Sequence[Tuple["_ActiveTask", Grid, int]] = (),
) -> None:
    """Joint counterpart of the engine's serial recovery cascade.

    ``forced`` lists robots pinned in place by the triggering fault as
    ``(active, cell, hold_until)``: their committed suffixes are stale
    (they physically cannot execute them), so the clusterer represents
    them as holds at their stop cells and recovers them unconditionally
    in the first round.

    Only the *first* round clusters: it absorbs the disturbance itself.
    Conflicts surviving into later rounds stem from blind forced holds
    a recovery had to commit (a pinned robot that cannot depart for a
    long time overlaps routes already replanned around its shorter
    guaranteed hold) — re-clustering those would re-decommit the holder
    and erase exactly the information its victims must plan around, so
    the cascade would chase the same conflict forever.  Later rounds
    therefore replan each conflicting robot serially against the *full*
    committed state, the serial cascade's provably convergent scheme —
    and share its divergence bound.
    """
    pending: Dict[int, Tuple["_ActiveTask", Grid, int]] = {
        active.query_id: (active, cell, hold) for active, cell, hold in forced
    }
    last_size: Optional[int] = None
    for _round in range(_MAX_JOINT_ROUNDS):
        sim._active_blockages = [
            b for b in sim._active_blockages if b.time + b.duration >= now
        ]
        suffixes: List[Route] = []
        owners: List[Optional["_ActiveTask"]] = []
        for active in sim._executing.values():
            route = active.route
            if route is None:
                continue
            entry = pending.get(active.query_id)
            if entry is not None:
                # Pinned by the fault: what the stores will actually see
                # is a hold at the stop cell until the fault clears, so
                # cluster against that rather than the stale suffix.
                _active, cell, hold = entry
                start = max(now, route.start_time)
                suffixes.append(
                    Route(start, [cell] * (hold - start + 1), query_id=active.query_id)
                )
                owners.append(active)
                continue
            if route.finish_time <= now:
                continue
            # Occupancy follows the validator's convention: a route
            # claims grids over [start_time, finish_time] only.
            start = max(now, route.start_time)
            grids = [
                route.position_at(t) for t in range(start, route.finish_time + 1)
            ]
            suffixes.append(Route(start, grids, query_id=active.query_id))
            owners.append(active)
        for blockage in sim._active_blockages:
            start = max(blockage.time, now)
            span = blockage.time + blockage.duration - start + 1
            suffixes.append(Route(start, [blockage.cell] * span))
            owners.append(None)
        if _round == 0:
            clusters = build_clusters(suffixes, owners, must_recover=pending)
            if not clusters:
                return
            for group in clusters:
                live = [a for a in group if a.query_id in sim._executing]
                if not live:
                    continue
                _recover_cluster(sim, live, pending, now, events)
                last_size = len(live)
            pending = {}
            continue
        disturbed: Dict[int, "_ActiveTask"] = {}
        for conflict in find_conflicts(list(suffixes)):
            for idx in (conflict.route_a, conflict.route_b):
                owner = owners[idx]
                if owner is not None:
                    disturbed[owner.query_id] = owner
        if not disturbed:
            return
        for active in sorted(disturbed.values(), key=recovery_priority):
            if active.query_id not in sim._executing:
                continue  # its recovery failed earlier this round
            cell = active.route.position_at(now)
            sim._replan_execution(
                active,
                cell,
                now,
                hold_until=max(now + 1, active.robot.stalled_until),
                events=events,
            )
    raise SimulationError(
        "joint recovery cascade did not converge within "
        f"{_MAX_JOINT_ROUNDS} rounds",
        release_time=now,
        phase="recovery-cascade",
        cluster_size=last_size,
        strategy="joint",
    )


def _recover_cluster(
    sim: "Simulation",
    group: List["_ActiveTask"],
    pending: Dict[int, Tuple["_ActiveTask", Grid, int]],
    now: int,
    events: List[Tuple[int, int, int, Any]],
) -> Dict[str, object]:
    """Recover one conflict cluster: prioritised -> CBS -> serial ladder."""
    planner = sim.planner
    members: List[_Member] = []
    for active in sorted(group, key=recovery_priority):
        route = active.route
        cell = route.position_at(now)
        anchor = max(now, route.start_time)
        hold = max(now + 1, active.robot.stalled_until)
        entry = pending.get(active.query_id)
        if entry is not None:
            hold = max(hold, entry[2])
        # Claims never extend backward past the committed start, so no
        # recovery may depart before the anchor; a *parked* member
        # (disturbed before departure) additionally gets no standing
        # pad at all — parked presence is unreserved (DESIGN.md §4).
        hold = max(hold, anchor)
        stand = anchor if now >= route.start_time else hold
        members.append(_Member(active, cell, hold, stand, route.destination))
    size = len(members)
    sim.recovery_clusters += 1
    sim.cluster_robots += size
    sim.max_cluster_size = max(sim.max_cluster_size, size)

    # Joint decommit: strip every member to its executed prefix, then
    # immediately re-commit its forced hold as standing presence — a
    # decommitted robot still physically occupies its stop cell until
    # its hold clears, and members replanned earlier must route around
    # it or the cascade chases the same conflict forever.
    decommits = 0
    for member in members:
        decommits += planner.decommit_for_recovery(member.active.query_id, member.cell, now)
        planner.commit_recovery_hold(  # srplint: allow(SRP008) hold spans the phase loops; a mid-recovery exception aborts the whole replay, so there is no later run to leak into
            member.active.query_id, member.cell, now, member.hold
        )
    sim._apply_revisions()

    # Phase 1: prioritised sequential replanning over the clean state.
    planned: List[Tuple[_Member, Route]] = []
    escalate = False
    for member in members:
        planner.release_recovery_hold(member.active.query_id)
        try:
            revised = planner.replan_from(
                member.active.query_id,
                member.cell,
                now,
                hold_until=member.hold,
                decommitted=True,
            )
        except PlanningFailedError:
            sim._apply_revisions()
            escalate = True
            break
        sim._apply_revisions()
        planned.append((member, revised))
    if not escalate:
        for member, revised in planned:
            sim.replans += 1
            sim._install_revision(member.active, revised, events)
        return _log_cluster(sim, now, members, "prioritised", decommits)

    # Phase 2: CBS over the whole cluster against the live stores.  The
    # re-decommit normalises partial phase-1 state (committed replans,
    # residual failure holds, outstanding pre-holds) back to executed
    # prefixes; CBS models the standing spans itself via ``stand_from``.
    sim.recovery_cbs += 1
    for member in members:
        planner.release_recovery_hold(member.active.query_id)
        decommits += planner.decommit_for_recovery(member.active.query_id, member.cell, now)
    sim._apply_revisions()
    agents = [
        ClusterAgent(
            query_id=member.active.query_id,
            origin=member.cell,
            destination=member.destination,
            release=member.hold,
            stand_from=member.anchor,
        )
        for member in members
    ]
    routes = solve_conflict_cluster(
        sim.warehouse,
        agents,
        planner.distance_maps,
        base_checker=planner.recovery_checker(),
        max_nodes=_CBS_MAX_NODES,
    )
    if routes is not None:
        for member, route in zip(members, routes):
            revised = planner.commit_recovered_route(
                member.active.query_id, member.cell, now, route
            )
            sim._apply_revisions()
            sim.replans += 1
            sim._install_revision(member.active, revised, events)
        return _log_cluster(sim, now, members, "cbs", decommits)

    # Phase 3: PR 2's serial hold-and-replan ladder, the only phase
    # allowed to abandon tasks.
    sim.recovery_serial += 1
    context = {"cluster_size": size, "strategy": "serial", "decommits": decommits}
    for member in members:
        if member.active.query_id in sim._executing:
            planner.commit_recovery_hold(  # srplint: allow(SRP008) pre-holds span the serial ladder loop; a mid-recovery exception aborts the whole replay
                member.active.query_id, member.cell, now, member.hold
            )
    for member in members:
        if member.active.query_id not in sim._executing:
            continue
        planner.release_recovery_hold(member.active.query_id)
        sim._replan_execution(
            member.active,
            member.cell,
            now,
            hold_until=member.hold,
            events=events,
            decommitted=True,
            context=context,
        )
    return _log_cluster(sim, now, members, "serial", decommits)


def _log_cluster(
    sim: "Simulation",
    now: int,
    members: List[_Member],
    strategy: str,
    decommits: int,
) -> Dict[str, object]:
    event: Dict[str, object] = {
        "time": now,
        "event": "cluster-recovered",
        "size": len(members),
        "robots": [m.active.robot.robot_id for m in members],
        "strategy": strategy,
        "decommits": decommits,
    }
    sim._log_recovery_event(event)
    return event
