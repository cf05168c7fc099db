"""Price of one shared reflection state across FDM users.

An FDM interval serves every scheduled user through literally the same
surface setting, so the reflection diagonal is a shared resource: it is
optimized jointly on the QoS-weighted sum capacity, and the price of that
sharing is measured against giving each user a private surface.  Users
sit on disjoint FDM sub-bands by premise, so they do not interfere and no
band value enters a number: a user is its channel and its QoS weight.
`compare_shared_vs_ideal` is the one entry point; the caller gives the
grid and sweep cap, and a one-user trial is the single-user ascent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from . import ris
from .channel import ChannelRealization


@dataclass(frozen=True, eq=False)
class UserContext:
    """One scheduled user: channel and QoS weight."""

    channel: ChannelRealization
    qos_weight: float

    def __post_init__(self):
        if not (self.qos_weight > 0.0 and math.isfinite(self.qos_weight)):
            raise ValueError(f"qos_weight must be positive, got {self.qos_weight}")


def _shared_problem(users, starts):
    """Weighted entries and start phases of the shared ascent.

    Of the users' aligned-MISO `starts`, the shared ascent takes the
    highest-weight user's, the lowest index on ties.
    """
    lead = max(range(len(users)), key=lambda i: (users[i].qos_weight, -i))
    return [(u.qos_weight, u.channel) for u in users], starts[lead]


@dataclass(frozen=True, eq=False)
class SharedVsIdeal:
    """Sum-capacity comparison of shared against private surface states.

    `traces` holds the objective trace of each ascent of the trial: the
    shared one first, then one private ascent per user.
    """

    shared_sum: float
    ideal_sum: float
    gap_fraction: float
    traces: tuple


#: relative sweep gain at or below which the shared and private ascents stop
ASCENT_REL_TOL = 1e-6


def compare_shared_vs_ideal(
    trials,
    panel: ris.RisPanel,
    power_per_user: float,
    noise_power: float,
    max_iters: int,
    grid_points: int,
) -> list:
    """Quantify the price of sharing one reflection state, per trial.

    `trials` is a sequence of user lists, one per trial; the result holds
    one `SharedVsIdeal` per trial.
    shared_sum is the plain sum of the per-user capacities that one
    shared reflection state reaches when the phase ascent maximises the
    QoS-weighted sum capacity, starting from the aligned phases of the
    highest-weight user.
    ideal_sum gives each user a private surface, found by the same ascent
    from that user's aligned phases, at the caller's grid and sweep cap.
    Both ascents stop once a sweep gains no more than `ASCENT_REL_TOL` of
    the objective.  The shared ascent and the K private ones of every
    trial run as one `ris.phase_ascent_batch` call, so each element costs
    one spectrum call for all of them, and every user needs the panel's
    element count and one common (U, M) shape.  The engine keeps each
    ascent bit for bit whatever else is in the batch, so a trial's result
    does not depend on the other trials.  Since a private state can
    always replay the shared one, each user's ideal capacity is floored
    at its shared-state capacity, which makes shared_sum <= ideal_sum
    hold by construction even with an approximate optimizer.
    """
    problems = []
    for users in trials:
        if not users:
            raise ValueError("need at least one user")
        starts = [ris._aligned_init_phases(u.channel) for u in users]
        problems.append(_shared_problem(users, starts))
        problems += [([(1.0, u.channel)], init) for u, init in zip(users, starts)]
    results = iter(ris.phase_ascent_batch(
        problems, panel.amplitudes, power_per_user, noise_power,
        max_iters, ASCENT_REL_TOL, grid_points,
    ))
    out = []
    for users in trials:
        ascents = list(islice(results, len(users) + 1))
        (_, shared, _), *private = ascents
        shared_caps = [float(c) for c in shared]
        ideal_caps = [max(float(c[0]), sc) for (_, c, _), sc in zip(private, shared_caps)]
        shared_sum = float(sum(shared_caps))
        ideal_sum = float(sum(ideal_caps))
        gap = 0.0 if ideal_sum == 0.0 else (ideal_sum - shared_sum) / ideal_sum
        out.append(SharedVsIdeal(
            shared_sum=shared_sum,
            ideal_sum=ideal_sum,
            gap_fraction=float(gap),
            traces=tuple(tuple(t) for _, _, t in ascents),
        ))
    return out
