"""Price of one shared reflection state across FDM users.

An FDM interval serves every scheduled user through literally the same
surface setting, so the reflection diagonal is a shared resource: it is
optimized jointly on the QoS-weighted sum capacity, and the price of that
sharing is measured against giving each user a private surface.  Users
sit on disjoint FDM sub-bands by premise, so they do not interfere and no
band value enters a number: a user is its pair of channel blocks and its
QoS weight.  `compare_shared_vs_ideal` is the one entry point; it takes
the drawn block stacks of many trials as they are, and the caller gives
the sweep cap.  A one-user trial is the single-user ascent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import numkernel, ris


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


def compare_shared_vs_ideal(
    g,
    h,
    weights,
    power_per_user: float,
    noise_power: float,
    max_iters: int,
) -> list:
    """Quantify the price of sharing one reflection state, per trial.

    `g` (T, K, N, M) and `h` (T, K, U, N) stack the incident and departure
    blocks of K users in each of T trials, and `weights` holds the K
    users' QoS weights; the result holds one `SharedVsIdeal` per trial.
    shared_sum is the plain sum of the per-user capacities that one
    shared, fully reflective state reaches when the phase ascent
    maximises the QoS-weighted sum capacity, starting from the aligned
    phases of the highest-weight user, the lowest index on ties.
    ideal_sum gives each user a private surface, found by the same ascent
    from that user's aligned phases, on the `ris.ASCENT_GRID_POINTS` grid
    at the caller's sweep cap.  Every ascent stops once a sweep gains no
    more than `ris.ASCENT_REL_TOL` of its objective.  The aligned starts of every
    user of every trial come from one `ris.aligned_phases` call, and the
    shared ascent and the K private ones of every trial run as one
    `ris.phase_ascent_batch` call, with one `numkernel.stack_capacity`
    call per element step for all of them.  The engine keeps each ascent bit for
    bit whatever else is in the batch, so a trial's result does not
    depend on the other trials.  Since a private state can always replay
    the shared one, each user's ideal capacity is floored at its
    shared-state capacity, which makes shared_sum <= ideal_sum hold by
    construction even with an approximate optimizer.
    """
    g = numkernel.as_complex_stack(g, "g")
    h = numkernel.as_complex_stack(h, "h")
    if g.ndim != 4 or h.ndim != 4 or g.shape[:2] != h.shape[:2] or h.shape[3] != g.shape[2]:
        raise ValueError(f"need g (trials, users, N, M) and h (trials, users, U, N), "
                         f"got {g.shape} and {h.shape}")
    w = np.asarray(weights, dtype=float)
    if w.shape != g.shape[1:2] or not np.all(np.isfinite(w) & (w > 0.0)):
        raise ValueError(f"need {g.shape[1]} positive finite QoS weights, got {weights}")
    trials, k = g.shape[:2]
    starts = ris.aligned_phases(g, h, direct=None, gains=None)
    lead = int(np.argmax(w))
    one = np.ones(1)
    problems = []
    for t in range(trials):
        problems.append((w, g[t], h[t], starts[t, lead]))
        problems += [(one, g[t, i:i + 1], h[t, i:i + 1], starts[t, i]) for i in range(k)]
    results = iter(ris.phase_ascent_batch(problems, power_per_user, noise_power, max_iters))
    out = []
    for _ in range(trials):
        ascents = list(islice(results, k + 1))
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
