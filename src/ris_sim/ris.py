"""Reflective-surface state and passive beamforming.

A surface is a diagonal of per-element reflection coefficients
theta_n = beta_n * exp(j phi_n), beta_n in [0, 1], held as a plain array:
the channel assembly `channel.assemble_stack` takes one such diagonal per
trial.  This module owns phase quantization (`quantize_phases`), the
closed-form MISO alignment and coherent gain of stacked links
(`align_miso`, `miso_gains`), and the alternating capacity ascent used for
MIMO links.  Links come as stacks of channel blocks: `aligned_phases`
gives the aligned-MISO start of every link of a stack in one SVD pass per
hop, and `phase_ascent_batch` is the one ascent engine, over fully
reflective surfaces at the caller's grid and sweep cap.
`scheduler.compare_shared_vs_ideal` runs every ascent of many trials
through it at once (a one-user trial is the single-user ascent), with one
`numkernel.stack_capacity` call per element step for all of them.
"""

from __future__ import annotations

import math

import numpy as np

from . import numkernel

TWO_PI = 2.0 * math.pi


def wrap_phase(phi):
    """Map angles into [0, 2 pi); the upper boundary folds to 0."""
    out = np.mod(np.asarray(phi, dtype=float), TWO_PI)
    return np.where(out >= TWO_PI, 0.0, out)


# widest quantization whose 2^bits level indices fit in int64
MAX_QUANTIZATION_BITS = int(np.iinfo(np.int64).max).bit_length() - 1


def quantize_phases(phases, bits: int) -> np.ndarray:
    """Snap phases in [0, 2 pi) to the nearest of 2^bits uniform levels.

    Level k sits at k * step, step = 2 pi / 2^bits.  A phase goes to the
    integer k nearest x = phase / step; an exact midpoint goes to the
    smaller of its two indices, floor(x), so the midpoint between the top
    level and 2 pi stays on the top level, and k = 2^bits is level 0.  The
    result is wrapped into [0, 2 pi): past 2^53 levels the top level
    indices round to 2 pi itself, which folds to 0.
    """
    bits = int(bits)
    if not 1 <= bits <= MAX_QUANTIZATION_BITS:
        raise ValueError(f"bits must lie in [1, {MAX_QUANTIZATION_BITS}], got {bits}")
    step = TWO_PI / (1 << bits)
    x = np.asarray(phases, dtype=float) / step
    k = np.floor(x)
    # x - k is exact, so only a fraction strictly above one half rounds up
    k += (x - k) > 0.5
    return wrap_phase(k * step)


def align_miso(g, h) -> np.ndarray:
    """Coherent MISO alignment phi_n = -arg(h_n) - arg(g_n), elementwise.

    `g` holds the per-element incident coefficients (base station side)
    and `h` the per-element departure coefficients (user side) of a link,
    or of a stack of links (..., N); every composite is aligned to phase
    zero.  `aligned_phases` aligns stacks of MIMO links, to a direct term
    too.
    """
    return wrap_phase(-np.angle(h) - np.angle(g))


def miso_gains(g, h, phases) -> list:
    """Power |sum_n h_n exp(j phi_n) g_n|^2 of each link of a stack (..., N).

    The surface is fully reflective.  Returns one Python float per link,
    in C order of the leading axes.  Each term is (h_n exp(j phi_n)) g_n,
    multiplied in that order, and each link's terms are summed by their
    own `np.sum`: a single reduction over the stack may add them in
    another order.
    """
    # np.multiply, not `*`: on a large temporary operand numpy reuses its
    # buffer with the operands swapped, and a complex product with fused
    # multiply-adds is not commutative in the last bit; and not in place:
    # numpy rounds an in-place complex product of one element differently,
    # so a one-link stack of one element would not match a longer stack
    terms = np.multiply(np.multiply(h, np.exp(1j * phases)), g)
    return [abs(complex(np.sum(row))) ** 2 for row in terms.reshape(-1, terms.shape[-1])]


def aligned_phases(g, h, direct, gains) -> np.ndarray:
    """Aligned-MISO start phases of a stack of links, (..., N).

    `g` (..., N, M) and `h` (..., U, N) stack the links' incident and
    departure blocks, and `direct` (..., U, M) their direct blocks, or is
    None.  Each link collapses to per-element MISO coefficients on the
    dominant right singular vector v of its incident block and the dominant
    left singular vector u of its departure block, g_n = (G v)_n,
    h_n = (u^H H)_n and d = u^H D v, with the path-loss amplitudes of
    `gains` folded in: a scenario's `pl_nb_ris`, `pl_ris_ue` and
    `pl_nb_ue`, or unit gains when None.  Element n takes
    phi_n = arg(d) - arg(h_n) - arg(g_n), with arg(d) = 0 when d is 0 or
    absent.  One SVD pass per hop serves the whole stack.
    """
    pl = ((1.0, 1.0, 1.0) if gains is None
          else (gains.pl_nb_ris, gains.pl_ris_ue, gains.pl_nb_ue))
    v = numkernel.svd(g).right_vectors[..., 0][..., None]
    u = numkernel.svd(h).left_vectors[..., 0].conj()[..., None, :]
    g_eff = math.sqrt(pl[0]) * (g @ v)[..., 0]
    h_eff = math.sqrt(pl[1]) * (u @ h)[..., 0, :]
    ref = np.zeros(g_eff.shape[:-1])
    if direct is not None:
        d = math.sqrt(pl[2]) * (u @ direct @ v)[..., 0, 0]
        ref = np.where(d != 0, np.angle(d), 0.0)
    return wrap_phase(ref[..., None] - np.angle(h_eff) - np.angle(g_eff))


#: relative sweep gain at or below which an ascent stops
ASCENT_REL_TOL = 1e-6


def sweep_converged(trace) -> bool:
    """The ascent's stopping test: the last sweep of `trace` gained no
    more than `ASCENT_REL_TOL` of the objective before it."""
    return trace[-1] - trace[-2] <= ASCENT_REL_TOL * max(abs(trace[-2]), 1e-30)


def phase_ascent_batch(problems, total_power: float, noise_power: float,
                       max_iters: int, grid_points: int):
    """Independent weighted phase ascents swept in lockstep.

    `problems` is a sequence of (weights, g, h, init_phases): E entries
    with weights (E,), incident blocks g (E, N, M) and departure blocks
    h (E, U, N), so that entry k's channel on the fully reflective surface
    theta = exp(j phi) is h[k] diag(theta) g[k], and a start phi (N,).
    Every problem has the same N, M and U.  Each sweep sets every element
    to the best of `grid_points` uniform phases; the candidate channels of
    every entry of every running problem go through one capacity call
    (`numkernel.stack_capacity`) per element, and the start channels
    through one more.  An accepted candidate's channel is taken from the
    candidate stack, and each problem's candidate objectives are the
    weighted capacities of its entries summed in entry order.

    Each problem keeps its own objective, the weighted sum capacity
    accumulated over its entries in entry order; it moves an element only
    when the best candidate strictly improves that objective, records its
    own trace and stops once a sweep passes `sweep_converged`.  Every
    problem's result is therefore bit for bit what the sweep gives when
    run alone.

    Returns one (phases, per_entry_capacities, trace) per problem, where
    trace[i] is the objective after i sweeps and is non-decreasing.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    if not problems:
        return []
    if len({(np.shape(g)[1:], np.shape(h)[1:]) for _, g, h, _ in problems}) > 1:
        raise ValueError("problems disagree on the (N, M) or (U, N) block shape")
    for wts, g, h, init in problems:
        if not len(wts) == len(g) == len(h) >= 1:
            raise ValueError("a problem needs one weight, g and h block per entry")
        if not np.shape(g)[1] == np.shape(h)[2] == np.shape(init)[0]:
            raise ValueError("blocks and start phases disagree on the element count")
    weights = [np.asarray(wts, dtype=float) for wts, *_ in problems]
    # every entry's blocks, so that its channel is (a * theta) @ b
    a = np.concatenate([h for _, _, h, _ in problems])
    b = np.concatenate([g for _, g, _, _ in problems])
    phases = np.array([init for *_, init in problems], dtype=float)
    n_prob, n = phases.shape
    theta = np.exp(1j * phases)
    # per entry: its problem's place among the running problems, its place
    # among that problem's entries, its flat index, its weight, its current
    # channel and outer[n], the change of that channel per unit change of
    # element n's reflection coefficient; channels are held as U*M planes
    # with the entries along the contiguous axis, so that the candidate
    # blocks of a step are built, and read by the kernel, without a copy
    counts = [len(wts) for wts in weights]
    bounds = [0] + np.cumsum(counts).tolist()
    owner = np.repeat(np.arange(n_prob), counts)
    slot = np.concatenate([np.arange(c) for c in counts])
    index = np.arange(bounds[-1])
    w = np.concatenate(weights)[:, None]
    h = (a * theta[owner][:, None, :]) @ b
    u, m = h.shape[1:]
    caps = numkernel.stack_capacity(h, total_power, noise_power)
    h = np.ascontiguousarray(h.transpose(1, 2, 0).reshape(u * m, -1))
    outer = a.transpose(2, 1, 0)[:, :, None, :] * b.transpose(1, 2, 0)[:, None, :, :]
    outer = outer.reshape(n, u * m, -1)
    cur = np.array([float(wts @ caps[bounds[p]:bounds[p + 1]])
                    for p, wts in enumerate(weights)])
    traces = [[c] for c in cur.tolist()]
    done = [None] * n_prob
    ids = np.arange(n_prob)  # problem index of each running problem
    grid = TWO_PI * np.arange(grid_points) / grid_points
    rot = np.exp(1j * grid)
    # weighted candidate capacities by (entry slot, running problem); the
    # slots a problem lacks stay +0.0, which leaves its sum as is
    weighted = np.zeros((max(counts), n_prob, grid_points))
    for _ in range(max_iters):
        for nidx in range(n):
            # candidate planes (U*M, grid, entry), read as (grid, entry) blocks
            delta = rot[:, None] - theta[owner, nidx]
            hc = h[:, None] + delta * outer[nidx][:, None]
            cg = numkernel.stack_capacity(
                hc.transpose(1, 2, 0).reshape(grid_points, -1, u, m), total_power, noise_power)
            weighted[slot, owner] = w * cg.T
            # summed slot by slot in slot order, the entry order
            total = weighted.sum(axis=0)
            best = np.argmax(total, axis=1)
            best_val = total[np.arange(best.shape[0]), best]
            up = best_val > cur
            if not up.any():
                continue
            sel = up[owner]
            j = best[owner[sel]]
            h[:, sel] = hc[:, j, sel]
            caps[index[sel]] = cg[j, sel]
            theta[up, nidx] = rot[best[up]]
            phases[up, nidx] = grid[best[up]]
            cur[up] = best_val[up]
        running = np.ones(ids.shape[0], dtype=bool)
        for i, p in enumerate(ids):
            traces[p].append(float(cur[i]))
            if sweep_converged(traces[p]):
                running[i] = False
                done[p] = phases[i].copy()
        if not running.all():
            keep = running[owner]
            owner = (np.cumsum(running) - 1)[owner[keep]]
            slot, index, w = slot[keep], index[keep], w[keep]
            h, outer = h[:, keep], outer[:, :, keep]
            ids, cur = ids[running], cur[running]
            theta, phases = theta[running], phases[running]
            weighted = weighted[:, running]
        if ids.shape[0] == 0:
            break
    for i, p in enumerate(ids):
        done[p] = phases[i]
    return [
        (wrap_phase(done[p]), caps[bounds[p]:bounds[p + 1]].copy(), traces[p])
        for p in range(n_prob)
    ]
