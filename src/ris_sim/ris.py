"""Reflective-surface state and passive beamforming.

A surface is a diagonal of per-element reflection coefficients
theta_n = beta_n * exp(j phi_n), beta_n in [0, 1].  This module owns the
panel value type (its `theta_diagonal` is the form the channel assembly
takes), phase quantization, closed-form MISO alignment, and the
alternating capacity ascent used for MIMO links.  Links come as stacks of
channel blocks: `aligned_phases` gives the aligned-MISO start of every
link of a stack in one SVD pass per hop, and `phase_ascent_batch` is the
one ascent engine, over fully reflective surfaces at the caller's grid and
sweep cap.  `scheduler.compare_shared_vs_ideal` runs every ascent of many
trials through it at once (a one-user trial is the single-user ascent),
with one spectrum call and one capacity call per element step for all of
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numkernel

TWO_PI = 2.0 * math.pi


def wrap_phase(phi):
    """Map angles into [0, 2 pi); the upper boundary folds to 0."""
    out = np.mod(np.asarray(phi, dtype=float), TWO_PI)
    return np.where(out >= TWO_PI, 0.0, out)


@dataclass(frozen=True, eq=False)
class RisPanel:
    """Immutable per-element state of one reflective panel.

    An element with amplitude zero absorbs.  When `quantization_bits` is
    set, all phases must sit exactly on the 2 pi k / 2^bits grid.
    """

    amplitudes: np.ndarray
    phases: np.ndarray
    quantization_bits: int | None = None

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=float).reshape(-1)
        phi = np.asarray(self.phases, dtype=float).reshape(-1)
        if amp.shape != phi.shape:
            raise ValueError(
                f"amplitudes ({amp.shape[0]}) and phases ({phi.shape[0]}) disagree"
            )
        if amp.shape[0] == 0:
            raise ValueError("panel needs at least one element")
        if not np.all(np.isfinite(amp)) or not np.all(np.isfinite(phi)):
            raise ValueError("panel state must be finite")
        if np.any(amp < 0.0) or np.any(amp > 1.0):
            raise ValueError("amplitudes must lie in [0, 1]")
        if np.any(phi < 0.0) or np.any(phi >= TWO_PI):
            raise ValueError("phases must lie in [0, 2 pi)")
        amp.setflags(write=False)
        phi.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "phases", phi)
        if self.quantization_bits is not None:
            bits = int(self.quantization_bits)
            if bits < 1:
                raise ValueError(f"quantization_bits must be >= 1, got {bits}")
            levels = 1 << bits
            step = TWO_PI / levels
            k = np.round(phi / step)
            if np.any(k * step != phi):
                raise ValueError("phases are off the quantization grid")

    @property
    def n_elements(self) -> int:
        return self.amplitudes.shape[0]

    def theta_diagonal(self) -> np.ndarray:
        return self.amplitudes * np.exp(1j * self.phases)

    @classmethod
    def uniform(cls, n_elements: int) -> "RisPanel":
        """Fully reflective panel, all phases zero."""
        if n_elements < 1:
            raise ValueError(f"n_elements must be >= 1, got {n_elements}")
        return cls(np.ones(n_elements), np.zeros(n_elements))


# widest quantization whose 2^bits level indices fit in int64
MAX_QUANTIZATION_BITS = int(np.iinfo(np.int64).max).bit_length() - 1


def quantize_phases(panel: RisPanel, bits: int) -> RisPanel:
    """Snap every phase to the nearest of 2^bits uniform levels.

    Exact midpoints go to the smaller level index; the wrap-around
    midpoint between the top level and 2 pi therefore goes to level 0.
    """
    bits = int(bits)
    if not 1 <= bits <= MAX_QUANTIZATION_BITS:
        raise ValueError(f"bits must lie in [1, {MAX_QUANTIZATION_BITS}], got {bits}")
    levels = 1 << bits
    step = TWO_PI / levels
    x = panel.phases / step
    k = np.floor(x + 0.5)
    tie = (x - np.floor(x)) == 0.5
    k[tie] = np.floor(x[tie])
    k = k.astype(np.int64) % levels
    return replace(panel, phases=k * step, quantization_bits=bits)


def align_phases_miso(g, h) -> RisPanel:
    """Coherent single-user alignment phi_n = -arg(h_n) - arg(g_n).

    `g` holds the per-element incident coefficients (base station side),
    `h` the per-element departure coefficients (user side); both accept
    any shape with N entries.  The composite is aligned to phase zero;
    `aligned_phases` aligns stacks of MIMO links, to a direct term too.
    """
    gv = np.asarray(g, dtype=np.complex128).reshape(-1)
    hv = np.asarray(h, dtype=np.complex128).reshape(-1)
    if gv.shape != hv.shape:
        raise ValueError(f"g has {gv.shape[0]} elements, h has {hv.shape[0]}")
    return RisPanel(np.ones(gv.shape[0]), wrap_phase(-np.angle(hv) - np.angle(gv)))


def composite_gain(g, h, panel: RisPanel) -> complex:
    """Scalar reflected coefficient sum_n h_n theta_n g_n."""
    gv = np.asarray(g, dtype=np.complex128).reshape(-1)
    hv = np.asarray(h, dtype=np.complex128).reshape(-1)
    if gv.shape[0] != panel.n_elements or hv.shape[0] != panel.n_elements:
        raise ValueError("channel vectors do not match the panel size")
    return complex(np.sum(hv * panel.theta_diagonal() * gv))


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
    every entry of every running problem go through one spectrum call
    (`numkernel.stack_singular_values`) and one capacity call per element.

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
    # one row per entry: its problem's place among the running problems,
    # its place among that problem's entries, its flat index, its weight,
    # its current channel, and outer[n, i], the change of that channel
    # per unit change of element n's reflection coefficient
    counts = [len(wts) for wts in weights]
    bounds = [0] + np.cumsum(counts).tolist()
    owner = np.repeat(np.arange(n_prob), counts)
    slot = np.concatenate([np.arange(c) for c in counts])
    index = np.arange(bounds[-1])
    w = np.concatenate(weights)[:, None]
    h = (a * theta[owner][:, None, :]) @ b
    outer = a.transpose(2, 0, 1)[..., None] * b.transpose(1, 0, 2)[:, :, None, :]

    caps = numkernel.capacity_closed_form(
        numkernel.stack_singular_values(h), total_power, noise_power)
    cur = np.array([float(wts @ caps[bounds[p]:bounds[p + 1]])
                    for p, wts in enumerate(weights)])
    traces = [[c] for c in cur.tolist()]
    done = [None] * n_prob
    ids = np.arange(n_prob)  # problem index of each running problem
    grid = TWO_PI * np.arange(grid_points) / grid_points
    rot = np.exp(1j * grid)
    # weighted candidate capacities by (entry slot, running problem); the
    # slots a problem lacks stay +0.0, which leaves its running sum as is
    weighted = np.zeros((max(counts), n_prob, grid_points))
    for _ in range(max_iters):
        for nidx in range(n):
            delta = rot[None, :] - theta[:, nidx, None]
            hc = h[:, None] + delta[owner, :, None, None] * outer[nidx][:, None]
            sv = numkernel.stack_singular_values(hc)
            cg = numkernel.capacity_closed_form(
                sv.reshape(-1, sv.shape[-1]), total_power, noise_power)
            cg = cg.reshape(-1, grid_points)
            weighted[slot, owner] = w * cg
            total = np.zeros(cur.shape + (grid_points,))
            for part in weighted:
                total += part
            best = np.argmax(total, axis=1)
            best_val = total[np.arange(best.shape[0]), best]
            up = best_val > cur
            if not up.any():
                continue
            m = up[owner]
            j = best[owner[m]]
            h[m] = h[m] + delta[owner[m], j, None, None] * outer[nidx][m]
            caps[index[m]] = cg[m, j]
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
            slot, index, w, h, outer = slot[keep], index[keep], w[keep], h[keep], outer[:, keep]
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
