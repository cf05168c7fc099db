"""Reflective-surface state and passive beamforming.

A surface is a diagonal of per-element reflection coefficients
theta_n = beta_n * exp(j phi_n), beta_n in [0, 1].  This module owns the
panel value type (its `theta_diagonal` is the form the channel assembly
takes), phase quantization, closed-form MISO alignment, and the
alternating capacity ascent used for MIMO links.  The ascent is one
engine, `phase_ascent_batch`, at the caller's grid and sweep cap.
`scheduler.compare_shared_vs_ideal` runs every ascent of many trials
through it at once (a one-user trial is the single-user ascent), with one
spectrum call and one capacity call per element step for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numkernel
from .channel import ChannelRealization

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


def align_phases_miso(g, h, direct: complex = 0j) -> RisPanel:
    """Coherent single-user alignment phi_n = arg(direct) - arg(h_n) - arg(g_n).

    `g` holds the per-element incident coefficients (base station side),
    `h` the per-element departure coefficients (user side); both accept
    any shape with N entries.  With direct = 0 the composite is aligned to
    phase zero.
    """
    gv = np.asarray(g, dtype=np.complex128).reshape(-1)
    hv = np.asarray(h, dtype=np.complex128).reshape(-1)
    if gv.shape != hv.shape:
        raise ValueError(f"g has {gv.shape[0]} elements, h has {hv.shape[0]}")
    ref = np.angle(direct) if direct != 0 else 0.0
    phi = wrap_phase(ref - np.angle(hv) - np.angle(gv))
    return RisPanel(np.ones(gv.shape[0]), phi)


def composite_gain(g, h, panel: RisPanel) -> complex:
    """Scalar reflected coefficient sum_n h_n theta_n g_n."""
    gv = np.asarray(g, dtype=np.complex128).reshape(-1)
    hv = np.asarray(h, dtype=np.complex128).reshape(-1)
    if gv.shape[0] != panel.n_elements or hv.shape[0] != panel.n_elements:
        raise ValueError("channel vectors do not match the panel size")
    return complex(np.sum(hv * panel.theta_diagonal() * gv))


def effective_miso(real: ChannelRealization):
    """Collapse a MIMO hop to per-element MISO coefficients.

    Projects onto the dominant right singular vector of the incident block
    and the dominant left singular vector of the departure block; path
    loss amplitudes are folded in.  Returns (g_eff, h_eff, direct_eff).
    """
    v = numkernel.svd(real.g_nb_ris).right_vectors[:, 0]
    u = numkernel.svd(real.h_ris_ue).left_vectors[:, 0]
    g_eff = math.sqrt(real.pl_nb_ris) * (real.g_nb_ris @ v)
    h_eff = math.sqrt(real.pl_ris_ue) * (u.conj() @ real.h_ris_ue)
    d_eff = 0j
    if real.h_nb_ue is not None:
        d_eff = complex(math.sqrt(real.pl_nb_ue) * (u.conj() @ real.h_nb_ue @ v))
    return g_eff, h_eff, d_eff


def _aligned_init_phases(real: ChannelRealization) -> np.ndarray:
    """Aligned-MISO starting point for the capacity ascent."""
    return align_phases_miso(*effective_miso(real)).phases


def _effective_terms(real: ChannelRealization):
    """Scaled blocks (a, b, d) with H(theta) = (a * theta) @ b + d."""
    a = math.sqrt(real.pl_ris_ue * real.pl_nb_ris) * real.h_ris_ue
    b = real.g_nb_ris
    if real.h_nb_ue is not None:
        d = math.sqrt(real.pl_nb_ue) * real.h_nb_ue
    else:
        d = np.zeros((real.u_antennas, real.m_antennas), dtype=np.complex128)
    return a, b, d


def sweep_converged(trace, rel_tol: float) -> bool:
    """The ascent's stopping test: the last sweep of `trace` gained no
    more than `rel_tol` of the objective before it."""
    return trace[-1] - trace[-2] <= rel_tol * max(abs(trace[-2]), 1e-30)


def phase_ascent_batch(
    problems,
    amplitudes: np.ndarray,
    total_power: float,
    noise_power: float,
    max_iters: int,
    rel_tol: float,
    grid_points: int,
):
    """Independent weighted phase ascents swept in lockstep.

    `problems` is a sequence of (entries, init_phases), where `entries` is
    a sequence of (weight, realization).  Every problem shares the panel
    `amplitudes`, and every realization the element count and the (U, M)
    channel shape.  Each sweep sets every live element to the best of
    `grid_points` uniform phases; the candidate channels of every entry of
    every running problem go through one spectrum call
    (`numkernel.stack_singular_values`) and one capacity call per element.

    Each problem keeps its own objective, the weighted sum capacity
    accumulated over its entries in entry order; it moves an element only
    when the best candidate strictly improves that objective, records its
    own trace and stops on its own `rel_tol` test.  Every problem's result
    is therefore bit for bit what the sweep gives when run alone.

    Returns one (phases, per_entry_capacities, trace) per problem, where
    trace[i] is the objective after i sweeps and is non-decreasing.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if rel_tol <= 0.0:
        raise ValueError(f"rel_tol must be > 0, got {rel_tol}")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    if not problems:
        return []
    n = amplitudes.shape[0]
    n_prob = len(problems)
    phases = np.empty((n_prob, n))
    theta = np.empty((n_prob, n), dtype=np.complex128)
    # one row per entry: its problem's place among the running problems,
    # its place among that problem's entries, its flat index, its weight,
    # its current channel, and outer[n, i], the change of that channel
    # per unit change of element n's reflection coefficient
    owner, slot, w, hs, outers = [], [], [], [], []
    bounds = [0]
    for p, (entries, init) in enumerate(problems):
        if any(real.n_elements != n for _, real in entries):
            raise ValueError("realizations disagree on the element count")
        phases[p] = np.array(init, dtype=float)
        theta[p] = amplitudes * np.exp(1j * phases[p])
        for k, (weight, real) in enumerate(entries):
            a, b, d = _effective_terms(real)
            owner.append(p)
            slot.append(k)
            w.append(weight)
            hs.append((a * theta[p][None, :]) @ b + d)
            outers.append(a.T[:, :, None] * b[:, None, :])  # (N, U, M)
        bounds.append(bounds[-1] + len(entries))
    if len({x.shape for x in hs}) > 1:
        raise ValueError("realizations disagree on the (U, M) channel shape")
    owner, slot = np.array(owner, dtype=np.intp), np.array(slot, dtype=np.intp)
    index = np.arange(bounds[-1])
    w = np.array(w, dtype=float)[:, None]
    h, outer = np.stack(hs), np.stack(outers, axis=1)

    caps = numkernel.capacity_closed_form(
        numkernel.stack_singular_values(h), total_power, noise_power)
    cur = np.empty(n_prob)
    for p, (entries, _) in enumerate(problems):
        weights = np.array([wt for wt, _ in entries], dtype=float)
        cur[p] = float(weights @ caps[bounds[p]:bounds[p + 1]])
    traces = [[c] for c in cur.tolist()]
    done = [None] * n_prob
    ids = np.arange(n_prob)  # problem index of each running problem
    live = np.nonzero(amplitudes > 0.0)[0]
    grid = TWO_PI * np.arange(grid_points) / grid_points
    rot = np.exp(1j * grid)
    # weighted candidate capacities by (entry slot, running problem); the
    # slots a problem lacks stay +0.0, which leaves its running sum as is
    weighted = np.zeros((int(slot.max()) + 1, n_prob, grid_points))
    for _ in range(max_iters):
        for nidx in live:
            cand = amplitudes[nidx] * rot
            delta = cand[None, :] - theta[:, nidx, None]
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
            theta[up, nidx] = cand[best[up]]
            phases[up, nidx] = grid[best[up]]
            cur[up] = best_val[up]
        running = np.ones(ids.shape[0], dtype=bool)
        for i, p in enumerate(ids):
            traces[p].append(float(cur[i]))
            if sweep_converged(traces[p], rel_tol):
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
