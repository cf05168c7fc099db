"""Independent reference implementations used to cross-check the library.

Everything in this file is written from the definitions, on purpose with
different algorithms and different arithmetic than the package code: a
one-sided Jacobi SVD instead of LAPACK, simplex grid search instead of
bisection water-filling, exact rational geometry instead of vectorised
clipping, closed-form 2x2 eigen capacities instead of the generic
spectrum path, and plain enumeration wherever the instance is small
enough.  Slow is fine here; oracles only ever see small inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# one-sided Jacobi SVD

def jacobi_singular_values(a, tol: float = 1e-13, max_sweeps: int = 60):
    """Singular values by cyclic one-sided Jacobi rotations.

    Columns are pairwise orthogonalised until every normalised cross
    product falls below `tol`; the singular values are then the column
    norms.  Complex pairs are phase-aligned first so the classic real
    rotation applies.
    """
    b = np.array(a, dtype=np.complex128)
    if b.shape[0] < b.shape[1]:
        b = b.conj().T
    n = b.shape[1]
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                bi = b[:, i].copy()
                bj = b[:, j].copy()
                alpha = float(np.real(bi.conj() @ bi))
                beta = float(np.real(bj.conj() @ bj))
                gamma = complex(bi.conj() @ bj)
                g = abs(gamma)
                if g == 0.0 or alpha == 0.0 or beta == 0.0:
                    continue
                rel = g / math.sqrt(alpha * beta)
                if rel <= tol:
                    continue
                off = max(off, rel)
                # align column j so the cross product becomes real positive
                vj = (gamma.conjugate() / g) * bj
                tau = (beta - alpha) / (2.0 * g)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                b[:, i] = c * bi - s * vj
                b[:, j] = s * bi + c * vj
        if off <= tol:
            break
    sv = np.sqrt(np.sum(np.abs(b) ** 2, axis=0).real)
    return np.sort(sv)[::-1]


#: sigma_min below this fraction of sigma_max counts as exact singularity
SINGULAR_FRACTION = 1e-14


def condition_number(a) -> float:
    """sigma_max / sigma_min from the Jacobi spectrum; math.inf once
    sigma_min falls under `SINGULAR_FRACTION` of sigma_max.  A zero
    matrix is rejected."""
    s = jacobi_singular_values(a)
    smax, smin = s[0], s[-1]
    if smax == 0.0:
        raise ValueError("condition number of the zero matrix is undefined")
    if smin < SINGULAR_FRACTION * smax:
        return math.inf
    return float(smax / smin)


# ---------------------------------------------------------------------------
# brute-force water-filling

def gridsearch_waterfill_capacity(svals, total_power: float, noise_power: float,
                                  coarse: int = 60, refine: int = 20, rounds: int = 1):
    """Best capacity found by simplex grid search over power allocations.

    A coarse sweep locates the neighbourhood of the optimum; each of
    `rounds` further sweeps spans two grid steps either side of the best
    point so far, on a grid 2/refine times as fine as the one before.
    Never exceeds the true optimum (every evaluated point is feasible).  The strongest mode, which is always active, takes the
    power the grid leaves over, so an inactive weak mode never has to be
    hit exactly.
    """
    gains = np.sort(np.asarray(svals, dtype=float) ** 2 / noise_power)
    k = gains.shape[0]

    def sweep(center, width, steps):
        axes = []
        for i in range(k - 1):
            lo = max(0.0, center[i] - width)
            hi = min(total_power, center[i] + width)
            axes.append(np.linspace(lo, hi, steps + 1))
        grids = np.meshgrid(*axes, indexing="ij")
        flat = [g.ravel() for g in grids]
        last = total_power - sum(flat)
        ok = last >= 0.0
        alloc = np.stack([f[ok] for f in flat] + [last[ok]], axis=1)
        cap = np.log2(1.0 + alloc * gains[None, :]).sum(axis=1)
        j = int(np.argmax(cap))
        return float(cap[j]), alloc[j]

    center = np.full(k, total_power / k)
    best, at = sweep(center, total_power, coarse)
    step = 2.0 * total_power / coarse
    for _ in range(rounds):
        cap, near = sweep(at, step, 2 * refine)
        if cap > best:
            best, at = cap, near
        step = 2.0 * step / refine
    return best


# ---------------------------------------------------------------------------
# exhaustive 1-bit phase patterns

def best_1bit_power(g, h, direct: complex = 0j) -> float:
    """Max received power over all 2^N one-bit patterns, by enumeration."""
    gv = np.asarray(g, dtype=np.complex128).reshape(-1)
    hv = np.asarray(h, dtype=np.complex128).reshape(-1)
    terms = hv * gv
    best = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=terms.shape[0]):
        amp = abs(np.dot(terms, signs) + direct)
        best = max(best, amp * amp)
    return best


# ---------------------------------------------------------------------------
# closed-form 2x2 MIMO capacity (Gram eigenvalues, no SVD machinery)

def capacity_2x2(h, total_power: float, noise_power: float) -> float:
    """Water-filled capacity of a 2x2 channel from trace/determinant."""
    m = np.asarray(h, dtype=np.complex128)
    g11 = abs(m[0, 0]) ** 2 + abs(m[1, 0]) ** 2
    g22 = abs(m[0, 1]) ** 2 + abs(m[1, 1]) ** 2
    g12 = m[0, 0].conjugate() * m[0, 1] + m[1, 0].conjugate() * m[1, 1]
    tr = g11 + g22
    det = g11 * g22 - abs(g12) ** 2
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    lam1 = 0.5 * (tr + disc)
    lam2 = 0.5 * (tr - disc)
    return _two_mode_capacity(lam1, lam2, total_power, noise_power)


def _two_mode_capacity(lam1: float, lam2: float, total_power: float,
                       noise_power: float) -> float:
    """Exact two-eigenmode water level, strongest mode first."""
    g1 = lam1 / noise_power
    g2 = lam2 / noise_power
    if g1 <= 0.0:
        return 0.0
    if g2 > 0.0:
        mu = 0.5 * (total_power + 1.0 / g1 + 1.0 / g2)
        if mu > 1.0 / g2:
            return math.log2(mu * g1) + math.log2(mu * g2)
    return math.log2(1.0 + total_power * g1)


def _cap_2x2_batch(hflat: np.ndarray, total_power: float,
                   noise_power: float) -> np.ndarray:
    """Vectorised capacity_2x2 over rows (h00, h01, h10, h11)."""
    g11 = np.abs(hflat[:, 0]) ** 2 + np.abs(hflat[:, 2]) ** 2
    g22 = np.abs(hflat[:, 1]) ** 2 + np.abs(hflat[:, 3]) ** 2
    g12 = hflat[:, 0].conj() * hflat[:, 1] + hflat[:, 2].conj() * hflat[:, 3]
    tr = g11 + g22
    det = g11 * g22 - np.abs(g12) ** 2
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    g1 = 0.5 * (tr + disc) / noise_power
    g2 = 0.5 * (tr - disc) / noise_power
    cap = np.zeros(hflat.shape[0])
    pos1 = g1 > 0.0
    with np.errstate(divide="ignore"):
        inv1 = np.where(pos1, 1.0 / np.where(pos1, g1, 1.0), np.inf)
        pos2 = g2 > 0.0
        inv2 = np.where(pos2, 1.0 / np.where(pos2, g2, 1.0), np.inf)
    mu = 0.5 * (total_power + inv1 + inv2)
    both = pos2 & (mu > inv2)
    cap[both] = np.log2(mu[both] * g1[both]) + np.log2(mu[both] * g2[both])
    single = pos1 & ~both
    cap[single] = np.log2(1.0 + total_power * g1[single])
    return cap


# ---------------------------------------------------------------------------
# exhaustive phase grids (2x2 terminals only)

def channel_terms_2x2(real):
    """(A, D) with H(theta) = theta @ A reshaped + D, A of shape (N, 4).

    Accepts any object with the ChannelRealization field layout; only
    plain array access is used here.
    """
    amp = math.sqrt(real.pl_ris_ue * real.pl_nb_ris)
    h = np.asarray(real.h_ris_ue)
    g = np.asarray(real.g_nb_ris)
    n = g.shape[0]
    a = np.empty((n, 4), dtype=np.complex128)
    for k in range(n):
        outer = amp * np.outer(h[:, k], g[k, :])
        a[k] = outer.reshape(-1)
    if real.h_nb_ue is not None:
        d = math.sqrt(real.pl_nb_ue) * np.asarray(real.h_nb_ue)
    else:
        d = np.zeros((2, 2), dtype=np.complex128)
    return a, d.reshape(-1)


def exhaustive_phase_capacity(terms, levels: int, total_power: float,
                              noise_power: float, chunk: int = 1 << 16):
    """Maximum weighted sum capacity over the full levels^N phase grid.

    `terms` is a sequence of (weight, A, D) with A shaped (N, 4) and D
    shaped (4,) as produced by `channel_terms_2x2`.  Returns the best
    objective, the per-term capacities there, and the winning digit
    vector.  Enumeration is chunked so the 8-level N = 8 grid (16.7M
    configurations) stays in bounded memory.
    """
    n = terms[0][1].shape[0]
    total = levels ** n
    roots = np.exp(2j * np.pi * np.arange(levels) / levels)
    best_val = -np.inf
    best_idx = -1
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = np.empty((idx.shape[0], n), dtype=np.int64)
        rem = idx.copy()
        for k in range(n):
            digits[:, k] = rem % levels
            rem //= levels
        theta = roots[digits]
        obj = np.zeros(idx.shape[0])
        for w, a, d in terms:
            hflat = theta @ a + d[None, :]
            obj += w * _cap_2x2_batch(hflat, total_power, noise_power)
        j = int(np.argmax(obj))
        if obj[j] > best_val:
            best_val = float(obj[j])
            best_idx = int(idx[j])
    rem = best_idx
    digits = []
    for _ in range(n):
        digits.append(rem % levels)
        rem //= levels
    theta = roots[np.array(digits)]
    caps = []
    for w, a, d in terms:
        hflat = (theta[None, :] @ a) + d[None, :]
        caps.append(float(_cap_2x2_batch(hflat, total_power, noise_power)[0]))
    return best_val, caps, digits


# ---------------------------------------------------------------------------
# exact rational segment-rectangle intersection

def segment_hits_rectangle_exact(p, q, rect) -> bool:
    """Does the open segment pq meet the closed rectangle?  Exact.

    Coordinates are converted through Fraction, so inputs must be ints
    or floats that represent the intended rationals exactly (dyadic
    values such as k/8 are safe).  Blocking semantics: any parameter
    t strictly inside (0, 1) landing in the closed rectangle counts;
    touching only at an endpoint does not.
    """
    px, py = (Fraction(v) for v in p)
    qx, qy = (Fraction(v) for v in q)
    lo_t, hi_t = Fraction(0), Fraction(1)
    for s, e, lo, hi in (
        (px, qx, Fraction(rect[0]), Fraction(rect[2])),
        (py, qy, Fraction(rect[1]), Fraction(rect[3])),
    ):
        d = e - s
        if d == 0:
            if not lo <= s <= hi:
                return False
            continue
        ta = (lo - s) / d
        tb = (hi - s) / d
        if ta > tb:
            ta, tb = tb, ta
        lo_t = max(lo_t, ta)
        hi_t = min(hi_t, tb)
    if lo_t > hi_t:
        return False
    if lo_t == hi_t:
        return 0 < lo_t < 1
    return hi_t > 0 and lo_t < 1


# ---------------------------------------------------------------------------
# quantization-loss Monte Carlo

def quantization_ratio_oracle(n: int, bits: int, samples: int, seed: int) -> float:
    """mean(quantized power) / mean(continuous power) for aligned MISO.

    Draws per-element amplitudes r_n = |g_n||h_n| and composite angles
    directly, snaps the continuous alignment to the nearest of 2^bits
    levels by exhaustive search over the level set, and accumulates the
    two mean powers.  No package code is involved.
    """
    rng = np.random.default_rng(seed)
    levels = TWO_PI * np.arange(1 << bits) / (1 << bits)
    num = 0.0
    den = 0.0
    batch = 4096
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        r = (np.abs(rng.normal(size=(b, n)) + 1j * rng.normal(size=(b, n)))
             * np.abs(rng.normal(size=(b, n)) + 1j * rng.normal(size=(b, n)))) / 2.0
        omega = rng.uniform(0.0, TWO_PI, size=(b, n))
        cont = np.mod(-omega, TWO_PI)
        # distance to each level around the circle, smallest index wins ties
        diff = np.abs(cont[:, :, None] - levels[None, None, :])
        dist = np.minimum(diff, TWO_PI - diff)
        pick = np.argmin(dist, axis=2)
        eps = levels[pick] + omega
        num += float(np.sum(np.abs(np.sum(r * np.exp(1j * eps), axis=1)) ** 2))
        den += float(np.sum(np.sum(r, axis=1) ** 2))
        done += b
    return num / den


# ---------------------------------------------------------------------------
# stacked spectrum with the 2x2 closed form, frozen

def stack_singular_values(h) -> np.ndarray:
    """Descending singular values of every matrix of a stack (..., r, c).

    A frozen copy of the package's old spectrum call, not an independent
    algorithm: a stack of 2x2 blocks takes the Gram closed form below and
    every other shape goes to LAPACK.  `capacity_closed_form` of this
    spectrum is the two-call route that `numkernel.stack_capacity` fuses,
    so the engine is checked against it bit for bit.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.shape[-2:] != (2, 2):
        return np.linalg.svd(h, compute_uv=False)
    return _two_by_two_spectrum(h).T.reshape(h.shape[:-1])


def _two_by_two_spectrum(h: np.ndarray) -> np.ndarray:
    """Rows (sigma_1, sigma_2), one column per 2x2 block of `h` in C order.

    With the Gram matrix H^H H = [[p, q], [q*, r]], sigma_1^2 = (p + r)/2
    + sqrt(((p - r)/2)^2 + |q|^2) and sigma_2 = |det H| / sigma_1 (0 for
    a zero block), capped at sigma_1.  Each block is first scaled by the
    power of two of its largest entry, which is exact.
    """
    z = np.ascontiguousarray(h.reshape(-1, 4).T)
    x = z.view(float)
    top = np.abs(x).max(axis=0)
    _, e = np.frexp(np.maximum(top[0::2], top[1::2]))
    x = np.ldexp(x, -np.repeat(e, 2))
    z = x.view(np.complex128)
    sq = x * x
    mag = sq[:, 0::2] + sq[:, 1::2]
    p, r = mag[:2] + mag[2:]
    ab, cd = z[0::2].conj() * z[1::2]
    q = (ab + cd).view(float)
    q *= q
    ad, bc = z[:2] * z[3:1:-1]
    half = 0.5 * (p - r)
    s = np.empty((2, e.shape[0]))
    s1 = np.sqrt(0.5 * (p + r) + np.sqrt(half * half + (q[0::2] + q[1::2])), out=s[0])
    np.minimum(np.abs(ad - bc) / np.where(s1 > 0.0, s1, 1.0), s1, out=s[1])
    return np.ldexp(s, e, out=s)


# ---------------------------------------------------------------------------
# per-problem phase sweep, frozen

def per_problem_phase_ascent(entries, amplitudes, init_phases, total_power,
                             noise_power, max_iters, rel_tol, grid_points):
    """One weighted phase ascent, one entry and one element at a time.

    Unlike the rest of this file this is not an independent algorithm: it
    is a frozen copy of the per-problem sweep the package ran before
    `ris.phase_ascent_batch`, with one spectrum call and one capacity call
    per entry and element.  It takes its spectra from the frozen
    `stack_singular_values` above and its capacities from the package's
    `numkernel.capacity_closed_form`, so bit-for-bit agreement with it
    shows that batching and the fused kernel changed the bookkeeping and
    not the arithmetic; `test_numkernel` checks the package's 2x2 spectrum
    against LAPACK.  Returns
    (phases, per_entry_capacities, trace) like one problem of the engine.
    """
    from ris_sim import numkernel

    n = amplitudes.shape[0]
    weights = np.array([w for w, _ in entries], dtype=float)
    terms = []
    for _, real in entries:
        a = math.sqrt(real.pl_ris_ue * real.pl_nb_ris) * real.h_ris_ue
        b = real.g_nb_ris
        if real.h_nb_ue is not None:
            d = math.sqrt(real.pl_nb_ue) * real.h_nb_ue
        else:
            d = np.zeros((real.u_antennas, real.m_antennas), dtype=np.complex128)
        terms.append((a, b, d))
    outers = [a.T[:, :, None] * b[:, None, :] for a, b, _ in terms]

    phases = np.array(init_phases, dtype=float)
    theta_vec = amplitudes * np.exp(1j * phases)
    hs = [(a * theta_vec[None, :]) @ b + d for a, b, d in terms]
    grid = TWO_PI * np.arange(grid_points) / grid_points
    per_caps = np.array([
        numkernel.capacity_closed_form(
            stack_singular_values(h), total_power, noise_power)
        for h in hs
    ])
    cur = float(weights @ per_caps)
    trace = [cur]
    live = np.nonzero(amplitudes > 0.0)[0]
    for _ in range(max_iters):
        for nidx in live:
            cand = amplitudes[nidx] * np.exp(1j * grid)
            delta = cand - theta_vec[nidx]
            total = np.zeros(grid_points)
            cand_caps = []
            for k in range(len(terms)):
                hc = hs[k][None, :, :] + delta[:, None, None] * outers[k][nidx]
                sv = stack_singular_values(hc)
                cg = numkernel.capacity_closed_form(sv, total_power, noise_power)
                cand_caps.append(cg)
                total += weights[k] * cg
            j = int(np.argmax(total))
            if total[j] > cur:
                for k in range(len(terms)):
                    hs[k] = hs[k] + delta[j] * outers[k][nidx]
                theta_vec[nidx] = cand[j]
                phases[nidx] = grid[j]
                per_caps = np.array([cc[j] for cc in cand_caps])
                cur = float(total[j])
        trace.append(cur)
        gain = trace[-1] - trace[-2]
        if gain <= rel_tol * max(abs(trace[-2]), 1e-30):
            break
    out = np.mod(phases, TWO_PI)
    return np.where(out >= TWO_PI, 0.0, out), per_caps, trace


def unit_gain_entries(weights, g, h):
    """The (weight, realization) entries of `per_problem_phase_ascent` for
    one `ris.phase_ascent_batch` problem given as (weights, g, h): unit
    path gains and no direct link."""
    return [(float(w), ChannelRealization(g_nb_ris=gk, h_ris_ue=hk, h_nb_ue=None,
                                          pl_nb_ris=1.0, pl_ris_ue=1.0, pl_nb_ue=0.0))
            for w, gk, hk in zip(weights, g, h)]


# ---------------------------------------------------------------------------
# aligned-MISO start of one realization, frozen

def aligned_start(real):
    """Aligned-MISO start phases of one `ChannelRealization`, as the
    package computed them one trial at a time before `ris.aligned_phases`
    took stacks: the per-element MISO collapse `effective_miso`, then the
    alignment `align_phases_miso` made when it still took the direct term.

    Like `per_problem_phase_ascent` this is a frozen copy, not an
    independent algorithm: it takes its singular vectors from the
    package's `numkernel.svd`, one matrix at a time.
    """
    from ris_sim import numkernel
    from ris_sim.ris import wrap_phase

    v = numkernel.svd(real.g_nb_ris).right_vectors[:, 0]
    u = numkernel.svd(real.h_ris_ue).left_vectors[:, 0]
    g_eff = math.sqrt(real.pl_nb_ris) * (real.g_nb_ris @ v)
    h_eff = math.sqrt(real.pl_ris_ue) * (u.conj() @ real.h_ris_ue)
    direct = 0j
    if real.h_nb_ue is not None:
        direct = complex(math.sqrt(real.pl_nb_ue) * (u.conj() @ real.h_nb_ue @ v))
    ref = np.angle(direct) if direct != 0 else 0.0
    return wrap_phase(ref - np.angle(h_eff) - np.angle(g_eff))


# ---------------------------------------------------------------------------
# per-trial stale-CSI evaluation, frozen

def per_trial_stale_draws(coex, trial: int, seed: int):
    """Network B's channel blocks and A's surface states of one trial.

    Like `per_problem_phase_ascent` this is a frozen copy, not an
    independent algorithm: the stale-CSI draw as it ran before the stacked
    path, rebuilding the LoS blocks and path gains of the bounce link on
    every call.  Returns ((g, h, direct, pl_nb_ris, pl_ris_ue, pl_nb_ue),
    th1, th2); th2 is th1 itself when the surface holds still.
    """
    from ris_sim import channel
    from ris_sim.seeding import rng_from, subseed

    def foreign_theta(label):
        phi = rng_from(seed, label).uniform(0.0, TWO_PI, n)
        return np.exp(1j * phi)

    geom = coex.geometry
    params = coex.params
    direct_params = None if coex.b_direct_blocked else coex.direct_params
    nb, ris, ue = "nb_b", "ris_a", "ue_b"
    m, n, u = coex.m_antennas, coex.n_elements, coex.u_antennas
    base = subseed(subseed(seed, "b-link"), f"trial/{trial}")
    lam = geom.wavelength

    def link(frm, to, rows, cols, p, label):
        wf = channel.resolve_wavefront(geom, frm, to, rows, cols, p.wavefront_model)
        los = channel.gen_los(geom, frm, to, rows, cols, wf)
        block = rician_block(p.rician_k, los, np.random.default_rng(subseed(base, label)))
        gain = channel.path_gain(lam, geom.distance(frm, to), p.path_loss_exponent)
        return block, gain

    g, pl_g = link(nb, ris, n, m, params, "nb_ris")
    h, pl_h = link(ris, ue, u, n, params, "ris_ue")
    direct, pl_d = None, 0.0
    if direct_params is not None:
        direct, pl_d = link(nb, ue, u, m, direct_params, "nb_ue")
    th1 = foreign_theta(f"theta/{trial}/{coex.t1}")
    if coex.policy == "rerandomize_each_slot" and coex.t2 != coex.t1:
        th2 = foreign_theta(f"theta/{trial}/{coex.t2}")
    else:
        th2 = th1
    return (g, h, direct, pl_g, pl_h, pl_d), th1, th2


def one_stream_draw(rng, links, uniforms: int, uniform_rng=None):
    """One trial's blocks and uniforms, block by block.

    `links` holds (Rician factor, LoS block, shape) per link, None for a
    missing one.  One `standard_normal` call on `rng` draws the real, then
    the imaginary parts of every block at finite factor, in link order;
    one `random` call then draws `uniforms` values, on `uniform_rng`, or on
    `rng` when it is None.  Each part is multiplied by
    1/sqrt(2), then by the scatter weight sqrt(1/(K+1)); at K > 0 the
    block adds sqrt(K/(K+1)) los, and at K = inf it is a copy of `los`.
    Returns (blocks, uniforms).
    """
    scattered = [math.prod(link[2]) for link in links
                 if link is not None and not math.isinf(link[0])]
    normals = rng.standard_normal(2 * sum(scattered))
    drawn = (rng if uniform_rng is None else uniform_rng).random(uniforms)
    blocks, offset = [], 0
    for link in links:
        if link is None:
            blocks.append(None)
            continue
        k, los, shape = link
        if math.isinf(k):
            blocks.append(np.array(los))
            continue
        size = math.prod(shape)
        re = normals[offset:offset + size].reshape(shape)
        im = normals[offset + size:offset + 2 * size].reshape(shape)
        offset += 2 * size
        weight = math.sqrt(1.0 / (k + 1.0))
        block = np.empty(shape, dtype=np.complex128)
        block.real = re * (1.0 / math.sqrt(2.0)) * weight
        block.imag = im * (1.0 / math.sqrt(2.0)) * weight
        if k > 0.0:
            block = block + math.sqrt(k / (k + 1.0)) * los
        blocks.append(block)
    return blocks, drawn


def surface_states(drawn, n: int):
    """The unit-modulus surface states exp(j 2 pi u) of a trial's uniforms,
    N at a time."""
    return [np.exp(1j * (drawn[i:i + n] * TWO_PI)) for i in range(0, len(drawn), n)]


def _stale_links(coex):
    """(link specs, path gains, surface uniforms per trial) of network B's
    stale-CSI draw, for `one_stream_draw`; LoS blocks and path gains are
    rebuilt on every call."""
    from ris_sim import channel

    geom = coex.geometry
    direct_params = None if coex.b_direct_blocked else coex.direct_params
    m, n, u = coex.m_antennas, coex.n_elements, coex.u_antennas

    def link(frm, to, rows, cols, p):
        los = None
        if p.rician_k > 0.0:
            wf = channel.resolve_wavefront(geom, frm, to, rows, cols, p.wavefront_model)
            los = channel.gen_los(geom, frm, to, rows, cols, wf)
        gain = channel.path_gain(geom.wavelength, geom.distance(frm, to), p.path_loss_exponent)
        return (p.rician_k, los, (rows, cols)), gain

    links = [link("nb_b", "ris_a", n, m, coex.params), link("ris_a", "ue_b", u, n, coex.params)]
    links.append((None, 0.0) if direct_params is None
                 else link("nb_b", "ue_b", u, m, direct_params))
    moves = coex.policy == "rerandomize_each_slot" and coex.t2 != coex.t1
    return [spec for spec, _ in links], tuple(gain for _, gain in links), (1 + moves) * n


def _stale_draws(coex, rng, uniform_rng=None):
    """What `per_trial_stale_draws` returns, for one trial drawn by
    `one_stream_draw` from `rng` (and `uniform_rng`)."""
    specs, gains, uniforms = _stale_links(coex)
    (g, h, direct), drawn = one_stream_draw(rng, specs, uniforms, uniform_rng)
    states = surface_states(drawn, coex.n_elements)
    return (g, h, direct) + gains, states[0], states[-1]


def per_trial_keyed_stale_draws(coex, trial: int, seed: int):
    """Network B's channel blocks and A's surface states of one trial,
    drawn from the trial's one stream `default_rng(subseed(seed,
    f"stale/{trial}"))` with `one_stream_draw`, without the stacked code:
    the frozen per-trial route.

    The blocks are nb_ris, ris_ue and nb_ue, and the uniforms A's surface
    at t1, then at t2 when it moves.  Returns what `per_trial_stale_draws`
    returns.
    """
    from ris_sim.seeding import subseed

    return _stale_draws(coex, np.random.default_rng(subseed(seed, f"stale/{trial}")))


def run_stream_stale_draws(coex, trials: int, seed: int):
    """`per_trial_keyed_stale_draws`' draws of trials 0 to trials - 1, drawn
    trial after trial from the run's two streams, `default_rng(subseed(seed,
    "stale/normals"))` for the blocks and `".../uniforms"` for the
    surface states."""
    from ris_sim.seeding import subseed

    normals, uniforms = (np.random.default_rng(subseed(seed, f"stale/{kind}"))
                         for kind in ("normals", "uniforms"))
    return [_stale_draws(coex, normals, uniforms) for _ in range(trials)]


def per_trial_stale_rates(coex, draws, bounce_amp_scale: float):
    """(fresh_rate, stale_rate, loss_fraction) of one trial's draws, one
    channel at a time: the frozen per-trial assembly, precoder and rate."""
    from ris_sim.numkernel import waterfill_powers

    (g, h, direct, pl_g, pl_h, pl_d), th1, th2 = draws
    p_b = coex.tx_power_b
    noise = coex.params.noise_power

    def assemble(theta):
        if np.any(np.abs(theta) > 1.0 + 1e-12):
            raise ValueError("reflection coefficients must have magnitude <= 1")
        amp = math.sqrt(pl_h * pl_g) * bounce_amp_scale
        h_t = amp * (h * theta[None, :]) @ g
        if direct is not None:
            h_t = h_t + math.sqrt(pl_d) * direct
        return h_t

    def precoder(h_t):
        _, s, vh = np.linalg.svd(h_t, full_matrices=False)
        return vh.conj().T * np.sqrt(waterfill_powers(s, p_b, noise))[None, :]

    def rate(h_t, f):
        hf = h_t @ f
        gram = np.eye(h_t.shape[0], dtype=np.complex128) + hf @ hf.conj().T / noise
        return float(np.linalg.slogdet(gram)[1] / np.log(2.0))

    h1 = assemble(th1)
    h2 = assemble(th2)
    stale = rate(h2, precoder(h1))
    fresh = rate(h2, precoder(h2))
    loss = 0.0 if fresh == 0.0 else (fresh - stale) / fresh
    return fresh, stale, loss


# ---------------------------------------------------------------------------
# complex normal draws and the Rician mix, frozen

def two_draw_complex_normal(rng, shape):
    """The complex normal draw as it ran before the one-call draw: the real
    parts, then the imaginary parts, in two `standard_normal` calls,
    combined on complex temporaries."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def rician_block(k: float, los, rng, shape=None):
    """The Rician block of factor `k` around `los` as it was mixed before
    the stacked draw: both weighted parts as temporaries, then their sum.
    A link at k = 0 builds no LoS block: `los` is None, and the block is
    the weighted scatter of `shape` alone, which the zero-weight LoS part
    left as it was."""
    if math.isinf(k):
        return np.array(los)
    if los is None:
        return math.sqrt(1.0 / (k + 1.0)) * two_draw_complex_normal(rng, shape)
    scatter = two_draw_complex_normal(rng, los.shape)
    return math.sqrt(k / (k + 1.0)) * los + math.sqrt(1.0 / (k + 1.0)) * scatter


def keyed_blocks(scenario, trial: int, seed: int):
    """The channel blocks of one trial of `scenario` on `seed` as the
    scalar draw made them before the stacked route, in a
    `ChannelRealization`.

    Link l's block is `rician_block` from `default_rng(key)`, keyed
    `subseed(subseed(seed, f"trial/{trial}"), label)` by one `SeedSequence`
    per call; a pure-LoS block is a copy of the scenario's.
    """
    from ris_sim.seeding import subseed

    base = subseed(seed, f"trial/{trial}")
    g, h, direct = (
        None if params is None
        else rician_block(params.rician_k, los, np.random.default_rng(subseed(base, label)),
                          shape)
        for label, (params, los, shape) in zip(("nb_ris", "ris_ue", "nb_ue"), scenario.links())
    )
    return ChannelRealization(g_nb_ris=g, h_ris_ue=h, h_nb_ue=direct,
                              pl_nb_ris=scenario.pl_nb_ris, pl_ris_ue=scenario.pl_ris_ue,
                              pl_nb_ue=scenario.pl_nb_ue)

# ---------------------------------------------------------------------------
# one-trial panel and channel layer, frozen
#
# Like `per_problem_phase_ascent` these are frozen copies, not independent
# algorithms: the panel value type, its quantizer, the MISO alignment and
# gain, the one-trial realization and its assembly, as the package ran them
# before beamforming and the assembly went to stacked arrays.  The array
# route (`ris.align_miso`, `ris.miso_gains`, `ris.quantize_phases`,
# `channel.assemble_stack`) is pinned against them byte for byte.

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


#: the widest quantization the package took when this copy was frozen
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
    from ris_sim.ris import wrap_phase

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


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a 2-D complex128 array.

    Raises ValueError for wrong dimensionality, zero-sized axes, or
    non-finite entries.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValueError(f"{name} has a zero dimension: shape={arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One drawn set of channel blocks plus their path-loss scalars.

    `h_nb_ue` is None when the direct link is blocked; the assembly then
    consists of the reflected term alone.
    """

    g_nb_ris: np.ndarray
    h_ris_ue: np.ndarray
    h_nb_ue: np.ndarray | None
    pl_nb_ris: float
    pl_ris_ue: float
    pl_nb_ue: float

    def __post_init__(self):
        g = as_complex_matrix(self.g_nb_ris, "g_nb_ris")
        h = as_complex_matrix(self.h_ris_ue, "h_ris_ue")
        object.__setattr__(self, "g_nb_ris", g)
        object.__setattr__(self, "h_ris_ue", h)
        if h.shape[1] != g.shape[0]:
            raise ValueError(
                f"element count mismatch: h_ris_ue has {h.shape[1]} columns, "
                f"g_nb_ris has {g.shape[0]} rows"
            )
        if self.h_nb_ue is not None:
            d = as_complex_matrix(self.h_nb_ue, "h_nb_ue")
            object.__setattr__(self, "h_nb_ue", d)
            if d.shape != (h.shape[0], g.shape[1]):
                raise ValueError(
                    f"h_nb_ue shape {d.shape} does not match (U, M) = "
                    f"({h.shape[0]}, {g.shape[1]})"
                )
        for name in ("pl_nb_ris", "pl_ris_ue", "pl_nb_ue"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")

    @property
    def n_elements(self) -> int:
        return self.g_nb_ris.shape[0]

    @property
    def m_antennas(self) -> int:
        return self.g_nb_ris.shape[1]

    @property
    def u_antennas(self) -> int:
        return self.h_ris_ue.shape[0]


def _check_theta(diag: np.ndarray, n: int) -> np.ndarray:
    """Check reflection diagonals stacked along the last axis of `diag`."""
    if diag.shape[-1] != n:
        raise ValueError(f"surface has {diag.shape[-1]} elements, channel expects {n}")
    if np.any(np.abs(diag) > 1.0 + 1e-12):
        raise ValueError("reflection coefficients must have magnitude <= 1")
    return diag


def _theta_vector(theta, n: int) -> np.ndarray:
    """Check a surface given as its complex reflection diagonal."""
    return _check_theta(np.asarray(theta, dtype=np.complex128).reshape(-1), n)


def assemble_effective(real: ChannelRealization, theta) -> np.ndarray:
    """Effective base-station -> user channel for one surface setting.

    `theta` is the surface's complex reflection diagonal, for example
    `RisPanel.theta_diagonal()`; every |theta_n| must be at most 1.
    """
    diag = _theta_vector(theta, real.n_elements)
    return _assemble(real, real.g_nb_ris, real.h_ris_ue, real.h_nb_ue, diag, 1.0)


def _assemble(gains, g, h, direct, diag, beta_gain: float) -> np.ndarray:
    """The assembly formula for one trial or a stack; `gains` is the
    realization or scenario that carries the path gains `pl_*`."""
    if beta_gain < 0.0:
        raise ValueError(f"beta_gain must be >= 0, got {beta_gain}")
    amp = math.sqrt(gains.pl_ris_ue * gains.pl_nb_ris) * beta_gain
    # diag[..., None, :] has the ndim of h: numpy picks its elementwise loop
    # by operand layout, and only equal layouts round alike in every case
    h_d = h * diag[..., None, :]
    h_d *= amp
    h_t = h_d @ g
    if direct is not None:
        h_t += math.sqrt(gains.pl_nb_ue) * direct
    return h_t


def assemble_multi_panel(reals, thetas) -> np.ndarray:
    """Superpose the reflected terms of several panels.

    Each realization describes the hop through one panel, whose reflection
    diagonal is the matching entry of `thetas`; the direct term is taken
    from the first realization that carries one (the direct link does not
    depend on any panel).
    """
    if len(reals) != len(thetas) or not reals:
        raise ValueError("need one realization per panel, at least one pair")
    shape = (reals[0].u_antennas, reals[0].m_antennas)
    h_t = np.zeros(shape, dtype=np.complex128)
    for real, theta in zip(reals, thetas):
        if (real.u_antennas, real.m_antennas) != shape:
            raise ValueError("all realizations must share (U, M)")
        diag = _theta_vector(theta, real.n_elements)
        amp = math.sqrt(real.pl_ris_ue * real.pl_nb_ris)
        h_t += amp * (real.h_ris_ue * diag[None, :]) @ real.g_nb_ris
    for real in reals:
        if real.h_nb_ue is not None:
            h_t = h_t + math.sqrt(real.pl_nb_ue) * real.h_nb_ue
            break
    return h_t


# ---------------------------------------------------------------------------
# carrier-sensing and band-filter budgets, frozen

def coex_networks(coex):
    """Networks A and B of a coexistence scenario in the form the frozen
    budgets read: A owns surface `ris_a`, B owns none."""
    net_a = SimpleNamespace(nb="nb_a", ue="ue_a", ris="ris_a", n_elements=coex.n_elements,
                            tx_power=coex.tx_power_a)
    net_b = SimpleNamespace(nb="nb_b", ue="ue_b", ris=None, n_elements=0,
                            tx_power=coex.tx_power_b)
    return net_a, net_b


def lbt_decide(sense_threshold_dbm: float, powers_dbm) -> bool:
    """True when the summed sensed power stays below the threshold; an
    empty medium always clears."""
    total_mw = 0.0
    for power_dbm in powers_dbm:
        total_mw += 10.0 ** (power_dbm / 10.0)
    if total_mw == 0.0:
        return True
    return 10.0 * math.log10(total_mw) < sense_threshold_dbm


def watts_to_dbm(p: float) -> float:
    return 10.0 * math.log10(p * 1e3) if p > 0.0 else -math.inf


def interference_power(coex, victim, source) -> float:
    """Mean received power at the victim's user from the source network:
    the ground path at the direct exponent, plus the incoherent bounce
    off the source's own surface."""
    from ris_sim.channel import path_gain

    geom = coex.geometry
    lam = geom.wavelength
    alpha = coex.params.path_loss_exponent
    ground = coex.direct_params.path_loss_exponent
    p = path_gain(lam, geom.distance(source.nb, victim.ue), ground)
    if source.ris is not None:
        p += (
            path_gain(lam, geom.distance(source.nb, source.ris), alpha)
            * source.n_elements
            * path_gain(lam, geom.distance(source.ris, victim.ue), alpha)
        )
    return source.tx_power * p


def sensed_sources(coex, listener, source):
    """Powers (dBm) a transmission presents to a listener's base station."""
    from ris_sim.channel import path_gain

    geom = coex.geometry
    lam = geom.wavelength
    alpha = coex.params.path_loss_exponent
    out = [watts_to_dbm(source.tx_power
                        * path_gain(lam, geom.distance(source.nb, listener.nb), alpha))]
    if source.ris is not None:
        p = (source.tx_power
             * path_gain(lam, geom.distance(source.nb, source.ris), alpha)
             * source.n_elements
             * path_gain(lam, geom.distance(source.ris, listener.nb), alpha))
        out.append(watts_to_dbm(p))
    return out


def apply_band_filter(filt, inband_power_dbm: float, oob_power_dbm: float,
                      reflective: bool):
    """(in-band, out-of-band) output levels in dBm of one traversal, or a
    reflection's `passes_on_reflection` traversals, of a band filter with
    fields `per_pass_oob_attenuation_db`, `inband_insertion_loss_db` and
    `passes_on_reflection`."""
    passes = filt.passes_on_reflection if reflective else 1
    inband = inband_power_dbm - filt.inband_insertion_loss_db * passes
    oob = (oob_power_dbm
           - filt.per_pass_oob_attenuation_db * passes
           - filt.inband_insertion_loss_db * passes)
    return inband, oob


# ---------------------------------------------------------------------------
# LBT keyed per trial, frozen
#
# The LBT runner as it ran before it drew from run-level generators: trial
# t was a run of its own on the seed `subseed(seed, f"run/{t}")`, drew each
# own link alone from one generator for both draw kinds, and called its
# access generator inside the slot loop.

LBT_METRICS = ("airtime_a", "airtime_b", "collision_fraction", "mean_rate_a", "mean_rate_b")


def per_trial_lbt_rows(scenario, seed: int, trials: int) -> list:
    """The (trial, metric, value) rows of an LBT run (`scenario` holds
    `mode: lbt`) on the per-trial route."""
    from ris_sim.experiments import _coex_scenario, resolve_scenario
    from ris_sim.seeding import subseed

    p = resolve_scenario("coexist", scenario)
    coex = _coex_scenario(p)
    rows = []
    for t in range(trials):
        values = _per_trial_lbt(coex, p["sense_threshold_dbm"], p["backoff_slots_max"],
                                p["slots"], subseed(seed, f"run/{t}"))
        rows += [(t, name, v) for name, v in zip(LBT_METRICS, values)]
    return rows


def _per_trial_own_spectra(coex, seed: int):
    """A's and B's own-link spectra, each link from its own generator
    `own/a` or `own/b`, which serves both of its draw kinds."""
    from ris_sim.channel import _fixed_link, assemble_stack, draw_links, draw_stack
    from ris_sim.coexist import _surface_link
    from ris_sim.numkernel import singular_values
    from ris_sim.ris import aligned_phases
    from ris_sim.seeding import rng_from

    link = _surface_link(coex, "a", True)
    *blocks, _ = draw_stack(link, 1, rng_from(seed, "own/a"))
    theta = np.exp(1j * aligned_phases(*blocks, gains=link))
    s_a = singular_values(assemble_stack(link, *blocks, theta)[0])
    rng = rng_from(seed, "own/b")
    if coex.b_direct_blocked:
        link = _surface_link(coex, "b", False)
        *blocks, theta = draw_stack(link, 1, rng, rng, surfaces=1)
        s_b = singular_values(assemble_stack(link, *blocks, theta[0])[0])
    else:
        dp, u, m = coex.direct_params, coex.u_antennas, coex.m_antennas
        los, pl = _fixed_link(coex.geometry, "nb_b", "ue_b", u, m, dp)
        (h,), _ = draw_links([(dp, los, (u, m))], 1, rng)
        s_b = singular_values(math.sqrt(pl) * h[0])
    return s_a, s_b


def _per_trial_lbt(coex, threshold_dbm: float, backoff_max: int, slots: int, seed: int):
    """One LBT run's five metrics, in `LBT_METRICS` order: a random polling
    order by `permutation(2)` per slot and a backoff by `integers` per
    deferral, both on the generator `lbt`, and each slot's rate summed."""
    from ris_sim.coexist import _budgets
    from ris_sim.numkernel import capacity_closed_form
    from ris_sim.seeding import rng_from

    clear, inter = _budgets(coex, threshold_dbm)
    noise = coex.params.noise_power
    spectra = _per_trial_own_spectra(coex, seed)
    tx = (coex.tx_power_a, coex.tx_power_b)
    rate_alone = [capacity_closed_form(s, p, noise) for s, p in zip(spectra, tx)]
    rate_coll = [capacity_closed_form(s, p, noise + x) for s, p, x in zip(spectra, tx, inter)]
    rng = rng_from(seed, "lbt")
    backoff = [0, 0]
    tx_slots = [0, 0]
    collisions = 0
    rate_sum = [0.0, 0.0]
    for _ in range(slots):
        granted = []
        for i in rng.permutation(2):
            if backoff[i] > 0:
                backoff[i] -= 1
                continue
            if not granted or clear[i]:
                granted.append(i)
            else:
                backoff[i] = int(rng.integers(0, backoff_max + 1))
        collided = len(granted) == 2
        collisions += collided
        for i in granted:
            tx_slots[i] += 1
            rate_sum[i] += rate_coll[i] if collided else rate_alone[i]
    return (tx_slots[0] / slots, tx_slots[1] / slots, collisions / slots,
            rate_sum[0] / slots, rate_sum[1] / slots)


# ---------------------------------------------------------------------------
# Rayleigh blocks of rank, beamform and multiuser: the scalar reference of
# one stream per run, and of one stream per trial, frozen

def rayleigh_trial_blocks(seed: int, label: str, shapes, trials=None):
    """Unit CN(0, 1) blocks of `shapes`, in order, from the one stream
    `default_rng(subseed(seed, label))`, drawn by `one_stream_draw`: one
    `standard_normal` call gives each block's real, then imaginary parts,
    block after block.  A None shape gives a None block and draws nothing.

    With `trials`, the stream is a run's: returns the blocks of each of
    `trials` trials, drawn one trial after the other from it.
    """
    from ris_sim.seeding import subseed

    rng = np.random.default_rng(subseed(seed, label))
    links = [None if shape is None else (0.0, None, shape) for shape in shapes]
    if trials is None:
        return one_stream_draw(rng, links, 0)[0]
    return [one_stream_draw(rng, links, 0)[0] for _ in range(trials)]


# ---------------------------------------------------------------------------
# rank, beamform and multiuser keyed per (trial, block) or per trial, frozen
#
# The three runners as they drew before they drew one stream per run:
# first every block from its own stream, one `standard_normal` call each,
# scaled straight from its parts; then every trial (and beamform size)
# from its own stream, one `standard_normal` call each.  Both routes share
# the evaluation below; only the draw of a trial's unit blocks differs.

def block_keyed_draw(seed: int, label: str, shape, scale: float = 1.0):
    """`scale` times a unit CN(0, 1) block of `shape` from its own stream
    `default_rng(subseed(seed, label))`."""
    from ris_sim.seeding import complex_from_parts, subseed

    rng = np.random.default_rng(subseed(seed, label))
    out = np.empty((1,) + shape, dtype=np.complex128)
    return complex_from_parts(rng.standard_normal((1, 2) + shape), out, scale)[0]


def block_keyed_rows(experiment: str, scenario, seed: int, trials: int) -> list:
    """The (trial, metric, value) rows of a rank, beamform or multiuser run
    on the per-(trial, block) route, each block drawn on its own.

    Rank draws its departure projection from `subseed(subseed(seed,
    f"trial/{t}"), "ris_ue")` and its direct block from the same chain
    with "nb_ue"; beamform draws size N's incident and departure
    coefficients from `f"beamform/{t}/{N}/g"` and `".../h"`; multiuser
    draws user i's hops from `f"multiuser/{t}/ue{i}/g"` and `".../h"`.
    """
    from ris_sim.seeding import subseed

    def rank(t, shapes):
        base = subseed(seed, f"trial/{t}")
        return [None if shape is None else block_keyed_draw(base, label, shape)
                for label, shape in zip(("ris_ue", "nb_ue"), shapes)]

    def beamform(t, shapes):
        return [block_keyed_draw(seed, f"beamform/{t}/{shape[0]}/{hop}", shape)
                for hop, shape in zip("gh", shapes)]

    def multiuser(t, shapes):
        return [np.array([block_keyed_draw(seed, f"multiuser/{t}/ue{i}/{hop}", shape[1:])
                          for i in range(shape[0])]) for hop, shape in zip("gh", shapes)]

    draw = {"rank": rank, "beamform": beamform, "multiuser": multiuser}[experiment]
    return _frozen_rows(experiment, scenario, seed, trials, draw)


def trial_keyed_rows(experiment: str, scenario, seed: int, trials: int) -> list:
    """The (trial, metric, value) rows of a rank, beamform, multiuser,
    coexist (stale-CSI) or adjacent run on the per-trial route, each trial
    drawn from its own stream by `one_stream_draw`.

    Rank draws its departure projection, then its direct block, from
    `f"rank/{t}"`; beamform size N's incident, then departure coefficients
    from `f"beamform/{t}/{N}"`; multiuser every user's incident hops, then
    their departure hops, from `f"multiuser/{t}"`; and a stale-CSI trial
    comes from `per_trial_keyed_stale_draws`, evaluated one trial at a
    time by `per_trial_stale_rates`.
    """
    if experiment in ("coexist", "adjacent"):
        return _trial_keyed_stale_rows(experiment, scenario, seed, trials)

    def draw(t, shapes):
        key = f"{t}/{shapes[0][0]}" if experiment == "beamform" else t
        return rayleigh_trial_blocks(seed, f"{experiment}/{key}", shapes)

    return _frozen_rows(experiment, scenario, seed, trials, draw)


def _trial_keyed_stale_rows(experiment, scenario, seed, trials):
    from ris_sim.coexist import filter_budget_db
    from ris_sim.experiments import _coex_scenario, _trial_rows, resolve_scenario

    p = resolve_scenario(experiment, scenario)
    coex = _coex_scenario(p)
    scales = (1.0,)
    if experiment == "adjacent":
        budget_db = filter_budget_db(p["oob_attenuation_db"], p["insertion_loss_db"],
                                     p["filter_passes"])
        scales += (10.0 ** (budget_db / 20.0),)
    arms = np.empty((3, len(scales), trials))
    for t in range(trials):
        draws = per_trial_keyed_stale_draws(coex, t, seed)
        for a, scale in enumerate(scales):
            arms[:, a, t] = per_trial_stale_rates(coex, draws, scale)
    fresh, stale, loss = arms
    if experiment == "coexist":
        return _trial_rows([{"fresh_rate": fresh[0], "stale_rate": stale[0],
                             "loss_fraction": loss[0]}])
    return _trial_rows([{"rate_no_filter": stale[0], "rate_with_filter": stale[1],
                         "loss_no_filter": loss[0], "loss_with_filter": loss[1]}])


def _frozen_rows(experiment, scenario, seed, trials, draw):
    """Rows of a rank, beamform or multiuser run whose trial t's unit
    blocks of `shapes` are `draw(t, shapes)`.  Rank evaluates each trial
    on its own; beamform scores each size's trials, and multiuser all
    trials, as one stack."""
    from ris_sim.experiments import resolve_scenario

    p = resolve_scenario(experiment, scenario)
    build = {"rank": _frozen_rank, "beamform": _frozen_beamform,
             "multiuser": _frozen_multiuser}[experiment]
    return build(p, seed, trials, draw)


def _frozen_rank(p, seed, trials, draw):
    from ris_sim.experiments import _rank_scenario
    from ris_sim.numkernel import spectrum_rank, svd

    scn = _rank_scenario(p)
    u, m = scn.u_antennas, scn.m_antennas
    k = scn.ris_ue.rician_k
    amp = math.sqrt(scn.pl_ris_ue * scn.pl_nb_ris)
    fac = svd(scn.los_nb_ris)
    spread = (amp * math.sqrt(1.0 / (k + 1.0)) * fac.singular_values[:, None]
              * fac.right_vectors.conj().T)
    fixed = None
    if k > 0.0:
        fixed = (amp * (1.0 if math.isinf(k) else math.sqrt(k / (k + 1.0)))
                 * (scn.los_ris_ue @ scn.los_nb_ris))
    shapes = [None if math.isinf(k) else (u, len(spread)),
              None if scn.nb_ue is None else (u, m)]
    rows = []
    for t in range(trials):
        w, d = draw(t, shapes)
        if w is None:
            h = fixed
        else:
            h = w @ spread
            if fixed is not None:
                h += fixed
        if d is not None:
            h = h + math.sqrt(scn.pl_nb_ue) * d
        sv = np.linalg.svd(h, compute_uv=False)
        rows += [(t, "rank", spectrum_rank(sv)), (t, "sigma_1", float(sv[0])),
                 (t, "sigma_2", float(sv[1]) if sv.size > 1 else 0.0)]
    return rows


def _frozen_beamform(p, seed, trials, draw):
    from ris_sim.ris import align_miso, miso_gains, quantize_phases

    columns = []
    for n in p["n_list"]:
        # one stack per size, as the runner scores them: `miso_gains`
        # rounds by the layout of its operands
        g, h = (np.array(hop) for hop in zip(*(draw(t, [(n,), (n,)]) for t in range(trials))))
        phases = align_miso(g, h)
        gains = miso_gains(g, h, phases)
        columns.append((f"gain_n{n}", gains))
        for b in p["quantization_bits"]:
            quantized = miso_gains(g, h, quantize_phases(phases, b))
            columns.append((f"ratio_b{b}_n{n}",
                            [q / c if c > 0.0 else 0.0 for q, c in zip(quantized, gains)]))
    return [(t, metric, values[t]) for t in range(trials) for metric, values in columns]


def _frozen_multiuser(p, seed, trials, draw):
    from ris_sim.experiments import MULTIUSER_GRID_POINTS
    from ris_sim.scheduler import compare_shared_vs_ideal

    k, m, u, n = (p[f] for f in ("n_users", "m_antennas", "u_antennas", "n_elements"))
    g, h = (np.array(hop) for hop in zip(*(draw(t, [(k, n, m), (k, u, n)])
                                           for t in range(trials))))
    # the batched ascent keeps every trial's ascents bit for bit whatever
    # else is in the batch, so the trials are evaluated in one call
    results = compare_shared_vs_ideal(g, h, p["qos_weights"] or (1.0,) * k,
                                      p["power_per_user"], p["noise_power"],
                                      p["max_iters"], MULTIUSER_GRID_POINTS)
    return [(t, metric, getattr(cmp, metric)) for t, cmp in enumerate(results)
            for metric in ("shared_sum", "ideal_sum", "gap_fraction")]


# ---------------------------------------------------------------------------
# rank's full-draw route, frozen

def rank_spectra_full_draw(scenario, seed: int, trials: int) -> np.ndarray:
    """(trials, min(M, U)) singular values of the rank runner's channels as
    it made them before it drew only the departure hop's projection onto
    the incident hop: every trial draws its whole U x N departure block
    (and its direct block), the blocks go through an all-ones surface with
    `channel.assemble_stack`, and each channel takes its own SVD.  Each
    block is drawn by `block_keyed_draw` from its own (trial, link)
    stream, `default_rng(subseed(subseed(seed, f"trial/{t}"), label))`
    with the link's label "nb_ris", "ris_ue" or "nb_ue"."""
    from ris_sim.channel import assemble_stack
    from ris_sim.experiments import _rank_scenario, resolve_scenario
    from ris_sim.seeding import subseed

    scn = _rank_scenario(resolve_scenario("rank", scenario))
    bases = [subseed(seed, f"trial/{t}") for t in range(trials)]
    blocks = []
    for label, (params, los, shape) in zip(("nb_ris", "ris_ue", "nb_ue"), scn.links()):
        k = None if params is None else params.rician_k
        if k is None or math.isinf(k):
            blocks.append(None if k is None else np.broadcast_to(los, (trials,) + shape))
            continue
        stack = np.array([block_keyed_draw(base, label, shape, math.sqrt(1.0 / (k + 1.0)))
                          for base in bases])
        if k > 0.0:
            stack += math.sqrt(k / (k + 1.0)) * los
        blocks.append(stack)
    ones = np.ones((trials, scn.n_elements), dtype=np.complex128)
    h = assemble_stack(scn, *blocks, ones)
    return np.linalg.svd(h, compute_uv=False)
