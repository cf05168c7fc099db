"""Complex linear-algebra kernel shared by every other module.

Thin, validated layer over LAPACK: singular spectra, numerical rank and
water-filling power allocation.  All channel blocks are complex128
ndarrays, one matrix or a stack (..., r, c); `as_complex_stack` is the
single entry gate that enforces that contract.  The phase ascent's hot
loop makes one call per element step, `stack_capacity`: for 2x2 blocks
one fused closed form from the Gram spectrum to the two-mode water
level, for other shapes the LAPACK spectrum and then
`capacity_closed_form`, with the same bits either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: relative threshold under which a singular value does not count toward rank
DEFAULT_RANK_TOL = 1e-8

#: relative budget miss above which a water-filled row is recomputed
#: without cancellation (see `_waterfill_batch`)
_BUDGET_RTOL = 1e-12

#: 2^-1024, the largest mode gain whose inverse overflows a float: a mode
#: at or below it cannot be water-filled and is unusable, like a zero one
_UNUSABLE_GAIN = 1.0 / np.finfo(float).max


def as_complex_stack(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a complex128 matrix or stack (..., r, c).

    Raises ValueError for fewer than two axes, zero-sized axes, or
    non-finite entries.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim < 2:
        raise ValueError(f"{name} must be at least 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValueError(f"{name} has a zero dimension: shape={arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class SvdResult:
    """Full singular value decomposition a = U diag(s) V^H.

    `left_vectors` has orthonormal columns (U), `right_vectors` holds the
    right singular vectors as columns (V, not V^H), and `singular_values`
    is sorted in descending order.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray


def svd(a) -> SvdResult:
    """Thin SVD of a matrix, or of every matrix of a stack (..., r, c)."""
    arr = as_complex_stack(a)
    u, s, vh = np.linalg.svd(arr, full_matrices=False)
    return SvdResult(u, s, np.swapaxes(vh.conj(), -1, -2))


def singular_values(a) -> np.ndarray:
    """Descending singular values of a validated complex matrix, or of
    every matrix of a stack (..., r, c), shaped (..., min(r, c)).

    A stack's rows equal the calls on its matrices one by one, bit for
    bit: LAPACK decomposes each matrix of the stack on its own.
    """
    return np.linalg.svd(as_complex_stack(a), compute_uv=False)


def _two_by_two_spectrum(h: np.ndarray) -> np.ndarray:
    """Rows (sigma_1, sigma_2), one column per 2x2 block of `h` in C order.

    With the Gram matrix H^H H = [[p, q], [q*, r]], sigma_1^2 = (p + r)/2
    + sqrt(((p - r)/2)^2 + |q|^2), which equals ||H||_F^2/2 +
    sqrt(||H||_F^4/4 - |det H|^2) without its cancellation at equal
    singular values, and sigma_2 = |det H| / sigma_1 (0 for a zero block),
    capped at sigma_1 so that sigma_1 >= sigma_2 always.  Each block is
    first scaled by the power of two of its largest entry, which is exact,
    so entries far from unit scale neither overflow nor lose sigma_2 when
    squared.  Paired terms are computed as one two-row operation.
    """
    # rows a, b, c, d: the entries (0, 0), (0, 1), (1, 0), (1, 1) of every
    # block; a stack of entry planes is already such rows and is not copied
    z = np.ascontiguousarray(h.reshape(-1, 4).T)
    x = z.view(float)  # each block's real and imaginary parts side by side
    top = np.abs(x).max(axis=0)
    _, e = np.frexp(np.maximum(top[0::2], top[1::2]))
    x = np.ldexp(x, -np.repeat(e, 2))
    z = x.view(np.complex128)
    sq = x * x
    mag = sq[:, 0::2] + sq[:, 1::2]  # |a|^2, |b|^2, |c|^2, |d|^2
    p, r = mag[:2] + mag[2:]
    ab, cd = z[0::2].conj() * z[1::2]  # conj(a) b, conj(c) d
    q = (ab + cd).view(float)
    q *= q
    ad, bc = z[:2] * z[3:1:-1]  # a d, b c
    half = 0.5 * (p - r)
    s = np.empty((2, e.shape[0]))
    s1 = np.sqrt(0.5 * (p + r) + np.sqrt(half * half + (q[0::2] + q[1::2])), out=s[0])
    np.minimum(np.abs(ad - bc) / np.where(s1 > 0.0, s1, 1.0), s1, out=s[1])
    return np.ldexp(s, e, out=s)


def stack_capacity(h, total_power: float, noise_power: float) -> np.ndarray:
    """Water-filled capacity of every matrix of a stack (..., r, c).

    Equals `capacity_closed_form` of each matrix's singular values bit for
    bit, shaped like the stack's leading axes.  A stack of 2x2 blocks takes
    one fused closed form: its two ordered singular values go straight
    into the two-mode water level, with no spectrum array and one power
    check.  Other shapes take the LAPACK spectrum.  No validation of `h`:
    the ascent's hot loop calls this on channels it built itself.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.shape[-2:] != (2, 2):
        sv = np.linalg.svd(h, compute_uv=False)
        cap = capacity_closed_form(sv.reshape(-1, sv.shape[-1]), total_power, noise_power)
        return cap.reshape(h.shape[:-2])
    _check_powers(total_power, noise_power)
    gains = _two_by_two_spectrum(h)
    gains *= gains
    gains /= noise_power
    return _two_mode_capacity(gains, total_power).reshape(h.shape[:-2])


def numerical_rank(a, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above rel_tol * sigma_max.

    A zero matrix has rank 0.  `rel_tol` must lie strictly inside (0, 1).
    """
    return spectrum_rank(singular_values(a), rel_tol)


def spectrum_rank(svals, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """`numerical_rank` of a matrix whose descending singular values are
    `svals`, so a caller that already has the spectrum skips a second SVD."""
    if not (0.0 < rel_tol < 1.0):
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    s = np.asarray(svals, dtype=float)
    if s.ndim != 1:
        raise ValueError(f"svals must be one spectrum, got shape {s.shape}")
    smax = s[0]
    if smax == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * smax))


def _check_powers(total_power: float, noise_power: float) -> None:
    if not (total_power > 0.0 and np.isfinite(total_power)):
        raise ValueError(f"total_power must be positive, got {total_power}")
    if not (noise_power > 0.0 and np.isfinite(noise_power)):
        raise ValueError(f"noise_power must be positive, got {noise_power}")


def waterfill_powers(svals, total_power: float, noise_power: float) -> np.ndarray:
    """Water-filling allocation over the eigenmodes of one channel.

    Parameters
    ----------
    svals : array_like, shape (k,) or (..., k)
        Singular values of the channel matrix, or of each of a stack.
    total_power, noise_power : float
        Transmit power budget and per-antenna noise variance (linear).

    Returns
    -------
    ndarray, shape of `svals`
        Non-negative powers summing to total_power up to rounding, per
        channel.
    """
    s = np.atleast_1d(np.asarray(svals, dtype=float))
    p = _waterfill_batch(s.reshape(-1, s.shape[-1]), total_power, noise_power)
    return p.reshape(s.shape)


def _water_level(gains: np.ndarray, total_power: float):
    """Exact water level of each row of mode gains.

    With the gains sorted in descending order, the level for the m
    strongest modes is mu[m-1] = (P + sum of their inverse gains) / m, and
    a mode stays active while that level clears its inverse gain.  Returns
    the sorted gains, their positivity mask, the candidate levels mu and
    the active-mode count per row; a row's water level is
    mu[nact - 1], and a row with nact == 0 has no usable mode.  A mode is
    usable when its gain is above `_UNUSABLE_GAIN`, so that its inverse is
    finite.  The strongest usable mode always counts: its level P + 1/g
    exceeds 1/g, even where P is below the rounding step of 1/g and the
    test cannot see it.
    """
    g = np.sort(gains, axis=1)[:, ::-1]
    pos = g > _UNUSABLE_GAIN
    inv = np.where(pos, 1.0 / np.where(pos, g, 1.0), 0.0)
    csum = np.cumsum(inv, axis=1)
    m = np.arange(1, g.shape[1] + 1, dtype=float)
    mu = (total_power + csum) / m[None, :]
    nact = np.maximum((pos & (mu > inv)).sum(axis=1), pos[:, 0])
    return g, pos, mu, nact


def _waterfill_batch(svals: np.ndarray, total_power: float, noise_power: float) -> np.ndarray:
    """Water-filled powers, one row per channel, in the input mode order.

    An active mode gets level - 1/gain.  When every active mode lies far
    below the noise, the level dwarfs the budget and that difference
    cancels: the row misses the budget, down to giving a usable mode no
    power.  Rows off the budget by more than `_BUDGET_RTOL` take the
    cancellation-free form p_i = (P + sum_j (1/g_j - 1/g_i)) / m over
    their m active modes; every other row keeps the plain difference.  An
    unusable mode (see `_water_level`) gets no power.
    """
    _check_powers(total_power, noise_power)
    gains = svals.astype(float) ** 2 / noise_power
    active = gains > _UNUSABLE_GAIN
    inv = np.where(active, 1.0 / np.where(active, gains, 1.0), 0.0)
    _, _, mu, nact = _water_level(gains, total_power)
    usable = nact > 0
    level = np.zeros(gains.shape[0])
    level[usable] = mu[usable, nact[usable] - 1]
    p = np.maximum(level[:, None] - inv, 0.0) * active
    off = usable & (np.abs(p.sum(axis=1) - total_power) > _BUDGET_RTOL * total_power)
    if np.any(off):
        v = inv[off]
        on = active[off] & (v <= level[off, None])
        spread = np.where(on[:, None, :], v[:, None, :] - v[:, :, None], 0.0).sum(axis=2)
        share = np.maximum(total_power + spread, 0.0) / on.sum(axis=1)[:, None]
        p[off] = np.where(on, share, 0.0)
    return p


def capacity_closed_form(svals, total_power: float, noise_power: float):
    """Water-filled capacity straight from the exact sorted-mode water level.

    Skips the per-mode powers and sums log2(level * gain) over the active
    modes.  `stack_capacity` calls it on blocks other than 2x2, and
    `coexist.lbt_runs` on the networks' own links.  It shares its water
    level with `waterfill_powers`, and the test suite checks both against
    a grid-search oracle.  Accepts a single spectrum
    (k,) or a batch (b, k); returns a float or a length-b vector
    accordingly.  A spectrum without a usable mode (see `_water_level`)
    has capacity 0.  Far below the noise, nact log2(level) + sum log2(gain)
    cancels to the rounding of log2 values near +-1000, which may fall
    below zero; the capacity is clamped at +0.0.
    """
    _check_powers(total_power, noise_power)
    s = np.asarray(svals, dtype=float)
    single = s.ndim == 1
    s2 = s[None, :] if single else s
    gains, pos, mu, nact = _water_level(s2**2 / noise_power, total_power)
    cap = np.zeros(gains.shape[0])
    usable = nact > 0
    if np.any(usable):
        idx = nact[usable] - 1
        logsum = np.cumsum(np.log2(np.where(pos, gains, 1.0)), axis=1)[usable, idx]
        cap[usable] = np.maximum(nact[usable] * np.log2(mu[usable, idx]) + logsum, 0.0)
    return float(cap[0]) if single else cap


def _two_mode_capacity(gains: np.ndarray, total_power: float) -> np.ndarray:
    """Water-filled capacity of each column of sorted mode gains, rows
    g1 >= g2.

    The `_water_level` route written out for two sorted modes, with its
    levels and log sums in the same operation order, so every column is
    bit for bit what the sorted route gives; it skips the sort, the
    cumulative sums and the fancy indexing.  Both modes are active when
    each level clears its inverse gain; otherwise the stronger mode takes
    the whole budget when it is usable (see `_water_level`).  A level
    or log of a mode that is not used may come from a stand-in gain, but
    it is never selected.  The capacity is clamped at +0.0, as there.
    """
    pos = gains > _UNUSABLE_GAIN
    safe = np.where(pos, gains, 1.0)
    inv = 1.0 / safe
    log = np.log2(safe)
    mu = np.empty_like(inv)
    np.add(total_power, inv[0], out=mu[0])
    np.add(total_power, inv[0] + inv[1], out=mu[1])
    mu[1] /= 2.0
    clear = mu > inv
    log_mu = np.log2(mu)
    both = 2 * log_mu[1] + (log[0] + log[1])
    one = log_mu[0] + log[0]
    cap = np.where(clear[0] & clear[1] & pos[1], both, np.where(pos[0], one, 0.0))
    return np.maximum(cap, 0.0, out=cap)


def waterfill_precoder(h, total_power: float, noise_power: float) -> np.ndarray:
    """Right-singular-vector precoder with water-filled per-stream powers.

    Returns F of shape (cols(h), k); the Frobenius norm squared equals the
    allocated power (<= total_power).  A stack `h` of shape (..., r, c)
    gives one precoder per channel, (..., c, k), from one SVD and one
    water-filling call; each equals the precoder of that channel alone.
    """
    res = svd(h)
    p = waterfill_powers(res.singular_values, total_power, noise_power)
    return res.right_vectors * np.sqrt(p)[..., None, :]


def rate_with_precoder(h, f, noise_power: float):
    """log2 det(I + H F F^H H^H / noise): rate achieved by a fixed precoder.

    Stacks of channels and precoders broadcast against each other and give
    an array of rates from one determinant call; a single pair gives a
    float.
    """
    arr = as_complex_stack(h)
    fm = as_complex_stack(f, "precoder")
    if fm.shape[-2] != arr.shape[-1]:
        raise ValueError(
            f"precoder rows {fm.shape[-2]} must match channel cols {arr.shape[-1]}"
        )
    if not (noise_power > 0.0 and np.isfinite(noise_power)):
        raise ValueError(f"noise_power must be positive, got {noise_power}")
    hf = arr @ fm
    gram = (np.eye(arr.shape[-2], dtype=np.complex128)
            + hf @ np.swapaxes(hf.conj(), -1, -2) / noise_power)
    sign, logdet = np.linalg.slogdet(gram)
    rate = logdet / np.log(2.0)
    return float(rate) if rate.ndim == 0 else rate
