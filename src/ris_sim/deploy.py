"""Coverage-driven surface deployment on 2-D scenes.

Obstacles are axis-aligned rectangles that block line of sight entirely;
a panel fills a shadow only when it sees both a base station and the
shadowed point.  Heights are folded into the planar distances, which
keeps the link budget 2-D.

Blocked sight toward an endpoint q (a base station or a candidate site)
is built row by row of the raster.  For one obstacle, the cells of a row
whose segment to q crosses it form one x interval.  The segment runs in
the obstacle's y band between two heights, and the interval's ends are
the projections from q onto the row of the obstacle's x faces at those
heights: its corners, its faces themselves on rows inside the band, or
infinity when q is in the band (every row is blocked when q is inside
the obstacle).  A row whose segment stays out of the band, or only
touches it at a segment end, has no interval.  The
interval decides every cell farther than the margin (`_SIGHT_MARGIN`
times the scene's scale) from both of its ends.  The slab test
`_segment_blocked` decides the rest:

* cells within the margin of an interval end;
* whole rows within the margin of q's y, where the projection breaks
  down;
* every cell, for an obstacle with any of its four edge lines within
  the margin of q (a site on a wall or at a corner).

So every mask equals the slab test over every cell and obstacle, bit for
bit.  Station -> site hops take one slab test over all (site, station,
obstacle) triples.  A scene builds its masks once per path-loss exponent,
with its route table (see `Scene`): one toward each base station and one
toward each site that some station sees.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import ChannelParams, GeometryError

#: clamp for degenerate zero-length links on the grid
_MIN_LINK_DISTANCE = 1e-3

SERVING_NONE = 0
SERVING_DIRECT = 1
SERVING_RIS = 2


@dataclass(frozen=True, eq=False)
class BaseStation:
    position: np.ndarray
    tx_power_dbm: float

    def __post_init__(self):
        p = np.array(self.position, dtype=float).reshape(-1)[:2]
        if not np.all(np.isfinite(p)):
            raise GeometryError("base station position must be finite")
        p.setflags(write=False)
        object.__setattr__(self, "position", p)
        if not math.isfinite(self.tx_power_dbm):
            raise ValueError("tx_power_dbm must be finite")


@dataclass(frozen=True, eq=False)
class Scene:
    """Service area, blockers, stations and candidate panel sites.

    Positions are read-only copies, so what the coverage raster derives
    from them is built once per scene and path-loss exponent, on first
    use, and kept read-only in `_routes`: the direct-route layer, the
    blocked station -> site hops, and each site's best station budget and
    site-to-cell gain layer, -inf already on the cells the site cannot
    see.  A site that no station sees gets no layer and no sight mask.  A
    sight mask is built from per-row shadow intervals, and only the cells
    near an interval end or the endpoint's row, and those of an obstacle
    whose edge line passes near the endpoint, take the slab test (see the
    module docstring).
    """

    extent: tuple
    obstacles: tuple
    base_stations: tuple
    candidate_sites: tuple
    grid_resolution: float
    wavelength: float
    _routes: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        x0, y0, x1, y1 = (float(v) for v in self.extent)
        if not (x0 < x1 and y0 < y1):
            raise GeometryError(f"degenerate extent {self.extent}")
        object.__setattr__(self, "extent", (x0, y0, x1, y1))
        obs = []
        for r in self.obstacles:
            a, b, c, d = (float(v) for v in r)
            if not (a < c and b < d):
                raise GeometryError(f"degenerate obstacle {r}")
            if a < x0 or b < y0 or c > x1 or d > y1:
                raise GeometryError(f"obstacle {r} leaves the extent")
            obs.append((a, b, c, d))
        object.__setattr__(self, "obstacles", tuple(obs))
        object.__setattr__(self, "base_stations", tuple(self.base_stations))
        if not self.base_stations:
            raise GeometryError("scene needs at least one base station")
        sites = []
        for s in self.candidate_sites:
            p = np.array(s, dtype=float).reshape(-1)[:2]
            if not np.all(np.isfinite(p)):
                raise GeometryError("candidate site must be finite")
            self._check_inside(p)
            p.setflags(write=False)
            sites.append(p)
        for bs in self.base_stations:
            self._check_inside(bs.position)
        object.__setattr__(self, "candidate_sites", tuple(sites))
        if not (self.grid_resolution > 0.0 and math.isfinite(self.grid_resolution)):
            raise GeometryError(f"grid_resolution must be positive, got {self.grid_resolution}")
        if not (self.wavelength > 0.0 and math.isfinite(self.wavelength)):
            raise GeometryError(f"wavelength must be positive, got {self.wavelength}")

    def _check_inside(self, p) -> None:
        x0, y0, x1, y1 = self.extent
        if not (x0 <= p[0] <= x1 and y0 <= p[1] <= y1):
            raise GeometryError(f"point {tuple(p)} lies outside the extent")

    def sight_work(self) -> tuple:
        """(stations, sites, cells): the blocked-sight masks this scene's
        route tables have built toward base stations and toward candidate
        sites, and how many raster cells the slab test decided for them."""
        tables = self._routes.values()
        return (len(self.base_stations) * len(tables),
                sum(layer is not None for t in tables for layer in t.layers),
                sum(t.tested for t in tables))

    def grid_points(self):
        """Cell-center coordinates (xs, ys) of the coverage raster."""
        x0, y0, _, _ = self.extent
        res = self.grid_resolution
        nx, ny = raster_shape(self.extent, res)
        xs = x0 + (np.arange(nx) + 0.5) * res
        ys = y0 + (np.arange(ny) + 0.5) * res
        return xs, ys


# Largest raster whose float64 layers numpy can describe; a larger one is
# refused by numpy before any allocation is attempted.
MAX_RASTER_CELLS = np.iinfo(np.intp).max // np.dtype(float).itemsize


def raster_shape(extent, resolution) -> tuple:
    """(nx, ny) cell counts of the coverage raster; OverflowError if infinite."""
    x0, y0, x1, y1 = extent
    return tuple(max(1, int(math.floor(span / resolution + 1e-9)))
                 for span in (x1 - x0, y1 - y0))


def _segment_blocked(px, py, qx, qy, rect) -> np.ndarray:
    """Vectorised: does p->q cross the closed rectangle at some inner t?

    Touching the boundary mid-segment blocks (grazing counts); touching
    only at a segment endpoint does not, so a panel mounted on a wall
    still sees outward.  The endpoints and the four bounds of `rect`
    broadcast against the shape of `px`.
    """
    a, b, c, d = rect
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    t_lo = np.zeros_like(px)
    t_hi = np.ones_like(px)
    ok = np.ones(px.shape, dtype=bool)
    for p, q, lo, hi in ((px, qx, a, c), (py, qy, b, d)):
        dd = q - p
        degenerate = dd == 0.0
        ok &= ~degenerate | ((p >= lo) & (p <= hi))
        # a degenerate axis constrains nothing but the `inside` test above
        dd = np.where(degenerate, 1.0, dd)
        moving = ~degenerate
        ta = lo - p
        ta /= dd
        tb = hi - p
        tb /= dd
        np.maximum(t_lo, np.minimum(ta, tb), out=t_lo, where=moving)
        np.minimum(t_hi, np.maximum(ta, tb), out=t_hi, where=moving)
    ok &= t_lo <= t_hi
    # an inner parameter t in (0, 1) must hit the rectangle
    inner = (t_lo < t_hi) | ((t_lo > 0.0) & (t_lo < 1.0))
    return ok & (t_hi > 0.0) & (t_lo < 1.0) & inner


#: Margin of the shadow intervals, as a fraction of the scene scale S, the
#: largest of the extent's spans and coordinate magnitudes.  A cell decided
#: by an interval gets the slab test's answer because of this bound.  The
#: slab test's parameters t = (bound - p) / (q - p) carry a relative error
#: of at most 3u (u = 2**-53), and its answer follows only the order of
#: these parameters among themselves and against 0 and 1, so it can
#: differ from exact geometry only where two of them lie within that
#: error.  A parameter is 0 only on a face line, where differences of
#: floats keep their sign exactly; it is 1 only with q on an edge line,
#: which falls back.  Off the fallback rows and obstacles, a y parameter
#: is below 2S / m in size (the row is more than m from q's) and more
#: than m / 2S from 1 (q is more than m from the edge line), so its order
#: against 1 holds once m**2 > 12 u S**2.  An x parameter meets a y parameter
#: only where the segment passes a corner, at an interval end X; at a
#: cell x it differs from that y parameter by
#: |qx - a| |x - X| / (|qx - x| |qx - X|), with |qx - a| > m for the face
#: line a, so the order holds once |x - X| > 6u (2 |qx - x| |qx - X| / m
#: + |qx - x| + |qx - X|), below 30 u S**2 / m for an end inside the
#: extent.  The closed-form ends round to within 10 u S of the exact ones.
#: At m = 2**-20 S both bounds stay below 2**-28 S, under m / 200.
_SIGHT_MARGIN = 2.0 ** -20


def _sight_raster(scene: Scene, q) -> tuple:
    """(mask, cells slab-tested): the raster cells whose segment to q some
    obstacle blocks, equal to `_segment_blocked` over every cell and
    obstacle.  See the module docstring for the route."""
    xs, ys = scene.grid_points()
    nx, ny = xs.size, ys.size
    blocked = np.zeros((ny, nx), dtype=bool)
    if not scene.obstacles:
        return blocked, 0
    qx, qy = float(q[0]), float(q[1])
    m = _SIGHT_MARGIN * max(scene.extent[2] - scene.extent[0],
                            scene.extent[3] - scene.extent[1], *map(abs, scene.extent))
    # one row per obstacle, one column per raster row
    a, b, c, d = np.array(scene.obstacles)[:, :, None].transpose(1, 0, 2)
    # an obstacle with an edge line near q falls back whole
    at_q = np.array([[min(abs(qx - x0), abs(qx - x1), abs(qy - y0), abs(qy - y1)) <= m]
                     for x0, y0, x1, y1 in scene.obstacles])
    dy = np.abs(ys - qy)
    fallback = at_q | (dy <= m)
    # the heights where the segment enters and leaves the obstacle's band
    y_in = np.maximum(np.minimum(ys, qy), b)
    y_out = np.minimum(np.maximum(ys, qy), d)
    cross = (y_in < y_out) & ~fallback
    faces = np.array([a, c])
    # the low end projects face a, the high end face c, each from the
    # height that puts it farthest out
    near = (faces > qx) == np.array([True, False])[:, None, None]
    # rows and obstacles that fall back may divide by zero here
    with np.errstate(divide="ignore", invalid="ignore"):
        # projection scale from q onto the row, infinite from q's height
        r_in = dy / np.abs(y_in - qy)
        r_out = dy / np.abs(y_out - qy)
        r_near, r_far = np.minimum(r_in, r_out), np.maximum(r_in, r_out)
        ends = qx + (faces - qx) * np.where(near, r_near, r_far)
    # [[i1, i2], [i3, i4]]: the first cell at or past lo - m, lo + m,
    # hi - m and hi + m
    idx = np.searchsorted(xs, ends[:, None] + np.array([-m, m])[:, None, None])
    idx *= cross
    idx[1, 1][fallback] = nx
    (i1, i2), (i3, i4) = idx
    row0 = np.arange(ny) * (nx + 1)
    run = i3 > i2
    # cells [i2, i3) are blocked: mark each run on a raster padded by one
    # column and count the open runs along each row
    open_runs = np.zeros(ny * (nx + 1), dtype=np.intp)
    np.add.at(open_runs, (row0 + i2)[run], 1)
    np.subtract.at(open_runs, (row0 + i3)[run], 1)
    np.greater(np.cumsum(open_runs).reshape(ny, nx + 1)[:, :nx], 0, out=blocked)
    # cells [i1, i2) and [max(i2, i3), i4) take the slab test
    starts = np.concatenate((i1, np.maximum(i2, i3)))
    counts = (np.concatenate((i2, i4)) - starts).ravel()
    tested = int(counts.sum())
    if tested:
        keep = counts > 0
        first = (np.arange(ny) * nx + starts).ravel()[keep]
        counts = counts[keep]
        cells = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(tested)
        owner = np.tile(np.arange(len(scene.obstacles)).repeat(ny), 2)[keep].repeat(counts)
        rect = tuple(v[owner, 0] for v in (a, b, c, d))
        hit = _segment_blocked(xs[cells % nx], ys[cells // nx], qx, qy, rect)
        blocked.flat[cells[hit]] = True
    return blocked, tested


@dataclass(frozen=True, eq=False)
class CoverageMap:
    """Rasterised SNR with the serving-route label per cell."""

    xs: np.ndarray
    ys: np.ndarray
    snr_db: np.ndarray
    covered: np.ndarray
    serving: np.ndarray
    threshold_db: float

    @property
    def coverage_fraction(self) -> float:
        return float(self.covered.mean())


@dataclass(frozen=True, eq=False)
class DeploymentPlan:
    """Placed panels as (site_index, n_elements) pairs plus plan economics."""

    placed: tuple = ()
    cost: float = 0.0
    coverage_fraction: float = 0.0
    history: tuple = ()

    def __post_init__(self):
        sites = [s for s, _ in self.placed]
        if len(set(sites)) != len(sites):
            raise ValueError("panels placed on duplicate sites")


def _noise_dbm(params: ChannelParams) -> float:
    return 10.0 * math.log10(params.noise_power * 1e3)


def _panel_gain_db(n_elements: int, gain_scale: float) -> float:
    """Coherent N^2 power gain of a panel, scaled by gain_scale^2."""
    return 20.0 * math.log10(n_elements * gain_scale)


def _seg_gain_db(scene: Scene, params: ChannelParams, dist):
    d = np.maximum(dist, _MIN_LINK_DISTANCE)
    return 10.0 * params.path_loss_exponent * np.log10(
        scene.wavelength / (4.0 * math.pi * d))


def _distances(scene: Scene, p) -> np.ndarray:
    """Planar distance from point p to every raster cell center."""
    xs, ys = scene.grid_points()
    return np.hypot(xs[None, :] - p[0], ys[:, None] - p[1])


class _Routes(NamedTuple):
    """A scene's route table at one path-loss exponent; every array is
    read-only.  A site that no base station sees has no budget and no
    layer (None)."""

    #: received dBm from the strongest base station in sight of each cell,
    #: -inf where none is
    direct: np.ndarray
    #: (site, station) hops that an obstacle blocks
    hops: np.ndarray
    #: per site, the best tx_power_dbm plus hop gain over the stations it sees
    budgets: tuple
    #: per site, the site-to-cell gain, -inf on the cells the site cannot see
    layers: tuple
    #: raster cells the slab test decided for the sight masks built
    tested: int


def _routes(scene: Scene, params: ChannelParams) -> _Routes:
    """The route table of `scene` at the path-loss exponent of `params`,
    the one field it reads; built on first use and cached on the scene.

    One sight mask is built toward each base station and toward each site
    that some station sees, and the hops of every site take one slab test.
    """
    alpha = params.path_loss_exponent
    if alpha in scene._routes:
        return scene._routes[alpha]
    tested = 0

    def seen_gain_db(q):
        # segment gain from q to every cell, -inf where q is out of sight
        nonlocal tested
        blocked, cells = _sight_raster(scene, q)
        tested += cells
        layer = _seg_gain_db(scene, params, _distances(scene, q))
        layer[blocked] = -np.inf
        return layer

    direct = None
    for bs in scene.base_stations:
        dbm = bs.tx_power_dbm + seen_gain_db(bs.position)
        direct = dbm if direct is None else np.maximum(direct, dbm, out=direct)
    # (site, station, obstacle) triples, each segment from its station
    stations = np.array([bs.position for bs in scene.base_stations])
    sites = np.array(scene.candidate_sites).reshape(-1, 2)
    shape = (len(sites), len(stations), len(scene.obstacles))
    px, py = (np.broadcast_to(v[:, None], shape) for v in stations.T)
    qx, qy = (np.broadcast_to(v[:, None, None], shape) for v in sites.T)
    rect = np.array(scene.obstacles).reshape(-1, 4).T
    hops = _segment_blocked(px, py, qx, qy, rect).any(axis=2)
    budgets, layers = [], []
    for site, blocked in zip(scene.candidate_sites, hops):
        seen = [bs.tx_power_dbm
                + _seg_gain_db(scene, params, float(np.hypot(*(bs.position - site))))
                for bs, hop_blocked in zip(scene.base_stations, blocked) if not hop_blocked]
        budgets.append(max(seen) if seen else None)
        layers.append(seen_gain_db(site) if seen else None)
    for array in [direct, hops] + [layer for layer in layers if layer is not None]:
        array.setflags(write=False)
    scene._routes[alpha] = _Routes(direct, hops, tuple(budgets), tuple(layers), tested)
    return scene._routes[alpha]


def snr_map(
    scene: Scene,
    plan: DeploymentPlan,
    params: ChannelParams,
    threshold_db: float,
    gain_scale: float = 1.0,
) -> CoverageMap:
    """Best-route SNR raster for a deployment.

    Direct routes take the strongest base station with line of sight; a
    panel route needs sight on both hops and contributes the two-segment
    budget with the coherent N^2 panel gain (scaled by gain_scale^2).
    Blocked routes contribute nothing.  The raster is the cell-wise maximum
    of the direct-route layer and one route layer per placed panel, read
    from the scene's route table (see `Scene`): a panel's route layer is
    its site's best station budget plus the panel gain, added to the
    site's layer.  Rounding is monotone, so that is the cell-wise best
    over the stations the site sees.  Repeated rasters of one scene, such
    as a breathing sweep, only combine cached layers.
    """
    if not (gain_scale >= 0.0 and math.isfinite(gain_scale)):
        raise ValueError(f"gain_scale must be non-negative, got {gain_scale}")
    xs, ys = scene.grid_points()
    routes = _routes(scene, params)
    direct_dbm = routes.direct
    ris_dbm = np.full(direct_dbm.shape, -np.inf)
    placed = plan.placed if gain_scale > 0.0 else ()
    for site_idx, n_elements in placed:
        layer = routes.layers[site_idx]
        if layer is not None:
            budget = routes.budgets[site_idx] + _panel_gain_db(n_elements, gain_scale)
            np.maximum(ris_dbm, budget + layer, out=ris_dbm)

    best_dbm = np.maximum(direct_dbm, ris_dbm)
    snr = best_dbm - _noise_dbm(params)
    serving = np.full(snr.shape, SERVING_NONE, dtype=np.int8)
    serving[direct_dbm > -np.inf] = SERVING_DIRECT
    serving[ris_dbm > direct_dbm] = SERVING_RIS
    covered = snr >= threshold_db
    return CoverageMap(
        xs=xs, ys=ys, snr_db=snr, covered=covered, serving=serving,
        threshold_db=float(threshold_db),
    )


def greedy_place(
    scene: Scene,
    n_elements: int,
    params: ChannelParams,
    cost_per_panel: float,
    budget: float,
    threshold_db: float,
    target_fraction: float,
) -> DeploymentPlan:
    """Iterative placement: always take the site covering the most cells.

    Every placed panel has `n_elements` elements.

    Stops at the coverage target, at budget exhaustion, or as soon as no
    remaining site strictly adds coverage.  Site ties resolve to the
    lowest index.

    Incremental on coverage masks: each site's route layer becomes a
    covered-cell mask, all in one pass over the scene's route table, and a
    site is then scored by the cells it covers that the placed panels do
    not.  A site that no station sees covers nothing and is never taken.
    Taking the cell-wise maximum of route layers covers exactly the union
    of their masks, since subtracting the noise and comparing are
    monotone, and a fraction is its integer count over the cell count; so
    every coverage fraction equals that of `snr_map` on the same plan.
    """
    if not (isinstance(n_elements, numbers.Integral) and n_elements >= 1):
        raise ValueError(f"n_elements must be a positive integer, got {n_elements!r}")
    if not (cost_per_panel > 0.0 and math.isfinite(cost_per_panel)):
        raise ValueError(f"cost_per_panel must be positive, got {cost_per_panel}")
    if budget < 0.0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if not (0.0 < target_fraction <= 1.0):
        raise ValueError(f"target_fraction must be in (0, 1], got {target_fraction}")
    noise_dbm = _noise_dbm(params)
    panel_gain_db = _panel_gain_db(n_elements, 1.0)
    routes = _routes(scene, params)
    masks = {idx: ((budget_db + panel_gain_db) + layer - noise_dbm) >= threshold_db
             for idx, (budget_db, layer) in enumerate(zip(routes.budgets, routes.layers))
             if layer is not None}
    uncovered = (routes.direct - noise_dbm) < threshold_db
    n = uncovered.size
    count = n - int(np.count_nonzero(uncovered))
    cov = count / n
    placed: list = []
    history = [(-1, cov)]
    spent = 0.0
    free = list(masks)
    while spent + cost_per_panel <= budget and cov < target_fraction and free:
        best_site = -1
        best_gain = 0
        for idx in free:
            gain = int(np.count_nonzero(masks[idx] & uncovered))
            if gain > best_gain:
                best_gain = gain
                best_site = idx
        if best_site < 0:
            break
        placed.append((best_site, n_elements))
        free.remove(best_site)
        spent += cost_per_panel
        count += best_gain
        cov = count / n
        uncovered &= ~masks[best_site]
        history.append((best_site, cov))
    return DeploymentPlan(
        placed=tuple(placed),
        cost=spent,
        coverage_fraction=cov,
        history=tuple(history),
    )
