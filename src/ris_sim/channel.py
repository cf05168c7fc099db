"""Channel synthesis: geometry, LoS/Rician blocks, path loss, assembly.

The effective downlink channel through a reflective surface is

    H_T = sqrt(pl_ris_ue * pl_nb_ris) * H_ris_ue @ (beta * Theta) @ G_nb_ris
          + sqrt(pl_nb_ue) * H_nb_ue

with the direct term dropped when the base-station/user link is blocked.
`link_layout` is the one table of these links, which `Scenario` builds
and the config validator checks.  A link's `ChannelParams` give its
Rician factor, path-loss exponent and wavefront; the noise belongs to the
receiver that reads it, not to the link.  All blocks are complex128
ndarrays: `gen_los` builds the fixed LoS blocks, and `draw_links`, every
runner's one draw, the Rician blocks of trials and the uniforms of their
random surface states, as rows of a run's generators; `surface_states`
turns those uniforms into states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .seeding import complex_from_parts


class GeometryError(ValueError):
    """Raised for inconsistent node placement or element counts."""


_WAVEFRONTS = ("auto", "planar", "spherical")


@dataclass(frozen=True, eq=False)
class Geometry:
    """Node positions; every array is a line along z at half-wavelength
    element spacing, centred on its node.

    Parameters
    ----------
    wavelength : float
        Carrier wavelength in metres.
    positions : dict
        Node id -> 3-vector position (metres).
    """

    wavelength: float
    positions: dict

    def __post_init__(self):
        if not (self.wavelength > 0.0 and math.isfinite(self.wavelength)):
            raise GeometryError(f"wavelength must be positive, got {self.wavelength}")
        pos = {}
        for node, p in self.positions.items():
            arr = np.asarray(p, dtype=float).reshape(3)
            if not np.all(np.isfinite(arr)):
                raise GeometryError(f"position of {node!r} is not finite")
            arr.setflags(write=False)
            pos[node] = arr
        object.__setattr__(self, "positions", pos)

    def position(self, node: str) -> np.ndarray:
        try:
            return self.positions[node]
        except KeyError:
            raise GeometryError(f"unknown node {node!r}") from None

    def distance(self, a: str, b: str) -> float:
        d = float(np.linalg.norm(self.position(a) - self.position(b)))
        if d <= 0.0:
            raise GeometryError(f"nodes {a!r} and {b!r} coincide")
        return d

    def element_positions(self, node: str, count: int) -> np.ndarray:
        """(count, 3) element coordinates of the array at `node`."""
        if count < 1:
            raise GeometryError(f"element count at {node!r} must be >= 1, got {count}")
        offs = np.zeros((count, 3))
        offs[:, 2] = (np.arange(count) - (count - 1) / 2.0) * (0.5 * self.wavelength)
        return self.position(node) + offs

    def aperture(self, count: int) -> float:
        """Physical length of an array of `count` elements."""
        return (count - 1) * (0.5 * self.wavelength)


@dataclass(frozen=True)
class ChannelParams:
    """Statistical description of one propagation link: its Rician factor,
    path-loss exponent and wavefront model."""

    rician_k: float = 0.0
    path_loss_exponent: float = 2.0
    wavefront_model: str = "auto"

    def __post_init__(self):
        if self.rician_k < 0.0 or math.isnan(self.rician_k):
            raise ValueError(f"rician_k must be >= 0, got {self.rician_k}")
        if self.path_loss_exponent < 2.0:
            raise ValueError(
                f"path_loss_exponent must be >= 2, got {self.path_loss_exponent}"
            )
        if self.wavefront_model not in _WAVEFRONTS:
            raise ValueError(f"unknown wavefront_model {self.wavefront_model!r}")


def fraunhofer_distance(geometry: Geometry, rows: int, cols: int) -> float:
    """Far-field boundary 2 D^2 / lambda for the larger of the two arrays."""
    ap = geometry.aperture(max(rows, cols))
    return 2.0 * ap * ap / geometry.wavelength


def resolve_wavefront(
    geometry: Geometry, frm: str, to: str, rows: int, cols: int, model: str
) -> str:
    """Map the "auto" wavefront setting to planar/spherical per geometry.

    Links shorter than the Fraunhofer distance keep the exact spherical
    phase; far-field links use the planar approximation.
    """
    if model != "auto":
        return model
    d = geometry.distance(frm, to)
    return "spherical" if d < fraunhofer_distance(geometry, rows, cols) else "planar"


def element_distances(geometry: Geometry, frm: str, to: str, rows: int,
                      cols: int) -> np.ndarray:
    """(rows, cols) distances from transmit element c at `frm` to receive
    element r at `to`: the path lengths of the spherical LoS block.

    Each axis takes one (rows, cols) plane, and the squares are summed in
    the order `np.linalg.norm(rx[:, None] - tx[None], axis=2)` sums them,
    so the distances equal it bit for bit without its (rows, cols, 3)
    temporaries.
    """
    tx = geometry.element_positions(frm, cols)
    rx = geometry.element_positions(to, rows)
    dx, dy, dz = (np.subtract.outer(rx[:, k], tx[:, k]) for k in range(3))
    return np.sqrt((dx * dx + dy * dy) + dz * dz)


def gen_los(
    geometry: Geometry, frm: str, to: str, rows: int, cols: int, wavefront: str = "planar"
) -> np.ndarray:
    """Deterministic LoS block between two arrays.

    Entry (r, c) is exp(-j 2 pi d_rc / lambda) for the path from transmit
    element c at `frm` to receive element r at `to`.  The spherical model
    uses exact element-to-element distances; the planar model applies the
    plane-wave phase approximation and is therefore an outer product of
    two steering vectors (numerical rank 1).
    """
    if wavefront not in ("planar", "spherical"):
        raise GeometryError(f"unknown wavefront {wavefront!r}")
    lam = geometry.wavelength
    if wavefront == "spherical":
        d = element_distances(geometry, frm, to, rows, cols)
        if np.any(d <= 0.0):
            raise GeometryError(f"coincident element positions between {frm!r} and {to!r}")
        return np.exp(-2j * np.pi * d / lam)
    tx = geometry.element_positions(frm, cols)
    rx = geometry.element_positions(to, rows)
    d0 = geometry.distance(frm, to)
    u = (geometry.position(to) - geometry.position(frm)) / d0
    ctx = geometry.position(frm)
    crx = geometry.position(to)
    # plane-wave path length: d0 + u.(rx offset) - u.(tx offset)
    d_rx = (rx - crx) @ u
    d_tx = (tx - ctx) @ u
    a = np.exp(-2j * np.pi * d_rx / lam)
    b = np.exp(2j * np.pi * d_tx / lam)
    return np.exp(-2j * np.pi * d0 / lam) * np.outer(a, b)


def path_gain(wavelength: float, distance: float, exponent: float) -> float:
    """Power path gain (lambda / 4 pi d)^alpha of a single segment."""
    if distance <= 0.0:
        raise GeometryError(f"path distance must be positive, got {distance}")
    return float((wavelength / (4.0 * math.pi * distance)) ** exponent)


def assemble_stack(scenario: Scenario, g, h, direct, theta,
                   beta_gain: float = 1.0) -> np.ndarray:
    """Effective channels of a stack of trials drawn from one scenario.

    `g` (B, N, M), `h` (B, U, N) and `direct` (B, U, M), or None when the
    scenario has no direct link, stack the blocks of B realizations of
    `scenario`, which supplies the element count `n_elements` and the path
    gains `pl_*`.  `theta` (B, N) holds one reflection diagonal per trial;
    every |theta_n| must be at most 1.  Returns (B, U, M): trial b's entry
    is sqrt(pl_ris_ue pl_nb_ris) beta_gain h[b] diag(theta[b]) g[b] plus
    sqrt(pl_nb_ue) direct[b], the reflected term scaled before the product.
    """
    diag = np.asarray(theta, dtype=np.complex128)
    if diag.ndim != 2:
        raise ValueError(f"theta must be (trials, elements), got shape {diag.shape}")
    if diag.shape[-1] != scenario.n_elements:
        raise ValueError(f"surface has {diag.shape[-1]} elements, "
                         f"channel expects {scenario.n_elements}")
    if np.any(np.abs(diag) > 1.0 + 1e-12):
        raise ValueError("reflection coefficients must have magnitude <= 1")
    if beta_gain < 0.0:
        raise ValueError(f"beta_gain must be >= 0, got {beta_gain}")
    amp = math.sqrt(scenario.pl_ris_ue * scenario.pl_nb_ris) * beta_gain
    # diag[..., None, :] has the ndim of h: numpy picks its elementwise loop
    # by operand layout, and only equal layouts round alike in every case
    h_d = h * diag[..., None, :]
    h_d *= amp
    h_t = h_d @ g
    if direct is not None:
        h_t += math.sqrt(scenario.pl_nb_ue) * direct
    return h_t


def link_layout(nb, ris, ue, m, n, u):
    """(name, from node, to node, block shape) of the links nb_ris, ris_ue
    and nb_ue of `m` base-station antennas, `n` surface elements and `u`
    user antennas; the counts may be numbers or count field names."""
    return (("nb_ris", nb, ris, (n, m)), ("ris_ue", ris, ue, (u, n)),
            ("nb_ue", nb, ue, (u, m)))


def _fixed_link(geom: Geometry, frm: str, to: str, rows: int, cols: int,
                params: ChannelParams):
    """Read-only LoS block and path gain of one link; neither depends on a
    trial.  A link of Rician factor 0 gives its LoS block no weight, so it
    builds none: its block is None."""
    los = None
    if params.rician_k > 0.0:
        wf = resolve_wavefront(geom, frm, to, rows, cols, params.wavefront_model)
        los = gen_los(geom, frm, to, rows, cols, wf)
        los.setflags(write=False)
    gain = path_gain(geom.wavelength, geom.distance(frm, to), params.path_loss_exponent)
    return los, gain


@dataclass(frozen=True, eq=False)
class Scenario:
    """Geometry, per-link statistics and dimensioning for one simulated cell.

    The LoS block and path gain of each link do not depend on the trial;
    they are built once, in `link_layout` order, and kept read-only in
    `los_nb_ris`, `los_ris_ue`, `los_nb_ue` (None without a direct link,
    and for a link of Rician factor 0, which gives the block no weight)
    and `pl_nb_ris`, `pl_ris_ue`, `pl_nb_ue` (0.0 without a direct link).
    A constructed scenario is never mutated, so every trial of a run reads
    the same blocks.
    """

    geometry: Geometry
    m_antennas: int
    n_elements: int
    u_antennas: int
    nb_ris: ChannelParams
    ris_ue: ChannelParams
    nb_ue: ChannelParams | None = None
    nb: str = "nb"
    ris: str = "ris"
    ue: str = "ue"
    los_nb_ris: np.ndarray = field(init=False, repr=False)
    los_ris_ue: np.ndarray = field(init=False, repr=False)
    los_nb_ue: np.ndarray | None = field(init=False, repr=False)
    pl_nb_ris: float = field(init=False, repr=False)
    pl_ris_ue: float = field(init=False, repr=False)
    pl_nb_ue: float = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("m_antennas", "n_elements", "u_antennas"):
            v = getattr(self, name)
            if v < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")
        for name, frm, to, shape in self._layout():
            params = getattr(self, name)
            los, gain = (None, 0.0) if params is None else _fixed_link(
                self.geometry, frm, to, *shape, params)
            object.__setattr__(self, f"los_{name}", los)
            object.__setattr__(self, f"pl_{name}", gain)

    def _layout(self):
        return link_layout(self.nb, self.ris, self.ue, self.m_antennas, self.n_elements,
                           self.u_antennas)

    def links(self):
        """(params, LoS block, block shape) of nb_ris, ris_ue and nb_ue, as
        `draw_links` takes them; params and block None for a missing
        direct link."""
        return tuple((getattr(self, name), getattr(self, f"los_{name}"), shape)
                     for name, _, _, shape in self._layout())


def draw_links(links, count: int, normal_rng, uniform_rng=None, uniforms: int = 0):
    """Rician blocks of `count` trials, drawn as the next `count` rows of a
    run's generators: the one draw of every runner.

    `links` holds a (params, LoS block, shape) triple per link, params None
    for a missing link and the LoS block None at K = 0.  One
    `standard_normal` call on `normal_rng` fills a (count, S) array trial
    by trial: each row holds the real, then the imaginary parts of every
    scattered block of one trial, in link order.  One `random` call on
    `uniform_rng` then fills a (count, uniforms) array; `uniform_rng` is
    needed only when `uniforms` > 0.  Both generators keep their state, so
    consecutive calls draw consecutive trials, and chunks of any sizes
    draw what one call draws.  A scattered part is iid CN(0, 1), scaled
    straight into its stack at its weight sqrt(1/(K+1)); the LoS part
    sqrt(K/(K+1)) los is formed once per call and added in place at
    K > 0.  A link at infinite K draws nothing: its stack is the
    read-only `los` broadcast along it.

    Returns the stacks, (count,) + shape each and None for a missing
    link, and the (count, uniforms) uniform draws.
    """
    sizes = [math.prod(shape) for params, _, shape in links
             if params is not None and not math.isinf(params.rician_k)]
    normals = normal_rng.standard_normal(out=np.empty((count, 2 * sum(sizes))))
    drawn = np.empty((count, uniforms))
    if uniforms:
        uniform_rng.random(out=drawn)
    stacks, offset = [], 0
    for params, los, shape in links:
        if params is None:
            stacks.append(None)
            continue
        k = params.rician_k
        if math.isinf(k):
            stacks.append(np.broadcast_to(los, (count,) + shape))
            continue
        size = 2 * math.prod(shape)
        parts = normals[:, offset:offset + size].reshape((count, 2) + shape)
        offset += size
        stack = complex_from_parts(parts, np.empty((count,) + shape, dtype=np.complex128),
                                   math.sqrt(1.0 / (k + 1.0)))
        if k > 0.0:
            stack += math.sqrt(k / (k + 1.0)) * los
        stacks.append(stack)
    return stacks, drawn


def surface_states(uniforms) -> np.ndarray:
    """The unit-modulus surface states exp(2 pi j u) of an array of
    uniforms u in [0, 1), new and complex128; phases iid U(0, 2 pi)."""
    theta = np.zeros(uniforms.shape, dtype=np.complex128)
    np.multiply(uniforms, 2.0 * math.pi, out=theta.imag)
    return np.exp(theta, out=theta)
