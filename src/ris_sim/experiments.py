"""Named experiments: one validated run from a scenario to a table.

Each experiment is one `Experiment` record in `EXPERIMENTS`: its help
line, cross-field check, builder and scenario fields, declared at the end
of its question's section, after the check and builder.  `prepare` is
the one validator: it checks the experiment name, the seed, the trial
count and the output path, and resolves the scenario once against the
record.  `run` hands the resolved scenario to the record's builder, which
validates nothing and returns per-trial metric columns, and forms the
long-format rows, one per trial per metric, into a `ResultTable` with its
provenance.  All randomness is keyed on (seed, label): every builder
seeds a fixed number of generators per run, whatever the trial count,
and trial t's draws are row t of each, so a table is a pure function of
(scenario, seed, trials), and a run of n trials is the first n trials of
any longer run.  Every run works in one thread.

Only the config-to-table core (`channel`, `numkernel`, `seeding`) is
imported at module level; each builder and cross-field check imports its
own question's module where it is used.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import logging
import math
import os
import reprlib
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .channel import (
    ChannelParams,
    Geometry,
    Scenario,
    draw_links,
    element_distances,
    link_layout,
    path_gain,
    resolve_wavefront,
)
from .numkernel import singular_values, spectrum_rank, svd
from .seeding import rng_from

log = logging.getLogger(__name__)

#: the statistics of an iid CN(0, 1) block to `draw_links`: Rician factor 0
_RAYLEIGH = ChannelParams()

_COLUMNS = (("trial", ""), ("metric", ""), ("value", "per metric"))


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Long-format experiment output plus provenance metadata.

    Every table has the columns `_COLUMNS`: trial, metric and value.

    Parameters
    ----------
    rows : tuple
        (trial, metric, value) row tuples.  Values are plain Python ints,
        floats, or strings.
    metadata : dict
        Provenance record: experiment name, seed, tool version, and the
        sha256 digest of the resolved configuration.
    """

    rows: tuple
    metadata: dict

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(_COLUMNS):
                raise ValueError(
                    f"row {row!r} has {len(row)} cells, table has {len(_COLUMNS)} columns"
                )
        # exact types: numpy scalars such as np.float64 subclass float and
        # must still be collapsed
        if _PLAIN_TYPES.issuperset(map(type, itertools.chain.from_iterable(self.rows))):
            rows = tuple(map(tuple, self.rows))
        else:
            rows = tuple(tuple(_plain(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)

    def to_csv(self) -> str:
        """Comma-separated text, \\n endings, 17 significant digits; the
        writer turns int and bool cells into text with `str`."""
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow([name for name, _ in _COLUMNS])
        w.writerows([format(v, ".17g") if type(v) is float else v for v in row]
                    for row in self.rows)
        return buf.getvalue()

    def to_json(self) -> str:
        """`json.dumps(doc, sort_keys=True, indent=2)` of columns, rows and
        metadata, plus a newline.

        `indent` selects `json`'s pure-Python encoder, so the rows, nearly
        all of the text, go through its C encoder instead, with NUL as the
        item separator: NUL can only be a separator there, since the
        encoder escapes it inside strings.  Laying out the separators
        gives the indented text, which is spliced in as the last key.
        """
        doc = {
            "columns": [{"name": n, "unit": u} for n, u in _COLUMNS],
            "rows": [],
            "metadata": self.metadata,
        }
        text = json.dumps(doc, sort_keys=True, indent=2)
        if not self.rows:
            return text + "\n"
        # "rows" sorts last, so the text ends with its empty list
        head = text[:-len("[]\n}")]
        flat = json.dumps(self.rows, separators=("\0", ":"))
        cells = (flat[2:-2].replace("]\0[", "\n    ],\n    [\n      ")
                 .replace("\0", ",\n      "))
        return head + "[\n    [\n      " + cells + "\n    ]\n  ]\n}\n"


#: cell types a table keeps as they are
_PLAIN_TYPES = frozenset((int, float, str, bool))


def _plain(v):
    """Collapse numpy scalars so rows serialize identically everywhere."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, str):
        return v
    raise TypeError(f"unsupported cell type {type(v).__name__}")


def config_digest(mapping) -> str:
    """sha256 over the canonical JSON form of a configuration mapping."""
    text = json.dumps(mapping, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_outputs(table: ResultTable, out_path: str):
    """Write the CSV, its JSON mirror, and the metadata sidecar.

    For `results.csv` the mirror lands in `results.json` and the sidecar
    in `results.meta.json`; other extensions keep the full name as stem.
    Returns the three paths.

    Each target is unlinked and then created afresh rather than truncated,
    because truncating a large file in place can cost tens of milliseconds
    on some filesystems.  So a hard link to an old file, or a reader that
    holds it open, keeps the old bytes; a symlink is replaced by a regular
    file instead of being written through; and the new file takes the
    default mode, not the old file's.
    """
    root = out_path[:-4] if out_path.endswith(".csv") else out_path
    paths = (out_path, root + ".json", root + ".meta.json")
    meta = json.dumps(table.metadata, sort_keys=True, indent=2) + "\n"
    for path, text in zip(paths, (table.to_csv(), table.to_json(), meta)):
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        with open(path, "wb") as f:
            f.write(text.encode("utf-8"))
    return paths


def _trial_rows(blocks) -> list:
    """(trial, metric, value) rows of `{metric: column}` blocks, block by
    block, in trial order, then metric order.  Array columns go through
    `tolist`, so ints stay ints; unequal column lengths raise ValueError."""
    rows = []
    for block in blocks:
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in block.values()]
        lengths = [len(c) for c in columns]
        if len(set(lengths)) > 1:
            raise ValueError(f"columns of unequal length: {dict(zip(block, lengths))}")
        rows += [(t, metric, v) for t, cells in enumerate(zip(*columns))
                 for metric, v in zip(block, cells)]
    return rows


# ---------------------------------------------------------------------------
# scenario fields: the checks every experiment's fields share


class ConfigError(ValueError):
    """Config rejection carrying the dotted path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


_REQUIRED = object()


def _number(v, path, minimum=None, maximum=None, allow_inf=False):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"expected a number, got {reprlib.repr(v)}")
    try:
        x = float(v)
    except OverflowError:
        raise ConfigError(path, "too large for a float") from None
    if math.isnan(x):
        raise ConfigError(path, "must not be NaN")
    if not allow_inf and math.isinf(x):
        raise ConfigError(path, "must be finite")
    if minimum is not None and x < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {v}")
    if maximum is not None and x > maximum:
        raise ConfigError(path, f"must be <= {maximum}, got {v}")
    return x


def _real(minimum=None, allow_inf=False):
    return lambda v, path: _number(v, path, minimum, allow_inf=allow_inf)


def _positive(v, path, maximum=None):
    x = _number(v, path, maximum=maximum)
    if not x > 0.0:
        raise ConfigError(path, f"must be a positive number, got {v}")
    return x


def _integer(v, path, minimum, maximum=None):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(path, f"expected an integer, got {reprlib.repr(v)}")
    if v < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(path, f"must be <= {maximum}, got {v}")
    return v


def _int_ge(minimum, maximum=None):
    return lambda v, path: _integer(v, path, minimum, maximum)


def _boolean(v, path):
    if not isinstance(v, bool):
        raise ConfigError(path, f"expected true or false, got {reprlib.repr(v)}")
    return v


def _choice(*options):
    def check(v, path):
        if v not in options:
            raise ConfigError(path, f"must be one of {options}, got {reprlib.repr(v)}")
        return v
    return check


def _vec(k):
    def check(v, path):
        if not isinstance(v, (list, tuple)) or len(v) != k:
            raise ConfigError(path, f"expected a list of {k} numbers, got {reprlib.repr(v)}")
        return tuple(_number(x, f"{path}[{i}]") for i, x in enumerate(v))
    return check


def _list_of(item, nonempty=False):
    def check(v, path):
        if not isinstance(v, (list, tuple)):
            raise ConfigError(path, f"expected a list, got {reprlib.repr(v)}")
        if nonempty and not v:
            raise ConfigError(path, "must not be empty")
        return tuple(item(x, f"{path}[{i}]") for i, x in enumerate(v))
    return check


def _rect(v, path):
    x0, y0, x1, y1 = _vec(4)(v, path)
    if not (x0 < x1 and y0 < y1):
        raise ConfigError(path, f"needs x0 < x1 and y0 < y1, got {reprlib.repr(v)}")
    return (x0, y0, x1, y1)


_STATION_FIELDS = ("position", "tx_power_dbm")


def _station(st, path):
    if not isinstance(st, dict):
        raise ConfigError(path, f"expected a mapping, got {reprlib.repr(st)}")
    for key in st:
        if key not in _STATION_FIELDS:
            raise ConfigError(f"{path}.{key}",
                              f"unknown field; allowed fields are {_STATION_FIELDS}")
    if "position" not in st or "tx_power_dbm" not in st:
        raise ConfigError(path, "needs position and tx_power_dbm")
    return {
        "position": _vec(2)(st["position"], f"{path}.position"),
        "tx_power_dbm": _number(st["tx_power_dbm"], f"{path}.tx_power_dbm"),
    }


#: entries of the largest array a run builds from count fields: under it a
#: complex128 block, and an array's (count, 3) element coordinates, stay
#: inside the byte count numpy can index
MAX_BLOCK_ENTRIES = np.iinfo(np.intp).max // 32


def _geometry(p, nodes) -> Geometry:
    """The geometry of `nodes`, each placed at its `{node}_position` field."""
    return Geometry(p["wavelength"], {node: p[f"{node}_position"] for node in nodes})


def _distance(p, a, b) -> float:
    """The distance between two position fields, as `Geometry.distance`
    forms it; one that overflows is rejected at the farther-out field."""
    with np.errstate(over="ignore"):
        d = float(np.linalg.norm(np.subtract(p[a], p[b])))
    if not math.isfinite(d):
        far, near = sorted((a, b), key=lambda f: max(map(abs, p[f])), reverse=True)
        raise ConfigError(f"scenario.{far}",
                          f"lies too far from scenario.{near} for a finite distance")
    if not d > 0.0:
        raise ConfigError(f"scenario.{b}", f"coincides with scenario.{a}")
    return d


def _check_routes(p, routes, phased=True) -> list:
    """Every (scale fields, hops) route needs a finite power gain, and with
    `phased` every hop a finite LoS phase 2 pi d / lambda.

    A hop is (from field, to field, path-loss exponent); the gain is the
    product of the hop path gains times the scale, the product of the
    scale fields' values (1 for none), and the phase that of the hop's LoS
    block, as the runner forms them.  A gain that overflows in its hops is
    rejected at the wavelength.  One whose hop product is finite but
    overflows once scaled is rejected at the larger factor: at the first
    scale field when the scale exceeds the hop product, else at the
    wavelength.  Returns each route's (name, gain).
    """
    lam = p["wavelength"]
    gains = []
    for fields, hops in routes:
        route = " -> ".join([hops[0][0]] + [b for _, b, _ in hops])
        for a, b, _ in hops:
            if phased and not math.isfinite(2.0 * math.pi * _distance(p, a, b) / lam):
                raise ConfigError("scenario.wavelength",
                                  f"{lam} m overflows the phase from {a} to {b}")
        try:
            gain = math.prod(path_gain(lam, _distance(p, a, b), alpha) for a, b, alpha in hops)
        except OverflowError:
            gain = math.inf
        scale = math.prod(p[f] for f in fields)
        if not math.isfinite(scale * gain):
            if scale > gain:
                raise ConfigError(f"scenario.{fields[0]}",
                                  f"{' x '.join(str(p[f]) for f in fields)} times the gain "
                                  f"{gain:.3g} along {route} overflows")
            raise ConfigError("scenario.wavelength", f"{lam} m overflows the gain along {route}")
        gains.append((route, scale * gain))
    return gains


#: Ceiling on a route's power gain over the noise, on the transmit power
#: times that, and on the transmit power times the gain itself, the power
#: received before the division by the noise.  A rate multiplies these by
#: the array gain, at most N^2 < 2^116 under `MAX_BLOCK_ENTRIES`, and by
#: the drawn block entries; 2^512 leaves those about 2^500 of the float
#: range (2^1024), so no Gram entry, water level or determinant overflows.
MAX_ROUTE_SNR = 2.0**512


def _check_snr(p, power, gains):
    """Each (name, gain) route's gain over `noise_power`, the transmit
    power in field `power` times that, and that power times the gain stay
    under `MAX_ROUTE_SNR`; a route past it is rejected at the noise or at
    the power."""
    noise = p["noise_power"]
    for route, gain in gains:
        snr = gain / noise
        if not snr < MAX_ROUTE_SNR:
            raise ConfigError("scenario.noise_power",
                              f"the gain {gain:.3g} along {route} over a noise of {noise} "
                              "exceeds 2^512")
        if not p[power] * snr < MAX_ROUTE_SNR:
            raise ConfigError(f"scenario.{power}",
                              f"{p[power]} times the gain {gain:.3g} along {route} over "
                              f"the noise {noise} exceeds 2^512")
        if not p[power] * gain < MAX_ROUTE_SNR:
            raise ConfigError(f"scenario.{power}",
                              f"{p[power]} times the gain {gain:.3g} along {route} "
                              "exceeds 2^512")


def _too_large(p, block, why):
    """Reject `block`, a tuple of count fields, at its largest count."""
    field = max(block, key=p.get)
    shape = " x ".join(str(p[f]) for f in block)
    raise ConfigError(f"scenario.{field}", f"{p[field]} makes a {shape} block, {why}")


def _check_blocks(p, blocks):
    """Every block, a tuple of count fields whose product is its entry
    count, holds at most `MAX_BLOCK_ENTRIES` entries; an oversized block
    is rejected at its largest count."""
    for block in blocks:
        if math.prod(p[f] for f in block) > MAX_BLOCK_ENTRIES:
            _too_large(p, block, f"over {MAX_BLOCK_ENTRIES} entries, more than numpy can hold")


def _check_cell(p, nodes, counts, params) -> list:
    """Check the links of `link_layout(*nodes, *counts)`, node n at field
    `{n}_position`, as `Scenario` builds them from `params`, link name ->
    ChannelParams (None for a missing link): every block under the cap,
    then link by link, in the order `Scenario` raises in, the nodes apart
    and a spherical LoS block's elements apart (distances that do not
    fit in memory reject the block), then the reflected and direct routes'
    gains, whose (name, gain) pairs `_check_routes` returns."""
    layout = link_layout(*nodes, *counts)
    _check_blocks(p, [shape for *_, shape in layout])
    geom = _geometry(p, nodes)
    hops = {}
    for name, frm, to, (rows, cols) in layout:
        link = params[name]
        if link is None:
            continue
        hops[name] = (f"{frm}_position", f"{to}_position", link.path_loss_exponent)
        _distance(p, *hops[name][:2])
        shape = (p[rows], p[cols])
        if (link.rician_k > 0.0 and resolve_wavefront(geom, frm, to, *shape,
                                                      link.wavefront_model) == "spherical"):
            try:
                apart = element_distances(geom, frm, to, *shape).all()
            except MemoryError:
                _too_large(p, (rows, cols), "whose element distances do not fit in memory")
            if not apart:
                raise ConfigError(f"scenario.{to}_position",
                                  f"an element of this array coincides with one at "
                                  f"scenario.{frm}_position, and the spherical wavefront "
                                  "needs every pair apart")
    routes = [((), [hops["nb_ris"], hops["ris_ue"]])]
    if "nb_ue" in hops:
        routes.append(((), [hops["nb_ue"]]))
    return _check_routes(p, routes)


def _check_float(p, field):
    """An integer count the runner multiplies into a float converts to one."""
    try:
        float(p[field])
    except OverflowError:
        raise ConfigError(f"scenario.{field}", f"{p[field]} does not convert to a float") from None


@dataclass(frozen=True)
class Experiment:
    """One experiment: `brief`, its help line; `check`, which raises
    ConfigError on a violated cross-field condition of a scenario with its
    defaults applied; `build`, which takes that scenario, the seed and the
    trial count, validates nothing, and returns its table as a list of
    `{metric: column}` blocks, column t holding row group t; and
    `fields`, field -> (default, check), where a check takes (value,
    dotted path) and returns the normalised value or raises ConfigError.
    """

    brief: str
    check: Callable
    build: Callable
    fields: dict


# ---------------------------------------------------------------------------
# rank: cascaded-channel rank collapse and its near-field escape


def _rank_links(p) -> dict:
    """rank's ChannelParams per link, all on the `wavefront` field: a pure
    LoS incident hop, a departure hop of Rician factor `ris_ue_rician_k`
    and, with `include_direct`, a Rayleigh direct link."""
    wf = p["wavefront"]
    return {"nb_ris": ChannelParams(rician_k=math.inf, wavefront_model=wf),
            "ris_ue": ChannelParams(rician_k=p["ris_ue_rician_k"], wavefront_model=wf),
            "nb_ue": ChannelParams(wavefront_model=wf) if p["include_direct"] else None}


def _check_rank(p):
    _check_cell(p, ("nb", "ris", "ue"), ("m_antennas", "n_elements", "u_antennas"),
                _rank_links(p))


def _rank_scenario(p) -> Scenario:
    return Scenario(geometry=_geometry(p, ("nb", "ris", "ue")), m_antennas=p["m_antennas"],
                    n_elements=p["n_elements"], u_antennas=p["u_antennas"], **_rank_links(p))


def _rank_columns(p, seed, trials) -> list:
    """Numerical rank and leading singular values of the effective channel.

    The incident hop is pure LoS; under the planar wavefront it is an
    outer product, so the reflected channel pinches to rank one no matter
    how rich the departure hop is.  Switching `wavefront` to "spherical"
    (or "auto" inside the Fraunhofer distance) lifts the collapse.

    With the surface all ones, the reflected channel is amp h G, G the
    fixed N x M incident block, factored once per run as U_G S V^H with
    r = min(N, M) columns, and amp the hops' amplitude gain.  Only h U_G
    reaches it; as U_G has orthonormal columns, that projection of the
    Rician hop h is itself a Rician link of h's factor, U x r with LoS
    block L U_G (L h's own), and `draw_links` draws it as one: U x r
    normals instead of U x N, none at K = inf, with the distribution of
    drawing h whole.  Trial t draws it, then the direct Rayleigh block, as
    row t of the one generator `rng_from(seed, "rank/normals")`.  One
    matrix product and one stacked SVD serve all trials, each spectrum
    computed on its own, so a row does not depend on the trial count.
    One INFO log line reports the trials and the one generator.
    """
    scn = _rank_scenario(p)
    fac = svd(scn.los_nb_ris)
    los = None if scn.los_ris_ue is None else scn.los_ris_ue @ fac.left_vectors
    projection = (scn.ris_ue, los, (scn.u_antennas, fac.singular_values.size))
    (h, d), _ = draw_links([projection, scn.links()[2]], trials,
                           rng_from(seed, "rank/normals"))
    # S V^H, r x M, with both hops' amplitude gain folded in
    amp = math.sqrt(scn.pl_ris_ue * scn.pl_nb_ris)
    h = h @ (amp * fac.singular_values[:, None] * fac.right_vectors.conj().T)
    if d is not None:
        d *= math.sqrt(scn.pl_nb_ue)
        h += d
    spectra = singular_values(h)
    log.info("rank: %d trials, 1 stream", trials)
    return [{"rank": [spectrum_rank(sv) for sv in spectra], "sigma_1": spectra[:, 0],
             "sigma_2": spectra[:, 1] if spectra.shape[-1] > 1 else [0.0] * trials}]


_RANK = Experiment("effective-channel rank statistics", _check_rank, _rank_columns, fields={
    "m_antennas": (4, _int_ge(1)),
    "u_antennas": (4, _int_ge(1)),
    "n_elements": (64, _int_ge(1)),
    "wavelength": (0.1, _positive),
    "nb_position": ((0.0, 0.0, 10.0), _vec(3)),
    "ris_position": ((50.0, 0.0, 10.0), _vec(3)),
    "ue_position": ((60.0, 5.0, 1.5), _vec(3)),
    "ris_ue_rician_k": (0.0, _real(0.0, allow_inf=True)),
    "wavefront": ("planar", _choice("auto", "planar", "spherical")),
    "include_direct": (False, _boolean),
})


# ---------------------------------------------------------------------------
# beamform: aligned-phase array gain and quantization loss


def _check_beamform(p):
    """Bit widths `quantize_phases` takes, sizes whose two hop rows numpy
    can hold, and no repeated size or width."""
    from .ris import MAX_QUANTIZATION_BITS
    for i, n in enumerate(p["n_list"]):
        if 2 * n > MAX_BLOCK_ENTRIES:
            raise ConfigError(f"scenario.n_list[{i}]", f"{n} elements make a 2 x {n} "
                              f"stack, over {MAX_BLOCK_ENTRIES} entries, more than numpy "
                              "can hold")
    for i, b in enumerate(p["quantization_bits"]):
        _integer(b, f"scenario.quantization_bits[{i}]", 1, MAX_QUANTIZATION_BITS)
    for field in ("n_list", "quantization_bits"):
        for i, v in enumerate(p[field]):
            if v in p[field][:i]:
                raise ConfigError(f"scenario.{field}[{i}]", f"repeats the entry {v}")


#: coefficients per hop in one beamform stack: a size's trials are taken
#: in chunks of at most this many coefficients, and at least one trial,
#: so that memory does not grow with the trial count
BEAMFORM_CHUNK = 1 << 16


def _beamform_columns(p, seed, trials) -> list:
    """Coherent power gain of an aligned panel, optionally quantized.

    With unit-modulus channels the gain is exactly N^2.  For "rayleigh"
    channels each trial draws fresh coefficients; `quantization_bits`
    adds quantized-to-continuous gain ratio rows per bit width.  A chunk
    of trials of one size is one stack of incident and one of departure
    coefficients, (trials, N) each; trial t at size N draws its incident,
    then its departure coefficients as row t of the size's generator
    `rng_from(seed, f"beamform/{N}")`, through `draw_links`, so no value
    depends on the chunking.  One INFO log line reports the trials, sizes
    and generators: one per size on Rayleigh channels, none on unit ones.
    """
    from .ris import align_miso, miso_gains, quantize_phases
    bits = p["quantization_bits"]
    rayleigh = p["channel"] != "unit"
    block = {}
    for n in p["n_list"]:
        gains, ratios = [], [[] for _ in bits]
        step = max(1, BEAMFORM_CHUNK // n)
        if rayleigh:
            rng = rng_from(seed, f"beamform/{n}")
        for lo in range(0, trials, step):
            chunk = range(lo, min(lo + step, trials))
            if rayleigh:
                (g, h), _ = draw_links([(_RAYLEIGH, None, (n,))] * 2, len(chunk), rng)
            else:
                g = h = np.ones((len(chunk), n), dtype=np.complex128)
            phases = align_miso(g, h)
            cont = miso_gains(g, h, phases)
            gains += cont
            for b, column in zip(bits, ratios):
                column += [q / c if c > 0.0 else 0.0
                           for q, c in zip(miso_gains(g, h, quantize_phases(phases, b)), cont)]
        block[f"gain_n{n}"] = gains
        block.update((f"ratio_b{b}_n{n}", column) for b, column in zip(bits, ratios))
    log.info("beamform: %d trials, %d sizes, %d streams", trials, len(p["n_list"]),
             len(p["n_list"]) if rayleigh else 0)
    return [block]


_BEAMFORM = Experiment("aligned panel gain and quantization loss", _check_beamform,
                       _beamform_columns, fields={
    "n_list": ((1, 4, 16, 64), _list_of(_int_ge(1), nonempty=True)),
    "channel": ("unit", _choice("unit", "rayleigh")),
    "quantization_bits": ((), _list_of(_int_ge(1))),
})


# ---------------------------------------------------------------------------
# multiuser: price of one shared reflection state


def _check_multiuser(p):
    _check_blocks(p, [("n_users", "n_elements", "m_antennas"),
                      ("n_users", "u_antennas", "n_elements")])
    weights = p["qos_weights"]
    if weights and len(weights) != p["n_users"]:
        raise ConfigError("scenario.qos_weights",
                          f"{len(weights)} weights given for {p['n_users']} users")
    # every hop is a unit-variance Rayleigh block, with no path loss
    _check_snr(p, "power_per_user", [("each user's hops", 1.0)])


#: phase grid of the multiuser ascents
MULTIUSER_GRID_POINTS = 16

#: trials whose ascents share one `phase_ascent_batch` call; bounds the
#: memory of the batch without changing any result, since the engine keeps
#: each ascent bit for bit whatever else is in the batch
MULTIUSER_CHUNK = 64


def _multiuser_columns(p, seed, trials) -> list:
    """Shared-state sum capacity against per-user private optima.

    Users draw independent Rayleigh hops; empty `qos_weights` means equal
    weight one for everybody.  Trial t draws all its users' incident
    hops, then all their departure hops, as row t of the one generator
    `rng_from(seed, "multiuser/normals")`, through `draw_links`.  Each
    chunk of `MULTIUSER_CHUNK` trials draws its blocks as one stack per
    hop and runs its ascents as one batched ascent, and one INFO log line
    reports their count, their sweeps, the element steps and candidate
    capacities those sweeps evaluated (sweeps x N, and that times the
    ascent's entries x the grid), how many stopped at `max_iters` without
    meeting the tolerance, and the one generator.
    """
    from . import scheduler
    from .ris import ASCENT_REL_TOL, sweep_converged
    k, m, u, n = (p[f] for f in ("n_users", "m_antennas", "u_antennas", "n_elements"))
    weights = p["qos_weights"] or (1.0,) * k
    rng = rng_from(seed, "multiuser/normals")
    links = [(_RAYLEIGH, None, (k, n, m)), (_RAYLEIGH, None, (k, u, n))]
    block = {"shared_sum": [], "ideal_sum": [], "gap_fraction": []}
    traces, entries = [], []
    for lo in range(0, trials, MULTIUSER_CHUNK):
        chunk = range(lo, min(lo + MULTIUSER_CHUNK, trials))
        (g, h), _ = draw_links(links, len(chunk), rng)
        results = scheduler.compare_shared_vs_ideal(
            g, h, weights, p["power_per_user"], p["noise_power"], p["max_iters"],
            MULTIUSER_GRID_POINTS,
        )
        for cmp in results:
            for metric, column in block.items():  # each metric is a field of cmp
                column.append(getattr(cmp, metric))
            traces += cmp.traces
            # the shared ascent weighs every user, a private one its own
            entries += [k] + [1] * k
    capped = sum(len(tr) - 1 == p["max_iters"] and not sweep_converged(tr)
                 for tr in traces)
    sweeps = [len(tr) - 1 for tr in traces]
    log.info("multiuser: %d ascents, %d sweeps, %d element steps, %d candidate "
             "capacities, %d stopped at max_iters=%d without meeting rel_tol=%g, "
             "1 stream",
             len(traces), sum(sweeps), n * sum(sweeps),
             n * MULTIUSER_GRID_POINTS * sum(s * e for s, e in zip(sweeps, entries)),
             capped, p["max_iters"], ASCENT_REL_TOL)
    return [block]


_MULTIUSER = Experiment("shared reflection state against per-user optima", _check_multiuser,
                        _multiuser_columns, fields={
    "n_users": (4, _int_ge(1)),
    "m_antennas": (2, _int_ge(1)),
    "u_antennas": (2, _int_ge(1)),
    "n_elements": (16, _int_ge(1)),
    "qos_weights": ((), _list_of(_positive)),
    "power_per_user": (10.0, _positive),
    "noise_power": (1.0, _positive),
    "max_iters": (30, _int_ge(1)),
})


# ---------------------------------------------------------------------------
# coexist and adjacent: two operators around one uncoordinated surface


_COEX_FIELDS = {
    "wavelength": (0.1, _positive),
    "nb_a_position": ((0.0, 0.0, 10.0), _vec(3)),
    "ris_a_position": ((40.0, 0.0, 12.0), _vec(3)),
    "ue_a_position": ((45.0, 8.0, 1.5), _vec(3)),
    "nb_b_position": ((80.0, 40.0, 10.0), _vec(3)),
    "ue_b_position": ((50.0, 20.0, 1.5), _vec(3)),
    "m_antennas": (2, _int_ge(1)),
    "u_antennas": (2, _int_ge(1)),
    "n_elements_a": (64, _int_ge(1)),
    "tx_power_a": (1.0, _positive),
    "tx_power_b": (1.0, _positive),
    "rician_k": (0.0, _real(0.0, allow_inf=True)),
    "alpha_reflected": (2.0, _real(2.0)),
    "alpha_direct": (3.5, _real(2.0)),
    "noise_power": (1e-13, _positive),
    "t1": (0, _int_ge(0)),
    "t2": (1, _int_ge(0)),
    "policy": ("rerandomize_each_slot", lambda v, path: v),  # checked in _check_coex
    "b_direct_blocked": (False, _boolean),
}


def _check_coex(p):
    from .coexist import UPDATE_POLICIES
    _choice(*UPDATE_POLICIES)(p["policy"], "scenario.policy")
    if p["t1"] > p["t2"]:
        raise ConfigError("scenario.t2",
                          f"t2 must be >= t1, got t1={p['t1']}, t2={p['t2']}")
    coex = _coex_scenario(p)
    counts = ("m_antennas", "n_elements_a", "u_antennas")
    signal = {"tx_power_b": _check_cell(p, ("nb_b", "ris_a", "ue_b"), counts,
                                        coex.link_params(not p["b_direct_blocked"]))}
    if p.get("mode") == "lbt":
        signal["tx_power_a"] = _check_cell(p, ("nb_a", "ris_a", "ue_a"), counts,
                                           coex.link_params(True))
        refl, ground = p["alpha_reflected"], p["alpha_direct"]
        nb_a, ris, ue_a, nb_b, ue_b = (f"{node}_position"
                                       for node in ("nb_a", "ris_a", "ue_a", "nb_b", "ue_b"))
        # what each network's transmission delivers to the other's user
        # (interference) and base station (sensing): gains, not LoS blocks
        tx_a, tx_b = ("tx_power_a",), ("tx_power_b",)
        routes = [(tx_b, [(nb_b, ue_a, ground)]), (tx_b, [(nb_b, nb_a, refl)]),
                  (tx_a, [(nb_a, ue_b, ground)]), (tx_a, [(nb_a, nb_b, refl)])]
        routes += [(tx_a + ("n_elements_a",), [(nb_a, ris, refl), (ris, far, refl)])
                   for far in (ue_b, nb_b)]
        _check_routes(p, routes, phased=False)
    for power, gains in signal.items():
        _check_snr(p, power, gains)


def _check_adjacent(p):
    _check_coex(p)
    _check_float(p, "filter_passes")


def _coex_scenario(p):
    from .coexist import CoexScenario
    geom = _geometry(p, ("nb_a", "ris_a", "ue_a", "nb_b", "ue_b"))
    params = ChannelParams(
        rician_k=p["rician_k"],
        path_loss_exponent=p["alpha_reflected"],
        noise_power=p["noise_power"],
        wavefront_model="planar",
    )
    return CoexScenario(
        geometry=geom,
        params=params,
        direct_params=replace(params, path_loss_exponent=p["alpha_direct"]),
        m_antennas=p["m_antennas"],
        u_antennas=p["u_antennas"],
        n_elements=p["n_elements_a"],
        tx_power_a=p["tx_power_a"],
        tx_power_b=p["tx_power_b"],
        t1=p["t1"],
        t2=p["t2"],
        policy=p["policy"],
        b_direct_blocked=p["b_direct_blocked"],
    )


def _coexist_columns(p, seed, trials) -> list:
    """Stale-CSI loss of the victim network, or slotted LBT runs.

    Mode "stale_csi" reports per-trial fresh and stale rates of network B
    precoding on measurement-time state, from one `coexist.stale_rates`
    call over all trials.  Mode "lbt" reports per-trial airtimes,
    collision fraction and mean rates of `trials` listen-before-talk runs
    of `slots` slots each, from one `coexist.lbt_runs` call.
    """
    from . import coexist
    scn = _coex_scenario(p)

    if p["mode"] == "stale_csi":
        fresh, stale, loss = coexist.stale_rates(scn, trials, seed)
        return [{"fresh_rate": fresh[0], "stale_rate": stale[0], "loss_fraction": loss[0]}]
    runs = coexist.lbt_runs(scn, p["sense_threshold_dbm"], p["backoff_slots_max"], p["slots"],
                            trials, seed)
    return [dict(zip(("airtime_a", "airtime_b", "collision_fraction", "mean_rate_a",
                      "mean_rate_b"), runs))]


def _adjacent_columns(p, seed, trials) -> list:
    """Adjacent-band victim rates without and with surface band filtering.

    Network B is out of band for A's surface, so a band filter there
    attenuates B's bounce by its `coexist.filter_budget_db` over
    `filter_passes` traversals.  One `coexist.stale_rates` call evaluates
    every trial at bounce amplitude scales 1 and that budget's: both arms
    reuse the same channel and surface draws, leaving the filter as the
    only difference.  The rates are B's stale-CSI rates.
    """
    from . import coexist
    budget_db = coexist.filter_budget_db(p["oob_attenuation_db"], p["insertion_loss_db"],
                                         p["filter_passes"])
    _, stale, loss = coexist.stale_rates(_coex_scenario(p), trials, seed,
                                         (1.0, 10.0 ** (budget_db / 20.0)))
    return [{"rate_no_filter": stale[0], "rate_with_filter": stale[1],
             "loss_no_filter": loss[0], "loss_with_filter": loss[1]}]


_COEXIST = Experiment("stale-CSI loss or listen-before-talk airtime", _check_coex,
                      _coexist_columns, fields={
    **_COEX_FIELDS,
    "mode": ("stale_csi", _choice("stale_csi", "lbt")),
    # an LBT trial holds two draws per slot
    "slots": (2000, _int_ge(1, MAX_BLOCK_ENTRIES)),
    "sense_threshold_dbm": (-82.0, _real()),
    # the backoff is drawn as a numpy int64
    "backoff_slots_max": (8, _int_ge(0, 2**63 - 1)),
})


_ADJACENT = Experiment("adjacent-band rates with surface band filtering", _check_adjacent,
                       _adjacent_columns, fields={
    **_COEX_FIELDS,
    "oob_attenuation_db": (30.0, _real(0.0, allow_inf=True)),
    "insertion_loss_db": (0.5, _real(0.0)),
    "filter_passes": (2, _int_ge(1)),
})


# ---------------------------------------------------------------------------
# deploy: greedy panel placement on a blocked scene


def _check_deploy(p):
    """Scene geometry inside the extent, a raster numpy can hold, and an
    element count that converts to a float for the panel gain."""
    from .deploy import MAX_RASTER_CELLS, raster_shape
    extent = p["extent"]
    x0, y0, x1, y1 = extent
    for i, (a, b, c, d) in enumerate(p["obstacles"]):
        if a < x0 or b < y0 or c > x1 or d > y1:
            raise ConfigError(f"scenario.obstacles[{i}]", f"leaves the extent {extent}")
    points = [(f"scenario.candidate_sites[{i}]", s)
              for i, s in enumerate(p["candidate_sites"])]
    points += [(f"scenario.base_stations[{i}].position", st["position"])
               for i, st in enumerate(p["base_stations"])]
    for path, (x, y) in points:
        if not (x0 <= x <= x1 and y0 <= y <= y1):
            raise ConfigError(path, f"lies outside the extent {extent}")
    _check_float(p, "n_elements")
    try:
        cells = math.prod(raster_shape(extent, p["grid_resolution"]))
    except OverflowError:
        cells = math.inf
    if cells > MAX_RASTER_CELLS:
        # name the extent when the resolution is left at its default
        res = p["grid_resolution"]
        field = "extent" if res == _DEPLOY.fields["grid_resolution"][0] else "grid_resolution"
        raise ConfigError(f"scenario.{field}", f"{res} m cells over the extent {extent} "
                          f"number over {MAX_RASTER_CELLS}, more than numpy can hold")


def _deploy_columns(p, seed, trials) -> list:
    """Greedy coverage-driven placement plus optional breathing sweep.

    Deterministic given the scene, so `trials` does not enter.  The first
    block holds the placement steps and the second the breathing sweeps,
    so the trial column carries the step, then the sweep index.  Step 0
    is the panel-free baseline with site -1.  One INFO log line reports
    the raster cells, greedy steps, sites scored, sight sweeps (one per
    obstacle and endpoint), raster cells the slab test decided, and
    breathing scales.
    """
    from . import deploy
    stations = tuple(
        deploy.BaseStation(
            position=np.asarray(b["position"], dtype=float),
            tx_power_dbm=b["tx_power_dbm"],
        )
        for b in p["base_stations"]
    )
    scene = deploy.Scene(
        extent=p["extent"],
        obstacles=p["obstacles"],
        base_stations=stations,
        candidate_sites=p["candidate_sites"],
        grid_resolution=p["grid_resolution"],
        wavelength=p["wavelength"],
    )
    params = ChannelParams(
        rician_k=0.0,
        path_loss_exponent=p["path_loss_exponent"],
        noise_power=p["noise_power"],
        wavefront_model="planar",
    )
    plan = deploy.greedy_place(
        scene, p["n_elements"], params,
        p["cost_per_panel"], p["budget"], p["threshold_db"], p["target_fraction"],
    )
    steps = {"greedy_site": [int(site) for site, _ in plan.history],
             "greedy_coverage": [float(cov) for _, cov in plan.history]}
    coverage = [float(deploy.snr_map(scene, plan, params, p["threshold_db"],
                                     gain_scale=s).coverage_fraction)
                for s in p["gain_scales"]]
    # the route table builds a sight mask toward every site some station
    # sees, and those are the sites greedy scores
    stations, sites, tested = scene.sight_work()
    log.info("deploy: %d raster cells, %d greedy steps, %d sites scored, "
             "%d sight sweeps, %d cells slab-tested, %d breathing scales",
             math.prod(deploy.raster_shape(scene.extent, scene.grid_resolution)),
             len(plan.history) - 1, sites, len(scene.obstacles) * (stations + sites),
             tested, len(p["gain_scales"]))
    return [steps, {"gain_scale": p["gain_scales"], "breathing_coverage": coverage}]


_DEPLOY = Experiment("greedy coverage-driven panel placement", _check_deploy,
                     _deploy_columns, fields={
    "extent": ((0.0, 0.0, 100.0, 60.0), _rect),
    "obstacles": (((45.0, 20.0, 55.0, 40.0),), _list_of(_rect)),
    "base_stations": (({"position": (10.0, 30.0), "tx_power_dbm": 30.0},),
                      _list_of(_station, nonempty=True)),
    "candidate_sites": (((60.0, 8.0), (50.0, 50.0), (90.0, 30.0)), _list_of(_vec(2))),
    "grid_resolution": (2.0, _positive),
    "wavelength": (0.1, _positive),
    "n_elements": (256, _int_ge(1)),
    "path_loss_exponent": (2.0, _real(2.0)),
    "noise_power": (1e-13, _positive),
    "threshold_db": (_REQUIRED, _real()),
    "cost_per_panel": (1.0, _positive),
    "budget": (3.0, _real(0.0)),
    "target_fraction": (0.95, lambda v, path: _positive(v, path, maximum=1.0)),
    "gain_scales": ((), _list_of(_real(0.0))),
})


# ---------------------------------------------------------------------------
# one run: validated once against its record, then built into a table


EXPERIMENTS = {"rank": _RANK, "beamform": _BEAMFORM, "multiuser": _MULTIUSER,
               "coexist": _COEXIST, "adjacent": _ADJACENT, "deploy": _DEPLOY}


def resolve_scenario(experiment: str, raw) -> dict:
    """Fill in defaults and check a scenario mapping against its record.

    Unknown fields, rejected values, missing required fields and violated
    cross-field conditions raise ConfigError naming the dotted path, for
    example `scenario.noise_power`.  Given values come back normalised by
    their checks (numbers as floats, lists as tuples); defaults are kept
    as written, so a resolved scenario resolves to itself.
    """
    fields = EXPERIMENTS[experiment].fields
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("scenario", f"expected a mapping, got {reprlib.repr(raw)}")
    p = {key: default for key, (default, _) in fields.items()}
    for key, value in raw.items():
        path = f"scenario.{key}"
        if key not in fields:
            raise ConfigError(
                path,
                f"unknown field for the {experiment!r} experiment; "
                f"allowed fields are {sorted(fields)}",
            )
        default, check = fields[key]
        p[key] = value if value is default else check(value, path)
    for key, value in p.items():
        if value is _REQUIRED:
            raise ConfigError(f"scenario.{key}",
                              f"required for the {experiment!r} experiment")
    EXPERIMENTS[experiment].check(p)
    return p


def check_run(seed, trials) -> None:
    """Reject a seed or trial count no runner can use.

    The seed must be an integer in [0, 2^64) and `trials` an integer in
    [1, `MAX_BLOCK_ENTRIES`], the most rows of a per-trial array; a
    ConfigError names `seed` or `trials`.
    """
    _integer(seed, "seed", 0)
    if seed >= 1 << 64:
        raise ConfigError("seed", f"must fit in 64 bits, got {seed}")
    _integer(trials, "trials", 1, MAX_BLOCK_ENTRIES)


@dataclass(frozen=True)
class PreparedRun:
    """A validated run: the experiment, its seed and trial count, its
    scenario with every default applied, and the output path or None."""

    experiment: str
    seed: int
    trials: int
    scenario: dict
    output_path: str | None


def prepare(experiment, scenario, seed, trials, output_path=None) -> PreparedRun:
    """Validate a run once and return it as a `PreparedRun`.

    Checks the experiment name, the seed and trial count (`check_run`),
    the output path and the scenario (`resolve_scenario`), in that order;
    the first rejected value raises ConfigError naming its dotted path.
    """
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise ConfigError("experiment", f"must be one of {tuple(EXPERIMENTS)}, "
                                        f"got {reprlib.repr(experiment)}")
    check_run(seed, trials)
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output", f"expected a path string, got {reprlib.repr(output_path)}")
    return PreparedRun(experiment, seed, trials, resolve_scenario(experiment, scenario),
                       output_path)


def run(prepared: PreparedRun) -> ResultTable:
    """The result table of a prepared run, with its provenance metadata.

    `config_sha256` is the digest of the experiment, seed, trial count and
    resolved scenario, so a table names the exact run that made it.  The
    rows are the builder's blocks through `_trial_rows`.  A run whose rows
    hold an infinite or NaN value raises FloatingPointError naming the
    first such trial and metric, and returns no table.
    """
    head = {"experiment": prepared.experiment, "seed": prepared.seed,
            "trials": prepared.trials}
    blocks = EXPERIMENTS[prepared.experiment].build(prepared.scenario, prepared.seed,
                                                    prepared.trials)
    meta = {**head, "tool_version": __version__,
            "config_sha256": config_digest({**head, "scenario": prepared.scenario})}
    table = ResultTable(rows=tuple(_trial_rows(blocks)), metadata=meta)
    for t, metric, value in table.rows:
        if type(value) is float and not math.isfinite(value):
            raise FloatingPointError(f"trial {t}: {metric} is {value}, not a finite number")
    return table
