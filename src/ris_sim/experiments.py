"""Named experiment runners producing reproducible result tables.

Every runner maps a flat scenario mapping to a long-format table with one
row per trial per metric.  `SCHEMA` holds each scenario field's default
and check, and `resolve_scenario` applies it for the runners and the
command line alike.  All randomness is keyed on (seed, trial, label), so a
table is a pure function of (scenario, seed, trials).  Trials run one
after another in one thread; the command line accepts `--threads` and
ignores it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .channel import (
    ChannelParams,
    ChannelRealization,
    Geometry,
    Scenario,
    assemble_stack,
    draw_stack,
    link_streams,
    path_gain,
)
from .coexist import (
    UPDATE_POLICIES,
    BandFilter,
    CoexNetwork,
    CoexScenario,
    LbtConfig,
    adjacent_rates,
    run_lbt_sim,
    stale_rates,
)
from .deploy import (
    MAX_RASTER_CELLS,
    BaseStation,
    Scene,
    cell_breathing,
    greedy_place,
    raster_shape,
)
from .numkernel import singular_values, spectrum_rank
from .ris import (
    MAX_QUANTIZATION_BITS,
    RisPanel,
    align_phases_miso,
    composite_gain,
    quantize_phases,
    sweep_converged,
)
from .scheduler import ASCENT_REL_TOL, UserContext, compare_shared_vs_ideal
from .seeding import KeyedStreams, complex_normal, subseed

log = logging.getLogger(__name__)

_COLUMNS = (("trial", ""), ("metric", ""), ("value", "per metric"))


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Long-format experiment output plus provenance metadata.

    Parameters
    ----------
    columns : tuple
        (name, unit) pairs, one per column.
    rows : tuple
        Row tuples; arity must match `columns`.  Values are plain Python
        ints, floats, or strings.
    metadata : dict
        Provenance record: experiment name, seed, tool version, and the
        sha256 digest of the resolved configuration.
    """

    columns: tuple
    rows: tuple
    metadata: dict

    def __post_init__(self):
        cols = tuple((str(n), str(u)) for n, u in self.columns)
        object.__setattr__(self, "columns", cols)
        arity = len(cols)
        norm = []
        for row in self.rows:
            if len(row) != arity:
                raise ValueError(
                    f"row {row!r} has {len(row)} cells, table has {arity} columns"
                )
            norm.append(tuple(_plain(v) for v in row))
        object.__setattr__(self, "rows", tuple(norm))

    def to_csv(self) -> str:
        """Comma-separated text, \\n endings, 17 significant digits."""
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow([name for name, _ in self.columns])
        for row in self.rows:
            w.writerow([_format_cell(v) for v in row])
        return buf.getvalue()

    def to_json(self) -> str:
        doc = {
            "columns": [{"name": n, "unit": u} for n, u in self.columns],
            "rows": [list(r) for r in self.rows],
            "metadata": self.metadata,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return v


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


def _table(experiment, seed, trials, params, rows) -> ResultTable:
    cfg = {
        "experiment": experiment,
        "seed": int(seed),
        "trials": int(trials),
        "scenario": params,
    }
    meta = {
        "experiment": experiment,
        "seed": int(seed),
        "trials": int(trials),
        "tool_version": __version__,
        "config_sha256": config_digest(cfg),
    }
    return ResultTable(columns=_COLUMNS, rows=tuple(rows), metadata=meta)


def _trial_rows(metrics, columns):
    """Rows of per-trial metric arrays, in trial order then metric order."""
    values = zip(*(c.tolist() for c in columns))
    return [(t, name, v) for t, vals in enumerate(values)
            for name, v in zip(metrics, vals)]


# ---------------------------------------------------------------------------
# scenario schema: every field's default and check, in one table


class ConfigError(ValueError):
    """Config rejection carrying the dotted path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


_REQUIRED = object()


def _number(v, path, minimum=None, maximum=None, allow_inf=False):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"expected a number, got {v!r}")
    x = float(v)
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
        raise ConfigError(path, f"expected an integer, got {v!r}")
    if v < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(path, f"must be <= {maximum}, got {v}")
    return v


def _int_ge(minimum, maximum=None):
    return lambda v, path: _integer(v, path, minimum, maximum)


def _boolean(v, path):
    if not isinstance(v, bool):
        raise ConfigError(path, f"expected true or false, got {v!r}")
    return v


def _choice(*options):
    def check(v, path):
        if v not in options:
            raise ConfigError(path, f"must be one of {options}, got {v!r}")
        return v
    return check


def _vec(k):
    def check(v, path):
        if not isinstance(v, (list, tuple)) or len(v) != k:
            raise ConfigError(path, f"expected a list of {k} numbers, got {v!r}")
        return tuple(_number(x, f"{path}[{i}]") for i, x in enumerate(v))
    return check


def _list_of(item, nonempty=False):
    def check(v, path):
        if not isinstance(v, (list, tuple)):
            raise ConfigError(path, f"expected a list, got {v!r}")
        if nonempty and not v:
            raise ConfigError(path, "must not be empty")
        return tuple(item(x, f"{path}[{i}]") for i, x in enumerate(v))
    return check


def _rect(v, path):
    x0, y0, x1, y1 = _vec(4)(v, path)
    if not (x0 < x1 and y0 < y1):
        raise ConfigError(path, f"needs x0 < x1 and y0 < y1, got {v!r}")
    return (x0, y0, x1, y1)


_STATION_FIELDS = ("position", "tx_power_dbm")


def _station(st, path):
    if not isinstance(st, dict):
        raise ConfigError(path, f"expected a mapping, got {st!r}")
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
    "policy": ("rerandomize_each_slot", _choice(*UPDATE_POLICIES)),
    "b_direct_blocked": (False, _boolean),
}

# experiment -> field -> (default, check).  A check takes (value, dotted
# path) and returns the normalised value or raises ConfigError.
SCHEMA = {
    "rank": {
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
    },
    "beamform": {
        "n_list": ((1, 4, 16, 64), _list_of(_int_ge(1), nonempty=True)),
        "channel": ("unit", _choice("unit", "rayleigh")),
        "quantization_bits": ((), _list_of(_int_ge(1, MAX_QUANTIZATION_BITS))),
    },
    "multiuser": {
        "n_users": (4, _int_ge(1)),
        "m_antennas": (2, _int_ge(1)),
        "u_antennas": (2, _int_ge(1)),
        "n_elements": (16, _int_ge(1)),
        "qos_weights": ((), _list_of(_positive)),
        "power_per_user": (10.0, _positive),
        "noise_power": (1.0, _positive),
        "max_iters": (30, _int_ge(1)),
    },
    "coexist": {
        **_COEX_FIELDS,
        "mode": ("stale_csi", _choice("stale_csi", "lbt")),
        "slots": (2000, _int_ge(1)),
        "sense_threshold_dbm": (-82.0, _real()),
        "backoff_slots_max": (8, _int_ge(0)),
    },
    "adjacent": {
        **_COEX_FIELDS,
        "oob_attenuation_db": (30.0, _real(0.0, allow_inf=True)),
        "insertion_loss_db": (0.5, _real(0.0)),
        "filter_passes": (2, _int_ge(1)),
    },
    "deploy": {
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
    },
}


def _distance(p, a, b) -> float:
    d = float(np.linalg.norm(np.subtract(p[a], p[b])))
    if not d > 0.0:
        raise ConfigError(f"scenario.{b}", f"coincides with scenario.{a}")
    return d


def _check_routes(p, routes):
    """Every (scale, hops) route needs a finite power gain.

    A hop is (from field, to field, path-loss exponent); the gain is the
    scale times the product of the hop path gains, as the runner forms it.
    """
    lam = p["wavelength"]
    for scale, hops in routes:
        try:
            gain = scale * math.prod(path_gain(lam, _distance(p, a, b), alpha)
                                     for a, b, alpha in hops)
        except OverflowError:
            gain = math.inf
        if not math.isfinite(gain):
            route = " -> ".join([hops[0][0]] + [b for _, b, _ in hops])
            raise ConfigError("scenario.wavelength", f"{lam} m overflows the gain along {route}")


def _check_rank(p):
    alpha = ChannelParams().path_loss_exponent
    nb, ris, ue = "nb_position", "ris_position", "ue_position"
    routes = [(1.0, [(nb, ris, alpha), (ris, ue, alpha)])]
    if p["include_direct"]:
        routes.append((1.0, [(nb, ue, alpha)]))
    _check_routes(p, routes)


def _check_coex(p):
    if p["t1"] > p["t2"]:
        raise ConfigError("scenario.t2",
                          f"t2 must be >= t1, got t1={p['t1']}, t2={p['t2']}")
    refl, ground = p["alpha_reflected"], p["alpha_direct"]
    nb_a, ris, ue_a, nb_b, ue_b = (f"{node}_position"
                                   for node in ("nb_a", "ris_a", "ue_a", "nb_b", "ue_b"))
    # network B's link: the bounce off A's surface, plus its ground path
    routes = [(1.0, [(nb_b, ris, refl), (ris, ue_b, refl)])]
    if not p["b_direct_blocked"]:
        routes.append((1.0, [(nb_b, ue_b, ground)]))
    if p.get("mode") == "lbt":
        # A's own link, then what each network's transmission delivers to
        # the other's user (interference) and base station (sensing)
        tx_a, tx_b = p["tx_power_a"], p["tx_power_b"]
        routes += [(1.0, [(nb_a, ris, refl), (ris, ue_a, refl)]), (1.0, [(nb_a, ue_a, ground)]),
                   (tx_b, [(nb_b, ue_a, ground)]), (tx_b, [(nb_b, nb_a, refl)]),
                   (tx_a, [(nb_a, ue_b, ground)]), (tx_a, [(nb_a, nb_b, refl)])]
        routes += [(tx_a * p["n_elements_a"], [(nb_a, ris, refl), (ris, far, refl)])
                   for far in (ue_b, nb_b)]
    _check_routes(p, routes)


def _check_beamform(p):
    """Each listed size and bit width names its own rows, so none repeats."""
    for field in ("n_list", "quantization_bits"):
        for i, v in enumerate(p[field]):
            if v in p[field][:i]:
                raise ConfigError(f"scenario.{field}[{i}]", f"repeats the entry {v}")


def _check_multiuser(p):
    weights = p["qos_weights"]
    if weights and len(weights) != p["n_users"]:
        raise ConfigError("scenario.qos_weights",
                          f"{len(weights)} weights given for {p['n_users']} users")


def _check_deploy(p):
    """Scene geometry inside the extent, and a raster numpy can hold."""
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
    try:
        cells = math.prod(raster_shape(extent, p["grid_resolution"]))
    except OverflowError:
        cells = math.inf
    if cells > MAX_RASTER_CELLS:
        # name the extent when the resolution is left at its default
        res = p["grid_resolution"]
        field = "extent" if res == SCHEMA["deploy"]["grid_resolution"][0] else "grid_resolution"
        raise ConfigError(f"scenario.{field}", f"{res} m cells over the extent {extent} "
                          f"number over {MAX_RASTER_CELLS}, more than numpy can hold")


_CROSS_CHECKS = {
    "rank": _check_rank,
    "beamform": _check_beamform,
    "multiuser": _check_multiuser,
    "coexist": _check_coex,
    "adjacent": _check_coex,
    "deploy": _check_deploy,
}


def resolve_scenario(experiment: str, raw) -> dict:
    """Fill in defaults and check a scenario mapping against `SCHEMA`.

    Unknown fields, rejected values, missing required fields and violated
    cross-field conditions raise ConfigError naming the dotted path, for
    example `scenario.noise_power`.  Given values come back normalised by
    their checks (numbers as floats, lists as tuples); defaults are kept
    as written, so a resolved scenario resolves to itself.
    """
    fields = SCHEMA[experiment]
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("scenario", f"expected a mapping, got {raw!r}")
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
    if experiment in _CROSS_CHECKS:
        _CROSS_CHECKS[experiment](p)
    return p


def check_run(seed, trials) -> None:
    """Reject a seed or trial count no runner can use.

    The seed must be an integer in [0, 2^64), `trials` an integer >= 1;
    ConfigError names `seed` or `trials`.
    """
    _integer(seed, "seed", 0)
    if seed >= 1 << 64:
        raise ConfigError("seed", f"must fit in 64 bits, got {seed}")
    _integer(trials, "trials", 1)


# ---------------------------------------------------------------------------
# rank: cascaded-channel rank collapse and its near-field escape


def _rank_scenario(p, seed) -> Scenario:
    geom = Geometry(
        wavelength=p["wavelength"],
        positions={
            "nb": p["nb_position"],
            "ris": p["ris_position"],
            "ue": p["ue_position"],
        },
    )
    wf = p["wavefront"]
    nb_ris = ChannelParams(rician_k=math.inf, wavefront_model=wf)
    ris_ue = ChannelParams(rician_k=p["ris_ue_rician_k"], wavefront_model=wf)
    nb_ue = ChannelParams(wavefront_model=wf) if p["include_direct"] else None
    return Scenario(
        geometry=geom,
        m_antennas=p["m_antennas"],
        n_elements=p["n_elements"],
        u_antennas=p["u_antennas"],
        nb_ris=nb_ris,
        ris_ue=ris_ue,
        nb_ue=nb_ue,
        seed=seed,
    )


def run_rank(scenario, seed, trials) -> ResultTable:
    """Numerical rank and leading singular values of the effective channel.

    The incident hop is pure LoS; under the planar wavefront it is an
    outer product, so the reflected channel pinches to rank one no matter
    how rich the departure hop is.  Switching `wavefront` to "spherical"
    (or "auto" inside the Fraunhofer distance) lifts the collapse.  Every
    trial's streams are keyed up front and each trial is drawn on its own,
    which keeps one trial's blocks in memory; one INFO log line reports
    the trials, keyed draws and stacked passes.
    """
    check_run(seed, trials)
    p = resolve_scenario("rank", scenario)
    scn = _rank_scenario(p, seed)
    streams = link_streams(scn, range(trials))
    ones = np.ones((1, scn.n_elements), dtype=np.complex128)

    def one(t):
        h_t = assemble_stack(scn, *draw_stack(scn, streams, (t,)), ones)[0]
        sv = singular_values(h_t)
        s2 = float(sv[1]) if sv.size > 1 else 0.0
        return [
            (t, "rank", spectrum_rank(sv)),
            (t, "sigma_1", float(sv[0])),
            (t, "sigma_2", s2),
        ]

    rows = [row for t in range(trials) for row in one(t)]
    log.info("rank: %d trials, %d keyed draws, %d stacked passes",
             trials, streams.draws, streams.passes)
    return _table("rank", seed, trials, p, rows)


# ---------------------------------------------------------------------------
# beamform: aligned-phase array gain and quantization loss


def run_beamform(scenario, seed, trials) -> ResultTable:
    """Coherent power gain of an aligned panel, optionally quantized.

    With unit-modulus channels the gain is exactly N^2.  For "rayleigh"
    channels each trial draws fresh coefficients; `quantization_bits`
    adds quantized-to-continuous gain ratio rows per bit width.
    """
    check_run(seed, trials)
    p = resolve_scenario("beamform", scenario)
    if p["channel"] != "unit":
        streams = KeyedStreams(seed, [[[f"beamform/{t}/{n}/{hop}" for hop in "gh"]
                                       for n in p["n_list"]] for t in range(trials)])

    def one(t):
        rows = []
        for j, n in enumerate(p["n_list"]):
            if p["channel"] == "unit":
                g = np.ones(n, dtype=np.complex128)
                h = np.ones(n, dtype=np.complex128)
            else:
                g = complex_normal(streams[t, j, 0], n)
                h = complex_normal(streams[t, j, 1], n)
            panel = align_phases_miso(g, h)
            gain = abs(composite_gain(g, h, panel)) ** 2
            rows.append((t, f"gain_n{n}", gain))
            for b in p["quantization_bits"]:
                q = quantize_phases(panel, b)
                qgain = abs(composite_gain(g, h, q)) ** 2
                ratio = qgain / gain if gain > 0.0 else 0.0
                rows.append((t, f"ratio_b{b}_n{n}", ratio))
        return rows

    rows = [row for t in range(trials) for row in one(t)]
    return _table("beamform", seed, trials, p, rows)


# ---------------------------------------------------------------------------
# multiuser: price of one shared reflection state

#: phase grid of the multiuser ascents
MULTIUSER_GRID_POINTS = 16

#: trials whose ascents share one `phase_ascent_batch` call; bounds the
#: memory of the batch without changing any result, since the engine keeps
#: each ascent bit for bit whatever else is in the batch
MULTIUSER_CHUNK = 64


def run_multiuser(scenario, seed, trials) -> ResultTable:
    """Shared-state sum capacity against per-user private optima.

    Users draw independent Rayleigh hops; empty `qos_weights` means equal
    weight one for everybody.  The ascents of every trial run as one
    batched ascent per chunk of `MULTIUSER_CHUNK` trials, and one INFO log
    line reports their count, their sweeps and how many stopped at
    `max_iters` without meeting the tolerance.
    """
    check_run(seed, trials)
    p = resolve_scenario("multiuser", scenario)
    k, m, u, n = (p[f] for f in ("n_users", "m_antennas", "u_antennas", "n_elements"))
    weights = p["qos_weights"] or (1.0,) * k
    panel = RisPanel.uniform(n)
    streams = KeyedStreams(seed, [[[f"multiuser/{t}/ue{i}/{hop}" for hop in "gh"]
                                   for i in range(k)] for t in range(trials)])

    def users(t):
        out = []
        for i in range(k):
            g = complex_normal(streams[t, i, 0], (n, m))
            h = complex_normal(streams[t, i, 1], (u, n))
            real = ChannelRealization(
                g_nb_ris=g, h_ris_ue=h, h_nb_ue=None,
                pl_nb_ris=1.0, pl_ris_ue=1.0, pl_nb_ue=0.0,
            )
            out.append(UserContext(channel=real, qos_weight=weights[i]))
        return out

    rows, traces = [], []
    for lo in range(0, trials, MULTIUSER_CHUNK):
        chunk = range(lo, min(lo + MULTIUSER_CHUNK, trials))
        results = compare_shared_vs_ideal(
            [users(t) for t in chunk], panel, p["power_per_user"], p["noise_power"],
            p["max_iters"], MULTIUSER_GRID_POINTS,
        )
        for t, cmp in zip(chunk, results):
            rows += [
                (t, "shared_sum", cmp.shared_sum),
                (t, "ideal_sum", cmp.ideal_sum),
                (t, "gap_fraction", cmp.gap_fraction),
            ]
            traces += cmp.traces
    capped = sum(len(tr) - 1 == p["max_iters"] and not sweep_converged(tr, ASCENT_REL_TOL)
                 for tr in traces)
    log.info("multiuser: %d ascents, %d sweeps, %d stopped at max_iters=%d "
             "without meeting rel_tol=%g", len(traces), sum(len(tr) - 1 for tr in traces),
             capped, p["max_iters"], ASCENT_REL_TOL)
    return _table("multiuser", seed, trials, p, rows)


# ---------------------------------------------------------------------------
# coexist and adjacent: two operators around one uncoordinated surface


def _coex_scenario(p, same_frequency) -> CoexScenario:
    geom = Geometry(
        wavelength=p["wavelength"],
        positions={
            "nb_a": p["nb_a_position"],
            "ris_a": p["ris_a_position"],
            "ue_a": p["ue_a_position"],
            "nb_b": p["nb_b_position"],
            "ue_b": p["ue_b_position"],
        },
    )
    params = ChannelParams(
        rician_k=p["rician_k"],
        path_loss_exponent=p["alpha_reflected"],
        noise_power=p["noise_power"],
        wavefront_model="planar",
    )
    direct = replace(params, path_loss_exponent=p["alpha_direct"])
    m, u = p["m_antennas"], p["u_antennas"]
    net_a = CoexNetwork(
        name="a", nb="nb_a", ue="ue_a", m_antennas=m, u_antennas=u,
        tx_power=p["tx_power_a"], ris="ris_a", n_elements=p["n_elements_a"],
    )
    net_b = CoexNetwork(
        name="b", nb="nb_b", ue="ue_b", m_antennas=m, u_antennas=u,
        tx_power=p["tx_power_b"],
    )
    return CoexScenario(
        geometry=geom,
        params=params,
        net_a=net_a,
        net_b=net_b,
        same_frequency=same_frequency,
        t1=p["t1"],
        t2=p["t2"],
        ris_update_policy=p["policy"],
        direct_params=direct,
        b_direct_blocked=p["b_direct_blocked"],
    )


def run_coexist(scenario, seed, trials) -> ResultTable:
    """Stale-CSI loss of the victim network, or a slotted LBT run.

    Mode "stale_csi" reports per-trial fresh and stale rates of network B
    precoding on measurement-time state, from one `coexist.stale_rates`
    call over all trials.  Mode "lbt" runs `trials` independent
    listen-before-talk simulations of `slots` slots each.
    """
    check_run(seed, trials)
    p = resolve_scenario("coexist", scenario)
    scn = _coex_scenario(p, same_frequency=True)

    if p["mode"] == "stale_csi":
        arms = stale_rates(scn, range(trials), seed)
        rows = _trial_rows(("fresh_rate", "stale_rate", "loss_fraction"),
                           [a[0] for a in arms])
        return _table("coexist", seed, trials, p, rows)

    cfg = LbtConfig(
        sense_threshold_dbm=p["sense_threshold_dbm"],
        backoff_slots_max=p["backoff_slots_max"],
    )

    def one(t):
        res = run_lbt_sim(scn, cfg, p["slots"], subseed(seed, f"run/{t}"))
        return [
            (t, "airtime_a", res.airtime_a),
            (t, "airtime_b", res.airtime_b),
            (t, "collision_fraction", res.collision_fraction),
            (t, "mean_rate_a", res.mean_rate_a),
            (t, "mean_rate_b", res.mean_rate_b),
        ]

    rows = [row for t in range(trials) for row in one(t)]
    return _table("coexist", seed, trials, p, rows)


def run_adjacent(scenario, seed, trials) -> ResultTable:
    """Adjacent-band victim rates without and with surface band filtering.

    One `coexist.adjacent_rates` call evaluates every trial: both arms
    reuse the same channel and surface draws, and the filtered arm scales
    the bounce amplitude by the double-pass out-of-band budget.
    """
    check_run(seed, trials)
    p = resolve_scenario("adjacent", scenario)
    scn = _coex_scenario(p, same_frequency=False)
    filt = BandFilter(
        per_pass_oob_attenuation_db=p["oob_attenuation_db"],
        inband_insertion_loss_db=p["insertion_loss_db"],
        passes_on_reflection=p["filter_passes"],
    )

    rows = _trial_rows(
        ("rate_no_filter", "rate_with_filter", "loss_no_filter", "loss_with_filter"),
        adjacent_rates(scn, filt, range(trials), seed),
    )
    return _table("adjacent", seed, trials, p, rows)


# ---------------------------------------------------------------------------
# deploy: greedy panel placement on a blocked scene


def run_deploy(scenario, seed, trials) -> ResultTable:
    """Greedy coverage-driven placement plus optional breathing sweep.

    Deterministic given the scene, so `trials` does not enter;
    the trial column carries the placement step (and, for breathing rows,
    the sweep index).  Step 0 is the panel-free baseline with site -1.
    One INFO log line reports the raster cells, greedy steps, sites
    scored, sight sweeps and breathing scales.
    """
    check_run(seed, trials)
    p = resolve_scenario("deploy", scenario)
    stations = tuple(
        BaseStation(
            position=np.asarray(b["position"], dtype=float),
            tx_power_dbm=b["tx_power_dbm"],
        )
        for b in p["base_stations"]
    )
    scene = Scene(
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
    template = RisPanel.uniform(p["n_elements"])
    plan = greedy_place(
        scene, template, params,
        p["cost_per_panel"], p["budget"], p["threshold_db"], p["target_fraction"],
    )
    rows = []
    for step, (site, cov) in enumerate(plan.history):
        rows.append((step, "greedy_site", int(site)))
        rows.append((step, "greedy_coverage", float(cov)))
    for i, s in enumerate(p["gain_scales"]):
        cm = cell_breathing(scene, plan, params, s, p["threshold_db"])
        rows.append((i, "gain_scale", s))
        rows.append((i, "breathing_coverage", float(cm.coverage_fraction)))
    # greedy scores every site it builds a route layer for, and breathing
    # rasters only placed sites, so the site sight masks count the sites scored
    stations, sites = scene.sight_endpoints()
    log.info("deploy: %d raster cells, %d greedy steps, %d sites scored, "
             "%d sight sweeps, %d breathing scales",
             math.prod(raster_shape(scene.extent, scene.grid_resolution)),
             len(plan.history) - 1, sites, len(scene.obstacles) * (stations + sites),
             len(p["gain_scales"]))
    return _table("deploy", seed, trials, p, rows)


RUNNERS = {
    "rank": run_rank,
    "beamform": run_beamform,
    "multiuser": run_multiuser,
    "coexist": run_coexist,
    "adjacent": run_adjacent,
    "deploy": run_deploy,
}
