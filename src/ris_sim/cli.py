"""Command-line harness for the named experiments.

Usage::

    ris-sim <subcommand> --config cfg.yaml [--seed U64] [--threads N] [--out PATH]

The subcommand must match the `experiment` declared in the config file.
Validation is strict: unknown fields anywhere in the config are errors,
reported with their dotted path.  Logs go to stderr; result data goes to
the output files, or to stdout as CSV when no output path is given.

Exit codes: 0 success, 1 config validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import dataclass, field, replace

import yaml

from . import __version__
from .coexist import UPDATE_POLICIES
from .experiments import DEFAULTS, RUNNERS, ResultTable, _REQUIRED, write_outputs

log = logging.getLogger("ris_sim")

_TOP_LEVEL = ("experiment", "seed", "trials", "output", "scenario")


class ConfigError(ValueError):
    """Config rejection carrying the dotted path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment description with all defaults applied."""

    experiment: str
    seed: int = 0
    trials: int = 1
    scenario: dict = field(default_factory=dict)
    output_path: str | None = None


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(v, path, minimum=None, maximum=None, allow_inf=False):
    if not _is_number(v):
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


def _positive(v, path):
    x = _number(v, path)
    if not x > 0.0:
        raise ConfigError(path, f"must be a positive number, got {v}")
    return x


def _integer(v, path, minimum):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(path, f"expected an integer, got {v!r}")
    if v < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {v}")
    return v


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

def _int_ge(minimum):
    return lambda v, path: _integer(v, path, minimum)

def _nonneg(v, path):
    return _number(v, path, minimum=0.0)

def _nonneg_inf_ok(v, path):
    return _number(v, path, minimum=0.0, allow_inf=True)

def _ge2(v, path):
    return _number(v, path, minimum=2.0)

def _finite(v, path):
    return _number(v, path)

def _unit_fraction(v, path):
    x = _number(v, path, maximum=1.0)
    if not x > 0.0:
        raise ConfigError(path, f"must lie in (0, 1], got {v}")
    return x


def _vec(k):
    def check(v, path):
        if not isinstance(v, (list, tuple)) or len(v) != k:
            raise ConfigError(path, f"expected a list of {k} numbers, got {v!r}")
        return tuple(_number(x, f"{path}[{i}]") for i, x in enumerate(v))
    return check


def _seq(v, path):
    if not isinstance(v, (list, tuple)):
        raise ConfigError(path, f"expected a list, got {v!r}")
    return v


def _int_list(minimum, nonempty=False):
    def check(v, path):
        items = _seq(v, path)
        if nonempty and not items:
            raise ConfigError(path, "must not be empty")
        return tuple(_integer(x, f"{path}[{i}]", minimum) for i, x in enumerate(items))
    return check


def _weight_list(v, path):
    return tuple(_positive(x, f"{path}[{i}]") for i, x in enumerate(_seq(v, path)))

def _positive_list(v, path):
    return tuple(_positive(x, f"{path}[{i}]") for i, x in enumerate(_seq(v, path)))

def _nonneg_list(v, path):
    return tuple(_nonneg(x, f"{path}[{i}]") for i, x in enumerate(_seq(v, path)))

def _point_list(v, path):
    vec2 = _vec(2)
    return tuple(vec2(x, f"{path}[{i}]") for i, x in enumerate(_seq(v, path)))

def _rect(v, path):
    x0, y0, x1, y1 = _vec(4)(v, path)
    if not (x0 < x1 and y0 < y1):
        raise ConfigError(path, f"needs x0 < x1 and y0 < y1, got {v!r}")
    return (x0, y0, x1, y1)

def _rect_list(v, path):
    return tuple(_rect(x, f"{path}[{i}]") for i, x in enumerate(_seq(v, path)))


_STATION_FIELDS = ("position", "tx_power_dbm", "antennas")


def _station_list(v, path):
    items = _seq(v, path)
    if not items:
        raise ConfigError(path, "needs at least one base station")
    out = []
    vec2 = _vec(2)
    for i, st in enumerate(items):
        here = f"{path}[{i}]"
        if not isinstance(st, dict):
            raise ConfigError(here, f"expected a mapping, got {st!r}")
        for key in st:
            if key not in _STATION_FIELDS:
                raise ConfigError(
                    f"{here}.{key}",
                    f"unknown field; allowed fields are {_STATION_FIELDS}",
                )
        if "position" not in st or "tx_power_dbm" not in st:
            raise ConfigError(here, "needs position and tx_power_dbm")
        out.append({
            "position": vec2(st["position"], f"{here}.position"),
            "tx_power_dbm": _finite(st["tx_power_dbm"], f"{here}.tx_power_dbm"),
            "antennas": _integer(st.get("antennas", 1), f"{here}.antennas", 1),
        })
    return tuple(out)


_FIELD_CHECKS = {
    "m_antennas": _int_ge(1),
    "u_antennas": _int_ge(1),
    "n_elements": _int_ge(1),
    "n_elements_a": _int_ge(1),
    "n_users": _int_ge(1),
    "grid_points": _int_ge(2),
    "max_iters": _int_ge(1),
    "slots": _int_ge(1),
    "filter_passes": _int_ge(1),
    "t1": _int_ge(0),
    "t2": _int_ge(0),
    "backoff_slots_max": _int_ge(0),
    "wavelength": _positive,
    "grid_resolution": _positive,
    "power_per_user": _positive,
    "noise_power": _positive,
    "tx_power_a": _positive,
    "tx_power_b": _positive,
    "cost_per_panel": _positive,
    "rel_tol": _positive,
    "budget": _nonneg,
    "insertion_loss_db": _nonneg,
    "oob_attenuation_db": _nonneg_inf_ok,
    "rician_k": _nonneg_inf_ok,
    "ris_ue_rician_k": _nonneg_inf_ok,
    "alpha_reflected": _ge2,
    "alpha_direct": _ge2,
    "path_loss_exponent": _ge2,
    "threshold_db": _finite,
    "sense_threshold_dbm": _finite,
    "target_fraction": _unit_fraction,
    "include_direct": _boolean,
    "directional_sensing": _boolean,
    "b_direct_blocked": _boolean,
    "wavefront": _choice("auto", "planar", "spherical"),
    "channel": _choice("unit", "rayleigh"),
    "mode": _choice("stale_csi", "lbt"),
    "policy": _choice(*UPDATE_POLICIES),
    "nb_position": _vec(3),
    "ris_position": _vec(3),
    "ue_position": _vec(3),
    "nb_a_position": _vec(3),
    "ris_a_position": _vec(3),
    "ue_a_position": _vec(3),
    "nb_b_position": _vec(3),
    "ue_b_position": _vec(3),
    "extent": _rect,
    "n_list": _int_list(1, nonempty=True),
    "quantization_bits": _int_list(1),
    "qos_weights": _weight_list,
    "gain_scales": _nonneg_list,
    "obstacles": _rect_list,
    "candidate_sites": _point_list,
    "base_stations": _station_list,
}


def _check_inside_extent(merged: dict) -> None:
    """Obstacles, candidate sites and base stations must lie in the extent."""
    x0, y0, x1, y1 = merged["extent"]
    for i, (a, b, c, d) in enumerate(merged["obstacles"]):
        if a < x0 or b < y0 or c > x1 or d > y1:
            raise ConfigError(f"scenario.obstacles[{i}]",
                              f"leaves the extent {merged['extent']}")
    points = [(f"scenario.candidate_sites[{i}]", p)
              for i, p in enumerate(merged["candidate_sites"])]
    points += [(f"scenario.base_stations[{i}].position", st["position"])
               for i, st in enumerate(merged["base_stations"])]
    for path, (x, y) in points:
        if not (x0 <= x <= x1 and y0 <= y <= y1):
            raise ConfigError(path, f"lies outside the extent {merged['extent']}")


def _validate_scenario(experiment: str, raw) -> dict:
    defaults = DEFAULTS[experiment]
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("scenario", f"expected a mapping, got {raw!r}")
    merged = dict(defaults)
    for key, value in raw.items():
        path = f"scenario.{key}"
        if key not in defaults:
            raise ConfigError(
                path,
                f"unknown field for the {experiment!r} experiment; "
                f"allowed fields are {sorted(defaults)}",
            )
        merged[key] = _FIELD_CHECKS[key](value, path)
    for key, value in merged.items():
        if value is _REQUIRED:
            raise ConfigError(
                f"scenario.{key}",
                f"required for the {experiment!r} experiment",
            )
    if experiment in ("coexist", "adjacent") and merged["t1"] > merged["t2"]:
        raise ConfigError(
            "scenario.t2",
            f"t2 must be >= t1, got t1={merged['t1']}, t2={merged['t2']}",
        )
    if experiment == "deploy":
        _check_inside_extent(merged)
    if experiment == "multiuser":
        weights = merged["qos_weights"]
        if weights and len(weights) != merged["n_users"]:
            raise ConfigError(
                "scenario.qos_weights",
                f"{len(weights)} weights given for {merged['n_users']} users",
            )
    return merged


def validate_config(raw: str) -> ExperimentConfig:
    """Parse and fully validate a YAML config, applying defaults.

    Raises ConfigError naming the offending field path; YAML syntax
    errors are reported with their line and column.
    """
    try:
        doc = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or str(exc)
        raise ConfigError("", f"not well-formed YAML{where}: {problem}") from None
    if doc is None:
        raise ConfigError("", "config file is empty")
    if not isinstance(doc, dict):
        raise ConfigError("", f"expected a mapping at top level, got {doc!r}")
    for key in doc:
        if key not in _TOP_LEVEL:
            raise ConfigError(
                str(key),
                f"unknown field; allowed fields are {_TOP_LEVEL}",
            )
    if "experiment" not in doc:
        raise ConfigError("experiment", "required field is missing")
    experiment = doc["experiment"]
    if experiment not in RUNNERS:
        raise ConfigError(
            "experiment",
            f"must be one of {tuple(RUNNERS)}, got {experiment!r}",
        )
    seed = _integer(doc.get("seed", 0), "seed", 0)
    if seed >= 1 << 64:
        raise ConfigError("seed", f"must fit in 64 bits, got {seed}")
    trials = _integer(doc.get("trials", 1), "trials", 1)
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("output", f"expected a path string, got {output!r}")
    scenario = _validate_scenario(experiment, doc.get("scenario"))
    return ExperimentConfig(
        experiment=experiment,
        seed=seed,
        trials=trials,
        scenario=scenario,
        output_path=output,
    )


def run_experiment(
    cfg: ExperimentConfig, threads: int = 1, out_path: str | None = None
) -> ResultTable:
    """Dispatch a validated config and write outputs when a path is set.

    `out_path` overrides the config's own output path; with neither set
    the table is only returned.
    """
    runner = RUNNERS[cfg.experiment]
    table = runner(cfg.scenario, cfg.seed, cfg.trials, threads)
    path = out_path if out_path is not None else cfg.output_path
    if path is not None:
        paths = write_outputs(table, path)
        log.info("wrote %s, %s, %s", *paths)
    return table


def _u64(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= v < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {text}")
    return v


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-sim",
        description="Reflective-surface link simulator, batch experiment harness.",
    )
    parser.add_argument("--version", action="version", version=f"ris-sim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")
    briefs = {
        "rank": "effective-channel rank statistics",
        "beamform": "aligned panel gain and quantization loss",
        "multiuser": "shared reflection state against per-user optima",
        "coexist": "stale-CSI loss or listen-before-talk airtime",
        "adjacent": "adjacent-band rates with surface band filtering",
        "deploy": "greedy coverage-driven panel placement",
    }
    for name in RUNNERS:
        sp = sub.add_parser(name, help=briefs[name])
        sp.add_argument("--config", required=True, help="YAML experiment config")
        sp.add_argument("--seed", type=_u64, default=None,
                        help="override the config seed")
        sp.add_argument("--threads", type=int, default=1,
                        help="worker threads for trial fan-out (default 1)")
        sp.add_argument("--out", default=None,
                        help="override the config output path")
    return parser


def main(argv=None) -> int:
    # force=True so repeated in-process invocations rebind to the stderr
    # object current at call time instead of whatever the first call saw
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s",
                        level=logging.INFO, force=True)
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as f:
            raw = f.read()
    except OSError as exc:
        log.error("cannot read config %s: %s", args.config, exc)
        return 2
    try:
        cfg = validate_config(raw)
        if cfg.experiment != args.command:
            raise ConfigError(
                "experiment",
                f"config declares {cfg.experiment!r} but the "
                f"{args.command!r} subcommand was invoked",
            )
        if args.threads < 1:
            raise ConfigError("", f"--threads must be >= 1, got {args.threads}")
    except ConfigError as exc:
        log.error("invalid config: %s", exc)
        return 1
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    try:
        table = run_experiment(cfg, threads=args.threads, out_path=args.out)
    except OSError as exc:
        log.error("cannot write results: %s", exc)
        return 2
    except Exception as exc:
        log.error("experiment failed: %s", exc)
        return 2
    if args.out is None and cfg.output_path is None:
        sys.stdout.write(table.to_csv())
    return 0


if __name__ == "__main__":
    sys.exit(main())
