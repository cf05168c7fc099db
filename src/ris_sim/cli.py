"""Command-line harness for the named experiments.

Usage::

    ris-sim <subcommand> --config cfg.yaml [--seed U64] [--threads N] [--out PATH]

There is one subcommand per entry of `experiments.EXPERIMENTS`, with
that entry's help line, and it must match the `experiment` declared in
the config file.
Every experiment runs in one thread; `--threads N` is accepted and must be
at least 1, and it changes neither results nor speed.
Validation is strict: unknown fields anywhere in the config are errors,
reported with their dotted path.  A config is validated once:
`validate_config` returns `experiments.prepare`'s record of the run, a
`--seed` replaces only its seed and re-checks it, and `main` hands the
record to `experiments.run`.  Logs go to stderr; result data goes to
the output files, or to stdout as CSV when no output path is given.

Exit codes: 0 success, 1 config validation error, 2 runtime error.

Importing this module pins BLAS to one thread: when numpy is not loaded
yet, it sets `OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS` and
`MKL_NUM_THREADS` to 1 unless the environment already sets them.  A value
the user gives wins.  A library caller that imported numpy first keeps
the BLAS setting numpy started with, and its environment, which its
subprocesses inherit, is left as it was.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import re
import reprlib
import sys
import time
from dataclasses import replace

# before the first numpy import, which `.experiments` makes: BLAS reads
# these once, when it loads, so once numpy is loaded they would pin nothing
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import yaml

from . import __version__
from .experiments import (
    EXPERIMENTS,
    ConfigError,
    PreparedRun,
    check_run,
    prepare,
    run,
    write_outputs,
)

log = logging.getLogger("ris_sim")

_TOP_LEVEL = ("experiment", "seed", "trials", "output", "scenario")


class _Loader(yaml.CSafeLoader):
    """libyaml's SafeLoader that also reads YAML 1.2 floats such as 1e-13
    and 1.0e300.

    PyYAML follows YAML 1.1, where a float needs a dot and a signed
    exponent, so those spellings would otherwise load as strings.  Tags
    are still resolved in Python, so the resolver below applies, and
    syntax errors carry the same line and column marks.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def validate_config(raw: str) -> PreparedRun:
    """Parse and fully validate a YAML config, applying defaults.

    Returns `experiments.prepare`'s record of the run.  Raises ConfigError
    naming the offending field path; YAML syntax errors are reported with
    their line and column, and a value Python cannot build is one too.
    """
    try:
        doc = yaml.load(raw, Loader=_Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or str(exc)
        raise ConfigError("", f"not well-formed YAML{where}: {problem}") from None
    except ValueError as exc:
        # a value Python cannot build, such as an integer past the
        # interpreter's digit limit or the date 2024-13-45
        raise ConfigError("", f"a value cannot be read: {exc}") from None
    if doc is None:
        raise ConfigError("", "config file is empty")
    if not isinstance(doc, dict):
        raise ConfigError("", f"expected a mapping at top level, got {reprlib.repr(doc)}")
    for key in doc:
        if key not in _TOP_LEVEL:
            raise ConfigError(
                str(key),
                f"unknown field; allowed fields are {_TOP_LEVEL}",
            )
    if "experiment" not in doc:
        raise ConfigError("experiment", "required field is missing")
    return prepare(doc["experiment"], doc.get("scenario"), doc.get("seed", 0),
                   doc.get("trials", 1), doc.get("output"))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="ris-sim",
        description="Reflective-surface link simulator, batch experiment harness.",
    )
    parser.add_argument("--version", action="version", version=f"ris-sim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")
    for name, record in EXPERIMENTS.items():
        sp = sub.add_parser(name, help=record.brief)
        sp.add_argument("--config", required=True, help="YAML experiment config")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility, >= 1; every experiment "
                             "runs in one thread, so it changes neither results nor speed")
        sp.add_argument("--out", default=None,
                        help="override the config output path")
    return parser


def main(argv=None) -> int:
    # force=True so repeated in-process invocations rebind to the stderr
    # object current at call time instead of whatever the first call saw
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s",
                        level=logging.INFO, force=True)
    args = _parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as f:
            raw = f.read()
    except OSError as exc:
        log.error("cannot read config %s: %s", args.config, exc)
        return 2
    start = time.perf_counter()
    try:
        prepared = validate_config(raw)
        if prepared.experiment != args.command:
            raise ConfigError(
                "experiment",
                f"config declares {prepared.experiment!r} but the "
                f"{args.command!r} subcommand was invoked",
            )
        if args.threads < 1:
            raise ConfigError("", f"--threads must be >= 1, got {args.threads}")
        if args.seed is not None:
            prepared = replace(prepared, seed=args.seed)
            check_run(prepared.seed, prepared.trials)
    except ConfigError as exc:
        log.error("invalid config: %s", exc)
        return 1
    stages = {"validate": time.perf_counter() - start}
    path = args.out if args.out is not None else prepared.output_path
    try:
        table = run(prepared)
        stages["run"] = time.perf_counter() - start - stages["validate"]
        if path is not None:
            log.info("wrote %s, %s, %s", *write_outputs(table, path))
    except OSError as exc:
        log.error("cannot write results: %s", exc)
        return 2
    except Exception as exc:
        log.error("experiment failed: %s", exc)
        return 2
    if path is None:
        sys.stdout.write(table.to_csv())
    # the write stage is all the time after the run: files or stdout
    stages["write"] = time.perf_counter() - start - sum(stages.values())
    log.info("stages: %s", ", ".join(f"{k} {v * 1e3:.2f} ms" for k, v in stages.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
