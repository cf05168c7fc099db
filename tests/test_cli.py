"""Config validation and the command-line entry point."""

import concurrent.futures
import functools
import json
import logging
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from ris_sim import channel, cli, coexist, deploy, experiments, numkernel, scheduler
from ris_sim.cli import ConfigError, _Loader, main, validate_config
from ris_sim.experiments import EXPERIMENTS, prepare, run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(autouse=True)
def _restore_root_handlers():
    # main() rebinds root logging to the stderr capture of whichever test
    # is running; put the previous handlers back afterwards so the rest
    # of the suite keeps its logging setup.
    root = logging.getLogger()
    saved = root.handlers[:]
    yield
    root.handlers[:] = saved


def _cfg(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# validate_config


def test_minimal_rank_config_fills_defaults():
    cfg = validate_config("experiment: rank\n")
    assert cfg.experiment == "rank"
    assert cfg.seed == 0 and cfg.trials == 1
    assert cfg.output_path is None
    assert cfg.scenario["n_elements"] == 64
    assert cfg.scenario["wavefront"] == "planar"
    assert cfg.scenario["include_direct"] is False


def test_unknown_top_level_field_rejected():
    with pytest.raises(ConfigError, match="trails"):
        validate_config("experiment: rank\ntrails: 100\n")


def test_unknown_scenario_field_rejected_with_path():
    with pytest.raises(ConfigError, match=r"scenario\.n_element\b"):
        validate_config("experiment: rank\nscenario:\n  n_element: 8\n")


def test_negative_noise_rejected_at_dotted_path():
    text = "experiment: multiuser\nscenario:\n  noise_power: -1.0\n"
    with pytest.raises(ConfigError, match=r"scenario\.noise_power"):
        validate_config(text)


def test_yaml_syntax_error_reports_line_and_column():
    with pytest.raises(ConfigError) as err:
        validate_config("experiment: rank\nscenario: {m_antennas: 4\n")
    assert "line" in str(err.value) and "column" in str(err.value)


def test_empty_config_rejected():
    with pytest.raises(ConfigError, match="empty"):
        validate_config("")


def test_non_mapping_top_level_rejected():
    with pytest.raises(ConfigError, match="mapping"):
        validate_config("- 1\n- 2\n")


def test_experiment_field_required_and_checked():
    with pytest.raises(ConfigError, match="experiment"):
        validate_config("seed: 3\n")
    with pytest.raises(ConfigError, match="warp"):
        validate_config("experiment: warp\n")
    with pytest.raises(ConfigError, match=r"must be one of .*, got \['rank'\]"):
        validate_config("experiment: [rank]\n")


def test_seed_and_trials_bounds():
    with pytest.raises(ConfigError, match="seed"):
        validate_config("experiment: rank\nseed: -1\n")
    with pytest.raises(ConfigError, match="64 bits"):
        validate_config(f"experiment: rank\nseed: {1 << 64}\n")
    with pytest.raises(ConfigError, match="trials"):
        validate_config("experiment: rank\ntrials: 0\n")
    cfg = validate_config(f"experiment: rank\nseed: {(1 << 64) - 1}\n")
    assert cfg.seed == (1 << 64) - 1


def test_wavefront_choice_enforced():
    with pytest.raises(ConfigError, match="wavefront"):
        validate_config("experiment: rank\nscenario:\n  wavefront: flat\n")


def test_boolean_field_rejects_integers():
    with pytest.raises(ConfigError, match="true or false"):
        validate_config("experiment: rank\nscenario:\n  include_direct: 1\n")


def test_measurement_times_must_be_ordered():
    text = "experiment: coexist\nscenario:\n  t1: 5\n  t2: 1\n"
    with pytest.raises(ConfigError, match=r"scenario\.t2"):
        validate_config(text)


def test_qos_weight_count_must_match_users():
    text = (
        "experiment: multiuser\n"
        "scenario:\n  n_users: 4\n  qos_weights: [1.0, 0.5]\n"
    )
    with pytest.raises(ConfigError, match=r"scenario\.qos_weights"):
        validate_config(text)


def test_deploy_threshold_is_required():
    with pytest.raises(ConfigError, match=r"scenario\.threshold_db"):
        validate_config("experiment: deploy\n")


def test_station_fields_validated_with_nested_path():
    text = (
        "experiment: deploy\n"
        "scenario:\n"
        "  threshold_db: 24.0\n"
        "  base_stations:\n"
        "    - position: [10.0, 30.0]\n"
        "      tx_power_dbm: 30.0\n"
        "      height: 10.0\n"
    )
    with pytest.raises(ConfigError, match=r"base_stations\[0\]\.height"):
        validate_config(text)


def test_zero_rel_tol_rejected_at_dotted_path():
    # the multiuser ascent's stopping tolerance is fixed, not a config field
    text = "experiment: multiuser\nscenario:\n  rel_tol: 0\n"
    with pytest.raises(ConfigError, match=r"scenario\.rel_tol"):
        validate_config(text)


@pytest.mark.parametrize("field, value, path", [
    ("extent", "[0, 0, 0, 60]", r"scenario\.extent"),
    ("obstacles", "[[50, 20, 45, 40]]", r"scenario\.obstacles\[0\]"),
    ("obstacles", "[[90, 20, 110, 40]]", r"scenario\.obstacles\[0\]"),
    ("candidate_sites", "[[60, 8], [50, 61]]", r"scenario\.candidate_sites\[1\]"),
    ("base_stations", "[{position: [-1, 30], tx_power_dbm: 30}]",
     r"scenario\.base_stations\[0\]\.position"),
])
def test_deploy_geometry_checked_like_the_scene(field, value, path):
    text = f"experiment: deploy\nscenario:\n  threshold_db: 24.0\n  {field}: {value}\n"
    with pytest.raises(ConfigError, match=path):
        validate_config(text)


def test_yaml_12_scientific_notation_reads_as_float():
    text = "experiment: multiuser\nscenario:\n  noise_power: 1.0e300\n  power_per_user: 1e-13\n"
    cfg = validate_config(text)
    assert cfg.scenario["noise_power"] == 1.0e300
    assert cfg.scenario["power_per_user"] == 1e-13


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
def test_shipped_configs_load_as_under_yaml_11(config):
    text = config.read_text()
    assert yaml.load(text, Loader=_Loader) == yaml.safe_load(text)


class _PyLoader(yaml.SafeLoader):
    """The pure-Python twin of `_Loader`: same resolvers, Python parser."""

    yaml_implicit_resolvers = _Loader.yaml_implicit_resolvers


_FLOAT_SPELLINGS = "a: 1e-13\nb: 1.0e300\nc: .5e3\nd: -2E+4\ne: [1e5, +3.e-2]\n"


@pytest.mark.parametrize("text", [pytest.param(p.read_text(), id=p.stem)
                                  for p in sorted(CONFIGS.glob("*.yaml"))]
                         + [pytest.param(_FLOAT_SPELLINGS, id="float-spellings")])
def test_libyaml_loader_reads_what_the_python_loader_reads(text):
    got = yaml.load(text, Loader=_Loader)
    assert got == yaml.load(text, Loader=_PyLoader)
    assert repr(got) == repr(yaml.load(text, Loader=_PyLoader))


@pytest.mark.parametrize("text", ["experiment: rank\nscenario: {m_antennas: 4\n",
                                  "a: 1\n b: 2\n", "a: [1, 2\nb: 3\n", "a: 'open\n"])
def test_libyaml_syntax_errors_keep_the_python_loader_marks(text):
    marks = []
    for loader in (_Loader, _PyLoader):
        with pytest.raises(yaml.YAMLError) as err:
            yaml.load(text, Loader=loader)
        mark = err.value.problem_mark
        marks.append((mark.line, mark.column))
    assert marks[0] == marks[1]


# The same scenario through the library entry and through the config file
# path: one that runs, and one with a value both must reject.
_PARITY = {
    "rank": ({"wavelength": 1, "n_elements": 8}, {"wavelength": 0}, "scenario.wavelength"),
    "beamform": ({"n_list": [2, 8], "channel": "rayleigh", "quantization_bits": [1, 2]},
                 {"n_list": []}, "scenario.n_list"),
    "multiuser": ({"n_users": 2, "n_elements": 4, "max_iters": 2, "qos_weights": [2, 1]},
                  {"qos_weights": [1.0]}, "scenario.qos_weights"),
    "coexist": ({"wavelength": 1, "n_elements_a": 8, "nb_b_position": [80, 40, 10]},
                {"t1": 2, "t2": 1}, "scenario.t2"),
    "adjacent": ({"n_elements_a": 8, "oob_attenuation_db": 20},
                 {"mode": "lbt"}, "scenario.mode"),
    "deploy": ({"threshold_db": 24, "grid_resolution": 5,
                "base_stations": [{"position": [10, 30], "tx_power_dbm": 30}]},
               {"base_stations": []}, "scenario.base_stations"),
}


def _config_text(experiment, scenario):
    return yaml.safe_dump({"experiment": experiment, "seed": 3, "trials": 2,
                           "scenario": scenario})


@pytest.mark.parametrize("experiment", sorted(_PARITY))
def test_library_runner_and_cli_resolve_alike(experiment):
    good, bad, path = _PARITY[experiment]
    via_cli = run(validate_config(_config_text(experiment, good)))
    via_lib = run(prepare(experiment, good, 3, 2))
    assert via_lib.to_csv() == via_cli.to_csv()
    assert via_lib.metadata == via_cli.metadata
    with pytest.raises(ConfigError) as lib_err:
        prepare(experiment, bad, 3, 2)
    with pytest.raises(ConfigError) as cli_err:
        validate_config(_config_text(experiment, bad))
    assert lib_err.value.path == cli_err.value.path == path


# (seed, trials) pairs both entry points reject, and the path they name;
# a run of 2^63 trials could not end, so validation must stop it
_BAD_RUNS = [(-1, 1, "seed"), (1 << 64, 1, "seed"), (1.5, 1, "seed"),
             (0, 0, "trials"), (0, True, "trials"), (0, 1 << 63, "trials"),
             (0, 1 << 64, "trials")]


@pytest.mark.parametrize("experiment", sorted(_PARITY))
@pytest.mark.parametrize("seed, trials, path", _BAD_RUNS)
def test_library_runner_and_cli_check_seed_and_trials_alike(experiment, seed, trials, path):
    good = _PARITY[experiment][0]
    with pytest.raises(ConfigError) as lib_err:
        prepare(experiment, good, seed, trials)
    text = yaml.safe_dump({"experiment": experiment, "seed": seed, "trials": trials,
                           "scenario": good})
    with pytest.raises(ConfigError) as cli_err:
        validate_config(text)
    assert lib_err.value.path == cli_err.value.path == path


def test_output_path_must_be_a_string():
    with pytest.raises(ConfigError, match="output"):
        validate_config("experiment: rank\noutput: 3\n")


# ---------------------------------------------------------------------------
# main() entry point

_SMALL_RANK = "experiment: rank\ntrials: 3\nscenario:\n  n_elements: 8\n"


def test_main_writes_outputs_and_keeps_stdout_clean(tmp_path, capsys):
    cfg = _cfg(tmp_path, _SMALL_RANK)
    out = tmp_path / "res.csv"
    rc = main(["rank", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert out.exists()
    assert (tmp_path / "res.json").exists()
    assert (tmp_path / "res.meta.json").exists()
    assert captured.out == ""
    assert "wrote" in captured.err


@pytest.mark.parametrize("to_files", [True, False])
def test_main_logs_its_stage_times_to_stderr(tmp_path, capsys, to_files):
    cfg = _cfg(tmp_path, _SMALL_RANK)
    out = tmp_path / "res.csv"
    assert main(["rank", "--config", cfg, *(["--out", str(out)] if to_files else [])]) == 0
    captured = capsys.readouterr()
    lines = [ln for ln in captured.err.splitlines() if "stages" in ln]
    assert len(lines) == 1
    assert re.fullmatch(r"INFO stages: validate \d+\.\d\d ms, run \d+\.\d\d ms, "
                        r"write \d+\.\d\d ms", lines[0]), lines[0]
    # timings are run facts, not results: no output carries them
    outputs = ([p.read_text() for p in (out, tmp_path / "res.json", tmp_path / "res.meta.json")]
               if to_files else [captured.out])
    assert not any("stage" in text or "validate" in text for text in outputs)


def test_main_streams_csv_to_stdout_without_out(tmp_path, capsys):
    cfg = _cfg(tmp_path, _SMALL_RANK)
    rc = main(["rank", "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.split("\n")
    assert lines[0] == "trial,metric,value"
    assert len(lines) == 1 + 3 * 3 + 1
    # logs never leak into the data stream and data never leaks into logs
    assert "INFO" not in captured.out
    assert "trial,metric,value" not in captured.err


def test_main_two_runs_byte_identical(tmp_path, capsys):
    cfg = _cfg(tmp_path, _SMALL_RANK)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["rank", "--config", cfg, "--out", str(a)]) == 0
    assert main(["rank", "--config", cfg, "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("max_iters", [1, 30])
def test_main_multiuser_logs_its_ascents_to_stderr(tmp_path, capsys, monkeypatch, max_iters):
    traces = []
    compare = scheduler.compare_shared_vs_ideal

    def spy(*args):
        out = compare(*args)
        traces.extend(t for cmp in out for t in cmp.traces)
        return out

    # candidate stacks are (grid, entries, U, M); a batch's starting
    # channels are one (entries, U, M) stack
    evaluated = []
    capacity = numkernel.stack_capacity

    def counted(h, *args):
        if h.ndim == 4:
            evaluated.append(h.shape[0] * h.shape[1])
        return capacity(h, *args)

    monkeypatch.setattr(scheduler, "compare_shared_vs_ideal", spy)
    monkeypatch.setattr(numkernel, "stack_capacity", counted)
    cfg = _cfg(tmp_path, "experiment: multiuser\ntrials: 4\nscenario:\n  n_users: 3\n"
                         f"  n_elements: 6\n  max_iters: {max_iters}\n")
    assert main(["multiuser", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "ascents" in ln]
    sweeps = [len(t) - 1 for t in traces]
    # an ascent stopped at the cap when its last sweep still gained more
    # than the 1e-6 tolerance
    capped = sum(s == max_iters and t[-1] - t[-2] > 1e-6 * abs(t[-2])
                 for s, t in zip(sweeps, traces))
    # each trial's shared ascent over its 3 users, then one per user
    entries = [3, 1, 1, 1] * 4
    candidates = 6 * 16 * sum(s * e for s, e in zip(sweeps, entries))
    assert sum(evaluated) == candidates
    assert len(traces) == 4 * (3 + 1)
    assert (capped > 0) == (max_iters == 1)
    assert lines == [f"INFO multiuser: 16 ascents, {sum(sweeps)} sweeps, "
                     f"{6 * sum(sweeps)} element steps, {candidates} candidate capacities, "
                     f"{capped} stopped at max_iters={max_iters} without meeting rel_tol=1e-06, "
                     "1 stream"]


def test_main_deploy_logs_its_work_to_stderr(tmp_path, capsys, monkeypatch):
    builds = []
    sight_raster = deploy._sight_raster

    def spy(*args):
        builds.append(sight_raster(*args))
        return builds[-1]

    monkeypatch.setattr(deploy, "_sight_raster", spy)
    out = tmp_path / "r.csv"
    cfg = str(CONFIGS / "deploy.yaml")
    assert main(["deploy", "--config", cfg, "--out", str(out)]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "raster cells" in ln]
    p = validate_config(Path(cfg).read_text()).scenario
    cells = math.prod(deploy.raster_shape(p["extent"], p["grid_resolution"]))
    metrics = [row.split(",")[1] for row in out.read_text().splitlines()[1:]]
    steps = metrics.count("greedy_site") - 1
    assert steps >= 1
    # one raster sight build per endpoint: every station, and every site
    # that some station sees (2 of the 3); a sweep is one endpoint and
    # obstacle
    seen = [site for site in p["candidate_sites"]
            if not all(any(deploy._segment_blocked(*st["position"], *site, rect)
                           for rect in p["obstacles"]) for st in p["base_stations"])]
    assert len(seen) == 2
    endpoints = len(p["base_stations"]) + len(seen)
    assert len(builds) == endpoints
    tested = sum(n for _, n in builds)
    assert 0 < tested < cells * len(p["obstacles"]) * endpoints
    assert lines == [f"INFO deploy: {cells} raster cells, {steps} greedy steps, "
                     f"{len(seen)} sites scored, "
                     f"{len(p['obstacles']) * endpoints} sight sweeps, "
                     f"{tested} cells slab-tested, "
                     f"{metrics.count('gain_scale')} breathing scales"]


@pytest.mark.parametrize("experiment, scales", [("coexist", 1), ("adjacent", 2), ("rank", None)])
def test_main_keyed_runners_log_their_draws_to_stderr(tmp_path, capsys, seeded_streams,
                                                      experiment, scales):
    cfg = str(CONFIGS / f"{experiment}.yaml")
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines()
             if "INFO rank:" in ln or "INFO stale CSI:" in ln]
    trials = validate_config(Path(cfg).read_text()).trials
    # one generator per draw kind, however many trials
    if scales is None:
        assert seeded_streams == ["rank/normals"]
        assert lines == [f"INFO rank: {trials} trials, 1 stream"]
    else:
        assert seeded_streams == ["stale/normals", "stale/uniforms"]
        assert lines == [f"INFO stale CSI: {trials} trials at {scales} bounce scales, 2 streams"]


@pytest.mark.parametrize("experiment, scenario, head, streams", [
    # one stream per size on Rayleigh channels, none on unit ones
    ("beamform", "channel: rayleigh, n_list: [4, 8]", "beamform: 3 trials, 2 sizes, 2 streams",
     ["beamform/4", "beamform/8"]),
    ("beamform", "channel: unit, n_list: [4, 8]", "beamform: 3 trials, 2 sizes, 0 streams", []),
    # one stream for every trial's own links and one for the access draws,
    # plus one for a shadowed B's surface state
    ("coexist", "mode: lbt, slots: 40", "lbt: 3 trials of 40 slots, 2 streams",
     ["lbt/normals", "lbt/access"]),
    ("coexist", "mode: lbt, slots: 40, b_direct_blocked: true",
     "lbt: 3 trials of 40 slots, 3 streams", ["lbt/normals", "lbt/uniforms", "lbt/access"]),
    ("coexist", "mode: lbt, slots: 40, rician_k: .inf",
     "lbt: 3 trials of 40 slots, 2 streams", ["lbt/normals", "lbt/access"]),
    # one stream per run: every user's hops, or the departure projection
    # and the direct block, trial after trial
    ("multiuser", "n_users: 2, n_elements: 4",
     r"multiuser: 9 ascents, \d+ sweeps, \d+ element steps, \d+ candidate capacities, "
     r"\d+ stopped at max_iters=30 without meeting rel_tol=1e-06, 1 stream",
     ["multiuser/normals"]),
    ("rank", "include_direct: true, ris_ue_rician_k: 2", "rank: 3 trials, 1 stream",
     ["rank/normals"]),
], ids=["beamform-rayleigh", "beamform-unit", "lbt", "lbt-shadowed", "lbt-los", "multiuser",
        "rank"])
def test_main_runners_log_the_streams_they_seed_to_stderr(tmp_path, capsys, seeded_streams,
                                                          experiment, scenario, head, streams):
    cfg = _cfg(tmp_path, f"experiment: {experiment}\ntrials: 3\nscenario: {{{scenario}}}\n")
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "stream" in ln]
    assert seeded_streams == streams
    assert len(lines) == 1 and re.fullmatch(f"INFO {head}", lines[0])


def _fresh_python(code, *args):
    """stdout of `code` run by a new interpreter on this checkout's sources."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120, check=True).stdout


def test_startup_leaves_numpy_random_unloaded():
    # numpy loads numpy.random lazily; importing it at start-up would add
    # to every run's set-up time
    code = ("import pathlib, sys\n"
            "import ris_sim.cli as cli\n"
            "paths = sorted(pathlib.Path(sys.argv[1]).glob('*.yaml'))\n"
            "for p in paths:\n"
            "    cli.validate_config(p.read_text())\n"
            "print(len(paths), 'numpy.random' in sys.modules)\n")
    assert _fresh_python(code, CONFIGS).split() == [str(len(EXPERIMENTS)), "False"]


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("given, pinned", [({}, ["1", "1", "1"]),
                                           ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])],
                         ids=["unset", "explicit"])
def test_the_cli_pins_blas_threads_before_numpy_loads(tmp_path, given, pinned):
    # the settings numpy sees when it first loads, and every shipped
    # config's CSV, whether BLAS is pinned to one thread or a user's
    # explicit setting keeps two
    code = ("import hashlib, importlib.abc, json, os, pathlib, sys\n"
            f"names = {_BLAS_VARS!r}\n"
            "seen = []\n"
            "class Spy(importlib.abc.MetaPathFinder):\n"
            "    def find_spec(self, name, path, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.append([os.environ.get(v) for v in names])\n"
            "sys.meta_path.insert(0, Spy())\n"
            "import ris_sim.cli as cli\n"
            "digests = {}\n"
            "for cfg in sorted(pathlib.Path(sys.argv[1]).glob('*.yaml')):\n"
            "    out = pathlib.Path(sys.argv[2]) / (cfg.stem + '.csv')\n"
            "    assert cli.main([cfg.stem, '--config', str(cfg), '--out', str(out)]) == 0\n"
            "    digests[cfg.stem] = hashlib.sha256(out.read_bytes()).hexdigest()\n"
            "print(json.dumps([seen, digests]))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env.update(given, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code, str(CONFIGS), str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300, check=True).stdout
    seen, digests = json.loads(out)
    assert seen == [pinned]
    golden = json.loads((Path(__file__).resolve().parent / "golden_digests.json").read_text())
    assert digests == {name: entry["csv"] for name, entry in golden.items()}


def test_importing_the_cli_after_numpy_leaves_the_blas_variables_unset():
    # BLAS has read its settings by then, so a pin would only reach the
    # importing process's subprocesses
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import os\nimport numpy\nimport ris_sim.cli\n"
            f"print([os.environ.get(v) for v in {_BLAS_VARS!r}])\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "[None, None, None]"


#: the ris_sim modules every config loads
_CORE_MODULES = {"ris_sim", "ris_sim.cli", "ris_sim.experiments", "ris_sim.channel",
                 "ris_sim.numkernel", "ris_sim.seeding"}

#: experiment -> (modules validation adds to the core, modules the run adds)
_QUESTION_MODULES = {
    "rank": ((), ()),
    "beamform": (("ris",), ("ris",)),
    "multiuser": ((), ("scheduler", "ris")),
    "coexist": (("coexist", "ris"), ("coexist", "ris")),
    "adjacent": (("coexist", "ris"), ("coexist", "ris")),
    "deploy": (("deploy",), ("deploy",)),
}


@pytest.mark.parametrize("experiment", sorted(_QUESTION_MODULES))
def test_a_run_loads_only_its_question_modules(tmp_path, experiment):
    # every process compiles and executes each module it imports, so
    # validation and the run load the core and their own question's modules
    code = ("import json, sys\n"
            "import ris_sim.cli as cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'ris_sim')\n"
            "cli.validate_config(open(sys.argv[2]).read())\n"
            "validated = loaded(), 'numpy.random' in sys.modules\n"
            "code = cli.main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]])\n"
            "print(json.dumps([*validated, loaded(), code]))\n")
    out = _fresh_python(code, experiment, CONFIGS / f"{experiment}.yaml", tmp_path / "r.csv")
    validated, random_loaded, ran, exit_code = json.loads(out)
    at_validation, at_run = _QUESTION_MODULES[experiment]
    assert set(validated) == _CORE_MODULES | {f"ris_sim.{m}" for m in at_validation}
    assert not random_loaded
    assert exit_code == 0
    assert set(ran) == _CORE_MODULES | {f"ris_sim.{m}" for m in at_run}


@pytest.mark.parametrize("seed_args", [[], ["--seed", "9"]], ids=["config-seed", "seed-flag"])
@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_one_cli_run_resolves_its_scenario_once(tmp_path, capsys, monkeypatch,
                                                experiment, seed_args):
    resolved, checked = [], []
    resolve, check = experiments.resolve_scenario, experiments.check_run

    def counted_resolve(*args):
        resolved.append(args[0])
        return resolve(*args)

    def counted_check(*args):
        checked.append(args)
        return check(*args)

    monkeypatch.setattr(experiments, "resolve_scenario", counted_resolve)
    for module in (experiments, cli):
        monkeypatch.setattr(module, "check_run", counted_check)
    cfg = str(CONFIGS / f"{experiment}.yaml")
    out = tmp_path / "r.csv"
    assert main([experiment, "--config", cfg, *seed_args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert resolved == [experiment]
    # --seed re-checks the seed it brings, and resolves nothing again
    assert len(checked) == 1 + len(seed_args) // 2
    if seed_args:
        assert checked[-1][0] == 9


def test_main_seed_override_lands_in_sidecar(tmp_path, capsys):
    cfg = _cfg(tmp_path, _SMALL_RANK)
    out = tmp_path / "res.csv"
    assert main(["rank", "--config", cfg, "--seed", "123", "--out", str(out)]) == 0
    capsys.readouterr()
    meta = json.loads((tmp_path / "res.meta.json").read_text())
    assert meta["seed"] == 123


def test_main_validation_failure_exits_one(tmp_path, capsys):
    cfg = _cfg(tmp_path, "experiment: rank\ntrails: 100\n")
    rc = main(["rank", "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "invalid config" in captured.err and "trails" in captured.err


def test_main_zero_rel_tol_exits_one(tmp_path, capsys):
    cfg = _cfg(tmp_path, "experiment: multiuser\nscenario:\n  rel_tol: 0\n")
    rc = main(["multiuser", "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "invalid config" in captured.err and "scenario.rel_tol" in captured.err


def test_main_multiuser_grid_points_exits_one(tmp_path, capsys):
    # the multiuser ascent's phase grid is fixed, not a config field
    cfg = _cfg(tmp_path, "experiment: multiuser\nscenario:\n  grid_points: 16\n")
    rc = main(["multiuser", "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "invalid config" in captured.err and "scenario.grid_points" in captured.err


def test_main_station_antennas_exit_one(tmp_path, capsys):
    # coverage is a per-station power budget; an antenna count enters no number
    cfg = _cfg(tmp_path, (
        "experiment: deploy\n"
        "scenario:\n"
        "  threshold_db: 24.0\n"
        "  base_stations:\n"
        "    - position: [10.0, 30.0]\n"
        "      tx_power_dbm: 30.0\n"
        "      antennas: 4\n"
    ))
    rc = main(["deploy", "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "invalid config" in captured.err
    assert "scenario.base_stations[0].antennas" in captured.err


def test_main_subcommand_must_match_experiment(tmp_path, capsys):
    cfg = _cfg(tmp_path, _SMALL_RANK)
    rc = main(["beamform", "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 1
    assert "rank" in captured.err and "beamform" in captured.err


def test_main_rejects_bad_thread_count(tmp_path, capsys):
    cfg = _cfg(tmp_path, _SMALL_RANK)
    rc = main(["rank", "--config", cfg, "--threads", "0"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "--threads" in captured.err


def test_main_reuses_its_parser_across_subcommands(tmp_path, capsys):
    # the parser is built once per process; each call still parses afresh
    rank = _cfg(tmp_path, _SMALL_RANK)
    beam = _cfg(tmp_path, "experiment: beamform\ntrials: 2\n", name="beam.yaml")
    assert main(["rank", "--config", rank, "--out", str(tmp_path / "r.csv")]) == 0
    assert main(["beamform", "--config", beam, "--seed", "4"]) == 0
    assert capsys.readouterr().out.startswith("trial,metric,value\n0,gain_n")
    assert main(["rank", "--config", rank, "--threads", "0"]) == 1
    assert "--threads" in capsys.readouterr().err
    assert (tmp_path / "r.csv").read_text().startswith("trial,metric,value\n0,rank,")


def test_main_unreadable_config_exits_two(tmp_path, capsys):
    rc = main(["rank", "--config", str(tmp_path / "missing.yaml")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "cannot read config" in captured.err


def test_main_unwritable_output_exits_two(tmp_path, capsys):
    cfg = _cfg(tmp_path, _SMALL_RANK)
    out = tmp_path / "no_such_dir" / "res.csv"
    rc = main(["rank", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "cannot write results" in captured.err


def test_main_bad_seed_text_is_a_usage_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, _SMALL_RANK)
    with pytest.raises(SystemExit) as err:
        main(["rank", "--config", cfg, "--seed", "twelve"])
    capsys.readouterr()
    assert err.value.code == 2


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_main_out_of_range_seed_is_a_config_error(tmp_path, capsys, seed):
    # the same rule as `seed:` in a config: exit 1, naming the field
    cfg = _cfg(tmp_path, _SMALL_RANK)
    rc = main(["rank", "--config", cfg, "--seed", seed])
    captured = capsys.readouterr()
    assert rc == 1
    assert "invalid config: seed" in captured.err
    assert captured.out == ""


# Values whose runs used to overflow (path gain, 2^bits phase levels, raster
# size, array dimensions), hit coincident nodes or write one beamform row
# twice; each now fails validation at its path.
@pytest.mark.parametrize("experiment, scenario, path", [
    ("rank", "{wavelength: 1.0e+300}", "scenario.wavelength"),
    ("coexist", "{wavelength: 1.0e+300}", "scenario.wavelength"),
    ("adjacent", "{wavelength: 1.0e+300}", "scenario.wavelength"),
    ("coexist", "{mode: lbt, slots: 3, wavelength: 2.0e+79}", "scenario.wavelength"),
    ("beamform", "{quantization_bits: [63]}", "scenario.quantization_bits[0]"),
    ("beamform", "{n_list: [4, 4]}", "scenario.n_list[1]"),
    ("beamform", "{n_list: [4], quantization_bits: [1, 2, 1]}",
     "scenario.quantization_bits[2]"),
    ("deploy", "{threshold_db: 24.0, grid_resolution: 1.0e-300}",
     "scenario.grid_resolution"),
    ("deploy", "{threshold_db: 24.0, extent: [0, 0, 1.0e+300, 1.0e+300]}",
     "scenario.extent"),
    ("deploy", "{threshold_db: 24.0, n_elements: 1" + "0" * 400 + "}", "scenario.n_elements"),
    ("coexist", f"{{mode: lbt, slots: 3, backoff_slots_max: {2**63}}}",
     "scenario.backoff_slots_max"),
    # slot counts whose per-slot draws numpy cannot hold
    ("coexist", f"{{mode: lbt, slots: {2**63}}}", "scenario.slots"),
    ("coexist", "{mode: lbt, slots: 1" + "0" * 30 + "}", "scenario.slots"),
    ("adjacent", "{filter_passes: 1" + "0" * 400 + "}", "scenario.filter_passes"),
    ("rank", "{ris_position: [0, 0, 10]}", "scenario.ris_position"),
    # counts that would make a block with more entries than numpy can index
    ("rank", "{n_elements: 1" + "0" * 30 + "}", "scenario.n_elements"),
    ("beamform", "{n_list: [4, 1" + "0" * 30 + "]}", "scenario.n_list[1]"),
    ("multiuser", "{n_users: 1" + "0" * 30 + "}", "scenario.n_users"),
    ("coexist", "{n_elements_a: 1" + "0" * 30 + "}", "scenario.n_elements_a"),
    ("coexist", "{m_antennas: 1" + "0" * 30 + "}", "scenario.m_antennas"),
    ("adjacent", "{n_elements_a: 1" + "0" * 30 + "}", "scenario.n_elements_a"),
    # an element of one array on an element of the other, on a link that
    # builds a LoS block and whose wavefront is or resolves to spherical:
    # the incident hop, and the departure hop at a Rician factor above 0
    ("rank", "{wavefront: spherical, m_antennas: 2, n_elements: 4, "
             "nb_position: [0, 0, 10], ris_position: [0, 0, 10.1]}", "scenario.ris_position"),
    ("rank", "{wavefront: spherical, m_antennas: 2, u_antennas: 2, n_elements: 4, "
             "ue_position: [50, 0, 10.1], ris_ue_rician_k: 2}", "scenario.ue_position"),
    # integers too large for a float, in a float field of each experiment
    # that has one (beamform's fields are all counts and choices)
    ("rank", "{wavelength: 1" + "0" * 400 + "}", "scenario.wavelength"),
    ("rank", "{nb_position: [1" + "0" * 400 + ", 0, 0]}", "scenario.nb_position[0]"),
    ("multiuser", "{noise_power: 1" + "0" * 400 + "}", "scenario.noise_power"),
    ("coexist", "{tx_power_a: 1" + "0" * 400 + "}", "scenario.tx_power_a"),
    ("adjacent", "{oob_attenuation_db: 1" + "0" * 400 + "}", "scenario.oob_attenuation_db"),
    ("deploy", "{threshold_db: 1" + "0" * 400 + "}", "scenario.threshold_db"),
    # a distance whose norm overflows, and a phase d / lambda that does
    ("rank", "{nb_position: [1.0e+300, 0, 0]}", "scenario.nb_position"),
    ("coexist", "{ue_b_position: [-1.0e+300, 0, 0]}", "scenario.ue_b_position"),
    ("rank", "{wavelength: 5.0e-324}", "scenario.wavelength"),
    ("adjacent", "{wavelength: 5.0e-324}", "scenario.wavelength"),
    ("coexist", "{mode: lbt, slots: 3, wavelength: 5.0e-324}", "scenario.wavelength"),
    # a route gain over the noise, or the transmit power times it, past
    # MAX_ROUTE_SNR: these runs reached an infinite or NaN rate and exited 2
    ("multiuser", "{noise_power: 5.0e-324}", "scenario.noise_power"),
    ("coexist", "{noise_power: 5.0e-324}", "scenario.noise_power"),
    ("adjacent", "{noise_power: 5.0e-324}", "scenario.noise_power"),
    ("coexist", "{mode: lbt, slots: 20, noise_power: 5.0e-324}", "scenario.noise_power"),
    ("coexist", "{tx_power_b: 1.7e+308}", "scenario.tx_power_b"),
    ("adjacent", "{tx_power_b: 1.7e+308}", "scenario.tx_power_b"),
    # a transmit power and a noise power both near the float maximum: every
    # route's gain over the noise stays under the bound, but the power
    # times the gain does not, and these runs overflowed the water level
    # or the Gram matrix and exited 2
    ("multiuser", "{power_per_user: 1.7e+308, noise_power: 1.0e+308, max_iters: 2}",
     "scenario.power_per_user"),
    ("coexist", "{tx_power_b: 1.7e+308, noise_power: 1.7e+308, wavelength: 700}",
     "scenario.tx_power_b"),
    # finite hop gains whose route scale, a transmit power times the
    # surface's element count, overflows: named at the power, not the
    # wavelength
    ("coexist", "{mode: lbt, slots: 3, tx_power_a: 1.7e+308}", "scenario.tx_power_a"),
])
def test_extreme_magnitudes_exit_one_at_their_path(tmp_path, capsys, experiment,
                                                   scenario, path):
    cfg = _cfg(tmp_path, f"experiment: {experiment}\nscenario: {scenario}\n")
    rc = main([experiment, "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"invalid config: {path}:" in captured.err
    assert "Traceback" not in captured.err


def test_a_spherical_block_whose_distances_do_not_fit_exits_one_at_its_largest_count(
        tmp_path, capsys, monkeypatch):
    # 2^40 elements make a block numpy can index, but its element distances
    # would take terabytes; the MemoryError is raised here without asking
    # for them, in the runtime too, should the validator let the block by
    def refuse(*args):
        raise MemoryError("Unable to allocate 24.0 TiB")

    monkeypatch.setattr(experiments, "element_distances", refuse)
    monkeypatch.setattr(channel, "element_distances", refuse)
    cfg = _cfg(tmp_path, "experiment: rank\nscenario: {wavefront: spherical, "
                         f"n_elements: {2**40}, m_antennas: 1, u_antennas: 1}}\n")
    rc = main(["rank", "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 1
    assert (f"invalid config: scenario.n_elements: {2**40} makes a {2**40} x 1 block, "
            "whose element distances do not fit in memory") in captured.err
    assert "Traceback" not in captured.err


#: a YAML list nested 5000 deep: its full repr overflows the stack
_DEEP_LIST = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize("text, path", [
    (f"experiment: rank\nscenario: {{nb_position: {_DEEP_LIST}}}\n", "scenario.nb_position: "),
    (f"experiment: rank\nscenario: {_DEEP_LIST}\n", "scenario: "),
    (f"{_DEEP_LIST}\n", "expected a mapping at top level, "),
], ids=["field", "scenario", "document"])
def test_a_deeply_nested_value_exits_one_at_its_path(tmp_path, capsys, text, path):
    # the message quotes the rejected value through `reprlib.repr`
    rc = main(["rank", "--config", _cfg(tmp_path, text)])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"invalid config: {path}" in captured.err
    assert "[[[[[[[...]]]]]]]" in captured.err
    assert "Traceback" not in captured.err


# YAML values PyYAML resolves but Python cannot build: an integer past the
# interpreter's 4300-digit limit for str to int, and a date without a month
@pytest.mark.parametrize("text", [
    "experiment: rank\nscenario: {wavelength: 1" + "0" * 5000 + "}\n",
    "experiment: rank\nscenario: {wavelength: 2024-13-45}\n",
    "experiment: rank\nseed: 2024-13-45\n",
], ids=["5001-digit-wavelength", "date-wavelength", "date-seed"])
def test_values_python_cannot_build_exit_one(tmp_path, capsys, text):
    rc = main(["rank", "--config", _cfg(tmp_path, text)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "invalid config: a value cannot be read: " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def _rows(path):
    return [(m, float(v)) for _, m, v in (row.split(",") for row in
                                          path.read_text().splitlines()[1:])]


@pytest.mark.parametrize("experiment, scenario", [
    ("coexist", "{noise_power: 1.0e+300}"),
    ("coexist", "{noise_power: 1.7e+308}"),
    ("adjacent", "{noise_power: 1.0e+300}"),
    ("adjacent", "{noise_power: 1.7e+308}"),
    ("coexist", "{mode: lbt, slots: 20, noise_power: 1.0e+300}"),
])
def test_noise_past_every_mode_gain_gives_zero_rates(tmp_path, capsys, experiment, scenario):
    # each mode's gain over the noise is so small that its inverse
    # overflows a float: water-filling counts it unusable, so no rate
    cfg = _cfg(tmp_path, f"experiment: {experiment}\ntrials: 2\nscenario: {scenario}\n")
    out = tmp_path / "r.csv"
    assert main([experiment, "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    rates = [v for m, v in _rows(out) if "rate" in m]
    # two trials of two rates: fresh and stale, unfiltered and filtered, or A's and B's
    assert rates == [0.0] * 4
    assert all(v == 0.0 for m, v in _rows(out) if m.startswith("loss"))


def _failed_rank_run_writes_nothing(tmp_path, capsys, monkeypatch, blocks, error):
    """A rank run whose builder returns `blocks` exits 2 with `error`
    logged, writing no file and nothing to stdout."""
    record = replace(EXPERIMENTS["rank"], build=lambda p, seed, trials: blocks)
    monkeypatch.setitem(experiments.EXPERIMENTS, "rank", record)
    cfg = _cfg(tmp_path, "experiment: rank\ntrials: 1\n")
    out = tmp_path / "r.csv"
    assert main(["rank", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"ERROR experiment failed: {error}" in captured.err
    assert not out.exists() and captured.out == ""
    assert main(["rank", "--config", cfg]) == 2
    assert capsys.readouterr().out == ""


def test_a_run_with_a_nonfinite_value_exits_two(tmp_path, capsys, monkeypatch):
    # no valid config is known to reach an infinite or NaN rate; a runner
    # that made one is named with its trial and metric, and no table is
    # written
    _failed_rank_run_writes_nothing(tmp_path, capsys, monkeypatch,
                                    [{"rank": [1.0], "sigma_1": [math.inf]}],
                                    "trial 0: sigma_1 is inf, not a finite number")


def test_a_run_with_columns_of_unequal_length_exits_two(tmp_path, capsys, monkeypatch):
    _failed_rank_run_writes_nothing(tmp_path, capsys, monkeypatch,
                                    [{"rank": [1, 1], "sigma_1": [1.0]}],
                                    "columns of unequal length: {'rank': 2, 'sigma_1': 1}")


# Every field of every experiment's shipped config, one at a time, at
# each of these values, with `trials: 1`: the run exits 0 or 1 and raises
# nothing.
_WALK_VALUES = (0, 1, -1, 5e-324, 1e300, 1.7e308, math.inf, -math.inf, math.nan,
                2**63, 10**30, 10**400, True, "text", [1], None)

#: fields whose count is a loop's length, capped by nothing but time: a
#: large count there is run only where validation rejects it
_LOOP_FIELDS = ("slots", "max_iters")


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_every_field_at_extreme_values_exits_zero_or_one(tmp_path, capsys, experiment):
    shipped = yaml.safe_load((CONFIGS / f"{experiment}.yaml").read_text())
    cfg = tmp_path / "cfg.yaml"
    exits = {}
    for field in EXPERIMENTS[experiment].fields:
        for value in _WALK_VALUES:
            text = yaml.safe_dump({**shipped, "trials": 1,
                                   "scenario": {**shipped["scenario"], field: value}})
            if field in _LOOP_FIELDS and type(value) is int and value > 1000:
                try:
                    validate_config(text)
                except ConfigError:
                    pass
                else:
                    continue
            cfg.write_text(text)
            rc = main([experiment, "--config", str(cfg)])
            capsys.readouterr()
            exits[field, repr(value)] = rc
    assert {key: rc for key, rc in exits.items() if rc not in (0, 1)} == {}
    assert 0 in exits.values() and 1 in exits.values()


def test_lbt_gain_only_hops_need_no_finite_phase(tmp_path, capsys):
    # the two base stations hear each other only as a path gain, so a
    # phase 2 pi d / lambda that overflows between them alone still runs
    cfg = _cfg(tmp_path, "experiment: coexist\nscenario: {mode: lbt, slots: 3, "
                         "wavelength: 1.0e-300, ris_a_position: [0, 0, 0], "
                         "nb_a_position: [1.5e+7, 0, 0], ue_a_position: [1, 0, 0], "
                         "nb_b_position: [-1.5e+7, 0, 0], ue_b_position: [-1, 0, 0]}\n")
    assert main(["coexist", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()


def test_deploy_element_count_beyond_any_array_runs(tmp_path, capsys):
    # the count enters only the panel gain, so a count no array could
    # hold still runs
    cfg = _cfg(tmp_path, "experiment: deploy\nscenario:\n  threshold_db: 24.0\n"
                         "  n_elements: 100000000000000000000000000\n")
    out = tmp_path / "r.csv"
    assert main(["deploy", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert [float(v) for _, m, v in rows if m == "greedy_coverage"][-1] >= 0.95


@pytest.mark.parametrize("experiment, scenario", [
    # the widest backoff numpy's int64 draw takes; at the default threshold
    # every contended slot defers, so it is drawn
    ("coexist", f"{{mode: lbt, slots: 40, backoff_slots_max: {2**63 - 1}}}"),
    # the largest pass count that converts to a float
    ("adjacent", f"{{filter_passes: {int(sys.float_info.max)}}}"),
])
def test_counts_at_their_largest_accepted_value_run(tmp_path, capsys, experiment, scenario):
    cfg = _cfg(tmp_path, f"experiment: {experiment}\ntrials: 2\nscenario: {scenario}\n")
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("experiment, scenario", [
    ("coexist", "{nb_b_position: [40, 0, 12.1]}"),
    ("coexist", "{mode: lbt, slots: 20, nb_a_position: [40, 0, 12.1], "
                "nb_b_position: [40, 0, 11.9]}"),
    ("adjacent", "{nb_b_position: [40, 0, 12.1]}"),
])
def test_coexistence_links_run_with_coincident_elements(tmp_path, capsys, experiment,
                                                        scenario):
    # these runners build every link with the planar wavefront, which needs
    # only distinct nodes, so the rank rule on coincident elements does not
    # apply to them and what validates runs
    cfg = _cfg(tmp_path, f"experiment: {experiment}\ntrials: 2\nscenario: {scenario}\n")
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("scenario", [
    "{wavefront: auto, include_direct: true, nb_position: [0, 0, 10], "
    "ue_position: [0, 0, 10.1]}",
    "{wavefront: spherical, m_antennas: 2, u_antennas: 2, n_elements: 4, "
    "ue_position: [50, 0, 10.1]}",
])
def test_rank_links_without_a_los_block_run_with_coincident_elements(tmp_path, capsys,
                                                                     scenario):
    # the direct link and a departure hop of Rician factor 0 are Rayleigh
    # and build only their path gains, which need only distinct nodes
    cfg = _cfg(tmp_path, f"experiment: rank\ntrials: 2\nscenario: {scenario}\n")
    assert main(["rank", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("experiment", ["coexist", "adjacent"])
def test_unknown_policy_exits_one_with_the_runtime_choices(tmp_path, capsys, experiment):
    cfg = _cfg(tmp_path, f"experiment: {experiment}\nscenario: {{policy: sometimes}}\n")
    assert main([experiment, "--config", cfg]) == 1
    assert (f"invalid config: scenario.policy: must be one of {coexist.UPDATE_POLICIES}, "
            "got 'sometimes'") in capsys.readouterr().err


def test_widest_quantization_still_runs(tmp_path, capsys):
    cfg = _cfg(tmp_path, "experiment: beamform\nscenario:\n  n_list: [4]\n"
                         "  quantization_bits: [62]\n")
    assert main(["beamform", "--config", cfg]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("bits", [52, 53, 62])
def test_wide_quantization_runs_on_rayleigh_channels(tmp_path, capsys, bits):
    # past 2^52 levels a float division can no longer confirm that a phase
    # sits on the grid; the quantizer's output is used as it is, and at
    # these widths quantizing costs no measurable gain
    cfg = _cfg(tmp_path, "experiment: beamform\nseed: 3\ntrials: 40\nscenario:\n"
                         "  channel: rayleigh\n  n_list: [1, 2, 3, 17, 1024]\n"
                         f"  quantization_bits: [{bits}]\n")
    out = tmp_path / "r.csv"
    assert main(["beamform", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    ratios = [float(v) for _, m, v in (row.split(",") for row in out.read_text().splitlines()[1:])
              if m.startswith("ratio_")]
    assert len(ratios) == 40 * 5
    assert max(abs(r - 1.0) for r in ratios) <= 1e-12


# ---------------------------------------------------------------------------
# rank at every --threads value

#: near field, with the direct link and a finite Rician factor, so that the
#: run draws both scattered links
_THREADED_RANK = ("experiment: rank\nseed: 11\ntrials: 7\nscenario:\n"
                  "  m_antennas: 3\n  u_antennas: 2\n  n_elements: 48\n"
                  "  wavefront: spherical\n  include_direct: true\n  ris_ue_rician_k: 2.5\n")


def test_rank_tables_match_at_every_thread_count(tmp_path, capsys):
    # --threads is accepted and checked, and every run is one thread
    cfg = _cfg(tmp_path, _THREADED_RANK)
    tables, lines = [], []
    for threads in (1, 2, 3, 8):
        before = threading.active_count()
        out = tmp_path / f"t{threads}.csv"
        assert main(["rank", "--config", cfg, "--threads", str(threads),
                     "--out", str(out)]) == 0
        assert threading.active_count() == before
        tables.append(out.read_bytes())
        lines += [ln for ln in capsys.readouterr().err.splitlines() if "INFO rank:" in ln]
    assert tables == [tables[0]] * 4
    # every trial draws its ris_ue projection and its nb_ue block from the
    # run's one stream; nb_ris is pure LoS
    assert lines == ["INFO rank: 7 trials, 1 stream"] * 4


class _CountingExecutor:
    """Stands in for a pool executor: records the workers asked for and
    runs each submitted call at once, starting no thread or process."""

    def __init__(self, requested, max_workers=None, *args, **kwargs):
        requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        future = concurrent.futures.Future()
        future.set_result(fn(*args, **kwargs))
        return future


@pytest.mark.parametrize("cpus", [None, 3, 10**6])
def test_huge_thread_count_asks_for_no_more_workers_than_trials_and_cpus(
        tmp_path, capsys, monkeypatch, cpus):
    # every run is one thread: whatever the CPU count, a huge --threads
    # asks no pool for a worker and starts no thread
    if cpus is not None:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(cpus), raising=False)
    requested = []
    for pool in ("ThreadPoolExecutor", "ProcessPoolExecutor"):
        monkeypatch.setattr(concurrent.futures, pool,
                            functools.partial(_CountingExecutor, requested))
    cfg = _cfg(tmp_path, _THREADED_RANK)
    before = threading.active_count()
    assert main(["rank", "--config", cfg, "--threads", "1000000",
                 "--out", str(tmp_path / "many.csv")]) == 0
    assert threading.active_count() == before
    assert requested == []
    assert "INFO rank: 7 trials, 1 stream" in capsys.readouterr().err
    assert main(["rank", "--config", cfg, "--out", str(tmp_path / "one.csv")]) == 0
    capsys.readouterr()
    assert (tmp_path / "many.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
