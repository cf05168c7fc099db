"""Config validation and the command-line entry point."""

import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from ris_sim import deploy, experiments, seeding
from ris_sim.cli import ConfigError, _Loader, main, run_experiment, validate_config
from ris_sim.experiments import RUNNERS

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
    text = "experiment: multiuser\nscenario:\n  noise_power: 1e-13\n  power_per_user: 1.0e300\n"
    cfg = validate_config(text)
    assert cfg.scenario["noise_power"] == 1e-13
    assert cfg.scenario["power_per_user"] == 1.0e300


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
def test_shipped_configs_load_as_under_yaml_11(config):
    text = config.read_text()
    assert yaml.load(text, Loader=_Loader) == yaml.safe_load(text)


# The same scenario through a library runner and through the config file
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
    via_cli = run_experiment(validate_config(_config_text(experiment, good)))
    via_lib = RUNNERS[experiment](good, 3, 2)
    assert via_lib.to_csv() == via_cli.to_csv()
    assert via_lib.metadata == via_cli.metadata
    with pytest.raises(ConfigError) as lib_err:
        RUNNERS[experiment](bad, 3, 2)
    with pytest.raises(ConfigError) as cli_err:
        validate_config(_config_text(experiment, bad))
    assert lib_err.value.path == cli_err.value.path == path


# (seed, trials) pairs both entry points reject, and the path they name.
_BAD_RUNS = [(-1, 1, "seed"), (1 << 64, 1, "seed"), (1.5, 1, "seed"),
             (0, 0, "trials"), (0, True, "trials")]


@pytest.mark.parametrize("experiment", sorted(_PARITY))
@pytest.mark.parametrize("seed, trials, path", _BAD_RUNS)
def test_library_runner_and_cli_check_seed_and_trials_alike(experiment, seed, trials, path):
    good = _PARITY[experiment][0]
    with pytest.raises(ConfigError) as lib_err:
        RUNNERS[experiment](good, seed, trials)
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
    compare = experiments.compare_shared_vs_ideal

    def spy(*args):
        out = compare(*args)
        traces.extend(t for cmp in out for t in cmp.traces)
        return out

    monkeypatch.setattr(experiments, "compare_shared_vs_ideal", spy)
    cfg = _cfg(tmp_path, "experiment: multiuser\ntrials: 4\nscenario:\n  n_users: 3\n"
                         f"  n_elements: 6\n  max_iters: {max_iters}\n")
    assert main(["multiuser", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "ascents" in ln]
    sweeps = [len(t) - 1 for t in traces]
    # an ascent stopped at the cap when its last sweep still gained more
    # than the 1e-6 tolerance
    capped = sum(s == max_iters and t[-1] - t[-2] > 1e-6 * abs(t[-2])
                 for s, t in zip(sweeps, traces))
    assert len(traces) == 4 * (3 + 1)
    assert (capped > 0) == (max_iters == 1)
    assert lines == [f"INFO multiuser: 16 ascents, {sum(sweeps)} sweeps, {capped} stopped "
                     f"at max_iters={max_iters} without meeting rel_tol=1e-06"]


def test_main_deploy_logs_its_work_to_stderr(tmp_path, capsys, monkeypatch):
    sweeps = []
    segment_blocked = deploy._segment_blocked

    def spy(*args):
        sweeps.append(args)
        return segment_blocked(*args)

    monkeypatch.setattr(deploy, "_segment_blocked", spy)
    out = tmp_path / "r.csv"
    cfg = str(CONFIGS / "deploy.yaml")
    assert main(["deploy", "--config", cfg, "--out", str(out)]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "raster cells" in ln]
    p = validate_config(Path(cfg).read_text()).scenario
    cells = math.prod(deploy.raster_shape(p["extent"], p["grid_resolution"]))
    metrics = [row.split(",")[1] for row in out.read_text().splitlines()[1:]]
    steps = metrics.count("greedy_site") - 1
    assert steps >= 1
    # one sweep per obstacle and endpoint: every station, and every site
    # once greedy has scored them all
    endpoints = len(p["base_stations"]) + len(p["candidate_sites"])
    assert len(sweeps) == len(p["obstacles"]) * endpoints
    assert lines == [f"INFO deploy: {cells} raster cells, {steps} greedy steps, "
                     f"{len(p['candidate_sites'])} sites scored, {len(sweeps)} sight sweeps, "
                     f"{metrics.count('gain_scale')} breathing scales"]


@pytest.mark.parametrize("experiment, scales", [("coexist", 1), ("adjacent", 2), ("rank", None)])
def test_main_keyed_runners_log_their_draws_to_stderr(tmp_path, capsys, monkeypatch,
                                                      experiment, scales):
    draws, passes = [], []
    init, getitem, subseeds = (seeding.KeyedStreams.__init__,
                               seeding.KeyedStreams.__getitem__, seeding.subseeds)

    def spy_init(self, *args):
        passes.append("states")
        init(self, *args)

    def spy_getitem(self, index):
        draws.append(index)
        return getitem(self, index)

    def spy_subseeds(*args):
        passes.append("keys")
        return subseeds(*args)

    monkeypatch.setattr(seeding.KeyedStreams, "__init__", spy_init)
    monkeypatch.setattr(seeding.KeyedStreams, "__getitem__", spy_getitem)
    monkeypatch.setattr(seeding, "subseeds", spy_subseeds)
    cfg = str(CONFIGS / f"{experiment}.yaml")
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "keyed draws" in ln]
    trials = validate_config(Path(cfg).read_text()).trials
    # every stream is keyed in a few vectorized passes, however many trials
    assert len(draws) >= trials and len(passes) <= 5
    if scales is None:
        head = f"INFO rank: {trials} trials"
    else:
        head = f"INFO stale CSI: {trials} trials at {scales} bounce scales"
    assert lines == [f"{head}, {len(draws)} keyed draws, {len(passes)} stacked passes"]


def test_startup_leaves_numpy_random_unloaded():
    # numpy loads numpy.random lazily; importing it at start-up would add
    # to every run's set-up time
    code = ("import pathlib, sys\n"
            "import ris_sim.cli as cli\n"
            "paths = sorted(pathlib.Path(sys.argv[1]).glob('*.yaml'))\n"
            "for p in paths:\n"
            "    cli.validate_config(p.read_text())\n"
            "print(len(paths), 'numpy.random' in sys.modules)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-c", code, str(CONFIGS)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert res.stdout.split() == [str(len(RUNNERS)), "False"]


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


# Values whose runs used to overflow (path gain, 2^bits phase levels, raster
# size), hit coincident nodes or write one beamform row twice; each now fails
# validation at its path.
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
    ("rank", "{ris_position: [0, 0, 10]}", "scenario.ris_position"),
])
def test_extreme_magnitudes_exit_one_at_their_path(tmp_path, capsys, experiment,
                                                   scenario, path):
    cfg = _cfg(tmp_path, f"experiment: {experiment}\nscenario: {scenario}\n")
    rc = main([experiment, "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"invalid config: {path}:" in captured.err


def test_widest_quantization_still_runs(tmp_path, capsys):
    cfg = _cfg(tmp_path, "experiment: beamform\nscenario:\n  n_list: [4]\n"
                         "  quantization_bits: [62]\n")
    assert main(["beamform", "--config", cfg]) == 0
    capsys.readouterr()
