"""Result tables, output files, and the named experiment runners."""

import json
import math
import re
import reprlib
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import ris_sim
from ris_sim import coexist, experiments, numkernel
from ris_sim.channel import GeometryError
from ris_sim.cli import main
from ris_sim.experiments import (
    MULTIUSER_CHUNK,
    ConfigError,
    ResultTable,
    _rank_scenario,
    config_digest,
    prepare,
    resolve_scenario,
    run,
    write_outputs,
)
from ris_sim.seeding import complex_normal, rng_from, subseed


def _toy_table():
    return ResultTable(
        rows=((0, "rank", 1), (0, "sigma_1", 1.0 / 3.0), (1, "rank", 1)),
        metadata={"experiment": "toy", "seed": 0, "trials": 2,
                  "tool_version": "0", "config_sha256": "ab" * 32},
    )


# ---------------------------------------------------------------------------
# table serialization


def test_csv_header_and_line_endings():
    text = _toy_table().to_csv()
    lines = text.split("\n")
    assert lines[0] == "trial,metric,value"
    assert "\r" not in text
    assert text.endswith("\n")
    assert len(lines) == 5  # header + 3 rows + trailing empty piece


def test_csv_17_significant_digits():
    text = _toy_table().to_csv()
    assert "0.33333333333333331" in text
    # integers stay integers, no float formatting applied
    assert text.split("\n")[1] == "0,rank,1"


def test_row_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        ResultTable(
            rows=((0, "rank"),),
            metadata={},
        )


def test_unsupported_cell_type_rejected():
    with pytest.raises(TypeError):
        ResultTable(
            rows=((0, "rank", [1, 2]),),
            metadata={},
        )


def test_json_mirror_round_trips():
    table = _toy_table()
    doc = json.loads(table.to_json())
    assert [c["name"] for c in doc["columns"]] == ["trial", "metric", "value"]
    assert doc["rows"][1] == [0, "sigma_1", 1.0 / 3.0]
    assert doc["metadata"]["experiment"] == "toy"
    assert table.to_json().endswith("\n")


_SPECIAL_CELLS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072e-308,
                  True, False, 2**53 + 1, -(2**64), 'q"uo\\te', "ctl\x00\x1f\n\t",
                  "été ∠ 😀", "]\x00[")
_cells = st.one_of(st.floats(allow_subnormal=True), st.booleans(),
                   st.integers(-(2**70), 2**70), st.text(max_size=8))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(_cells, _cells, _cells), max_size=6))
# every special cell in every column, then the empty table
@example(rows=[(_SPECIAL_CELLS * 2)[i:i + 3] for i in range(len(_SPECIAL_CELLS))])
@example(rows=[])
def test_json_mirror_equals_json_dumps(rows):
    table = ResultTable(rows=tuple(rows), metadata={"experiment": "toy", "note": "\x7f\"é"})
    doc = {
        "columns": [{"name": "trial", "unit": ""}, {"name": "metric", "unit": ""},
                    {"name": "value", "unit": "per metric"}],
        "rows": [list(r) for r in table.rows],
        "metadata": table.metadata,
    }
    assert table.to_json() == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_numpy_scalars_collapse_to_plain_values():
    table = ResultTable(
        rows=((0, "plain", 0.25), (np.int64(3), "x", np.float64(0.5)),
              (1, "flag", np.bool_(True))),
        metadata={},
    )
    assert table.rows == ((0, "plain", 0.25), (3, "x", 0.5), (1, "flag", True))
    assert [type(v) for row in table.rows for v in row] == [int, str, float] * 2 + [int, str, bool]
    assert table.to_csv().endswith("3,x,0.5\n1,flag,True\n")


# ---------------------------------------------------------------------------
# digests and files


def test_config_digest_order_insensitive():
    a = config_digest({"x": 1, "y": [1, 2]})
    b = config_digest({"y": [1, 2], "x": 1})
    assert a == b
    assert len(a) == 64 and int(a, 16) >= 0


def test_config_digest_sensitive_to_values():
    assert config_digest({"x": 1}) != config_digest({"x": 2})


def test_write_outputs_csv_json_and_sidecar(tmp_path):
    table = _toy_table()
    out = tmp_path / "results.csv"
    csv_path, json_path, meta_path = write_outputs(table, str(out))
    assert csv_path == str(out)
    assert json_path == str(tmp_path / "results.json")
    assert meta_path == str(tmp_path / "results.meta.json")
    assert out.read_bytes() == table.to_csv().encode("utf-8")
    meta = json.loads((tmp_path / "results.meta.json").read_text())
    assert meta == table.metadata
    assert meta["config_sha256"] == "ab" * 32


def test_write_outputs_keeps_non_csv_stem(tmp_path):
    out = tmp_path / "run.dat"
    _, json_path, meta_path = write_outputs(_toy_table(), str(out))
    assert json_path.endswith("run.dat.json")
    assert meta_path.endswith("run.dat.meta.json")


def test_rewrite_into_an_existing_path_leaves_no_stale_tail(tmp_path):
    long_table = run(prepare("rank", {}, seed=0, trials=3))
    short = _toy_table()
    fresh = write_outputs(short, str(tmp_path / "fresh.csv"))
    longer = write_outputs(long_table, str(tmp_path / "reused.csv"))
    sizes = [Path(p).stat().st_size for p in longer]
    reused = write_outputs(short, str(tmp_path / "reused.csv"))
    assert all(Path(p).stat().st_size < n for p, n in zip(reused, sizes))
    for old, new in zip(fresh, reused):
        assert Path(new).read_bytes() == Path(old).read_bytes()


# ---------------------------------------------------------------------------
# runners


def test_rank_runner_collapses_to_rank_one():
    table = run(prepare("rank", {}, seed=2024, trials=100))
    ranks = [v for _, m, v in table.rows if m == "rank"]
    assert len(ranks) == 100
    assert all(r == 1 for r in ranks)


def test_rank_runner_takes_one_stacked_svd_per_run(tmp_path, capsys, monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    # the incident block's factors, then one spectrum stack of all trials
    run(prepare("rank", {}, seed=3, trials=5))
    assert calls == [((64, 4), True), ((5, 4, 4), False)]
    calls.clear()
    cfg = tmp_path / "rank.yaml"
    cfg.write_text("experiment: rank\nseed: 3\ntrials: 5\n")
    assert main(["rank", "--config", str(cfg), "--threads", "2",
                 "--out", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()
    assert calls == [((64, 4), True), ((5, 4, 4), False)]


def _rank_columns(table):
    return [np.array([v for _, m, v in table.rows if m == name])
            for name in ("rank", "sigma_1", "sigma_2")]


@pytest.mark.parametrize("direct", [False, True])
@pytest.mark.parametrize("n", [3, 64])
@pytest.mark.parametrize("wavefront", ["planar", "spherical"])
@pytest.mark.parametrize("k", [0.0, 2.0, math.inf])
def test_rank_projection_draw_matches_the_full_draw_in_distribution(k, wavefront, n, direct):
    # N = 3 < M puts the whole departure hop in the incident block's span;
    # N = 64 projects it onto 4 of 64 dimensions
    scenario = {"m_antennas": 4, "u_antennas": 4, "n_elements": n, "wavefront": wavefront,
                "ris_ue_rician_k": k, "include_direct": direct}
    trials = 2000
    _, s1, s2 = _rank_columns(run(prepare("rank", scenario, seed=41, trials=trials)))
    full = oracles.rank_spectra_full_draw(scenario, seed=42, trials=trials)
    # a deterministic channel has no spread, and the two routes round it
    # differently; rounding sits far below this floor
    floor = 1e-9 * full[:, 0].mean()
    for new, old in ((s1, full[:, 0]), (s2, full[:, 1])):
        se = math.sqrt((new.var(ddof=1) + old.var(ddof=1)) / trials)
        assert abs(new.mean() - old.mean()) <= 5.0 * se + floor


@pytest.mark.parametrize("wavefront", ["planar", "spherical"])
@pytest.mark.parametrize("n", [3, 64])
def test_projection_through_the_incident_factors_is_the_product(wavefront, n):
    scn = _rank_scenario(resolve_scenario("rank", {"n_elements": n, "wavefront": wavefront}))
    g = scn.los_nb_ris
    fac = numkernel.svd(g)
    assert fac.left_vectors.shape == (n, min(n, 4))
    h = complex_normal(rng_from(7, f"projection/{n}"), (4, n))
    split = (h @ fac.left_vectors) @ (fac.singular_values[:, None] * fac.right_vectors.conj().T)
    whole = h @ g
    assert np.linalg.norm(split - whole) <= 1e-12 * np.linalg.norm(whole)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(counts=st.tuples(*[st.integers(1, 4)] * 3),
       wavefront=st.sampled_from(["auto", "planar", "spherical"]),
       k=st.sampled_from([0.0, 2.0, math.inf]), direct=st.booleans(),
       offsets=st.tuples(*[st.tuples(st.sampled_from([0.0, 3.0]), st.integers(-4, 4))] * 2))
# the incident hop's elements coincide; the departure hop's, only at K > 0
@example(counts=(2, 4, 1), wavefront="spherical", k=0.0, direct=False,
         offsets=((0.0, 1), (0.0, 1)))
@example(counts=(1, 1, 2), wavefront="auto", k=2.0, direct=True,
         offsets=((0.0, 2), (0.0, 3)))
def test_rank_validator_rejects_exactly_the_links_the_runtime_refuses(counts, wavefront, k,
                                                                      direct, offsets):
    # nodes on one another's element lattice, a whole number of quarter
    # wavelengths apart along z (exact in binary at a 1 m wavelength), and
    # off the base station's line by 0 or 3 m
    m, n, u = counts
    scenario = {"m_antennas": m, "n_elements": n, "u_antennas": u, "wavelength": 1.0,
                "wavefront": wavefront, "ris_ue_rician_k": k, "include_direct": direct,
                "nb_position": [0.0, 0.0, 10.0]}
    for node, (x, steps) in zip(("ris", "ue"), offsets):
        scenario[f"{node}_position"] = [x, 0.0, 10.0 + 0.25 * steps]
    fields = experiments.EXPERIMENTS["rank"].fields
    try:
        _rank_scenario({**{key: default for key, (default, _) in fields.items()}, **scenario})
    except GeometryError as exc:
        # "nodes 'a' and 'b' coincide" or "coincident element positions
        # between 'a' and 'b'": the first link built that fails, from a to b
        _, to = re.findall(r"'(\w+)'", str(exc))
        with pytest.raises(ConfigError) as err:
            resolve_scenario("rank", scenario)
        assert err.value.path == f"scenario.{to}_position"
    else:
        resolve_scenario("rank", scenario)


def test_near_field_panel_reaches_full_rank():
    # the benchmark's near-field scenario: `auto` resolves to spherical
    table = run(prepare("rank", {"m_antennas": 8, "u_antennas": 8, "n_elements": 1024,
                                 "wavefront": "auto"}, seed=1, trials=6))
    ranks, _, s2 = _rank_columns(table)
    assert ranks.tolist() == [8] * 6
    assert (s2 > 0.0).all()


def test_rank_runner_metadata_and_digest():
    table = run(prepare("rank", {}, seed=5, trials=3))
    meta = table.metadata
    assert meta["experiment"] == "rank"
    assert meta["seed"] == 5 and meta["trials"] == 3
    assert meta["tool_version"] == ris_sim.__version__
    cfg = {"experiment": "rank", "seed": 5, "trials": 3,
           "scenario": resolve_scenario("rank", {})}
    assert meta["config_sha256"] == config_digest(cfg)


def test_beamform_unit_channels_square_law():
    table = run(prepare("beamform", {"n_list": (1, 4, 16)}, seed=0, trials=2))
    gains = {m: v for _, m, v in table.rows}
    assert gains["gain_n1"] == 1.0
    assert gains["gain_n4"] == 16.0
    assert gains["gain_n16"] == 256.0


def test_beamform_quantization_ratios_bounded():
    scenario = {"n_list": (8, 32), "channel": "rayleigh",
                "quantization_bits": (1, 3)}
    table = run(prepare("beamform", scenario, seed=9, trials=20))
    ratios = [v for _, m, v in table.rows if m.startswith("ratio_")]
    assert len(ratios) == 20 * 2 * 2
    assert all(0.0 < r <= 1.0 + 1e-12 for r in ratios)
    # 3-bit quantization loses less than 1-bit on average
    r1 = np.mean([v for _, m, v in table.rows if m.startswith("ratio_b1")])
    r3 = np.mean([v for _, m, v in table.rows if m.startswith("ratio_b3")])
    assert r3 > r1


def test_beamform_quantization_loss_matches_large_n_law():
    # Wu & Zhang (IEEE TCOM 2020): b-bit phases keep a (sin(x) / x)^2
    # share of the aligned power at large N, with x = pi / 2^b
    scenario = {"n_list": (256,), "channel": "rayleigh", "quantization_bits": (1, 2, 3)}
    table = run(prepare("beamform", scenario, seed=7, trials=50))
    for b in (1, 2, 3):
        x = math.pi / 2**b
        mean = np.mean([v for _, m, v in table.rows if m == f"ratio_b{b}_n256"])
        assert abs(mean - (math.sin(x) / x) ** 2) <= 0.01


def test_multiuser_rows_do_not_depend_on_the_chunk():
    # the long run batches trials 0-4 with a full chunk and spills into a
    # second one; the short run batches them alone
    scenario = {"n_users": 2, "n_elements": 4, "max_iters": 3}
    long = run(prepare("multiuser", scenario, 3, MULTIUSER_CHUNK + 3))
    short = run(prepare("multiuser", scenario, 3, 5))
    assert len(long.rows) == 3 * (MULTIUSER_CHUNK + 3)
    assert long.rows[:15] == short.rows
    assert (np.array([v for _, _, v in long.rows[:15]]).tobytes()
            == np.array([v for _, _, v in short.rows]).tobytes())


# ---------------------------------------------------------------------------
# one generator per run and draw kind: trials are consecutive rows

def _values(rows):
    return np.array([v for _, _, v in rows], dtype=float)


@pytest.mark.parametrize("experiment, scenario", [
    ("rank", {"m_antennas": 3, "u_antennas": 2, "n_elements": 5, "ris_ue_rician_k": 2.5,
              "include_direct": True}),
    ("beamform", {"channel": "rayleigh", "n_list": [1, 3, 40], "quantization_bits": [1, 3]}),
    ("multiuser", {"n_users": 2, "n_elements": 4, "max_iters": 3}),
    ("coexist", {"n_elements_a": 8}),
    ("adjacent", {"n_elements_a": 8}),
    ("coexist", {"mode": "lbt", "slots": 60, "n_elements_a": 8}),
    ("coexist", {"mode": "lbt", "slots": 60, "n_elements_a": 8, "b_direct_blocked": True}),
])
def test_a_run_is_a_prefix_of_a_longer_run_at_any_chunk(monkeypatch, experiment, scenario):
    # trial t's rows depend on the seed and t alone: a run of n trials is
    # the first n trials' rows of a run of N, bit for bit, and no chunk
    # size moves a bit
    whole = run(prepare(experiment, scenario, 21, 9)).rows
    for n in (1, 4):
        part = run(prepare(experiment, scenario, 21, n)).rows
        head = [row for row in whole if row[0] < n]
        assert [r[:2] for r in part] == [r[:2] for r in head]
        assert _values(part).tobytes() == _values(head).tobytes()
    for chunk in (1, 3):
        for module, name in ((experiments, "BEAMFORM_CHUNK"), (experiments, "MULTIUSER_CHUNK"),
                             (coexist, "STALE_CHUNK")):
            monkeypatch.setattr(module, name, chunk)
        rows = run(prepare(experiment, scenario, 21, 9)).rows
        assert [r[:2] for r in rows] == [r[:2] for r in whole]
        assert _values(rows).tobytes() == _values(whole).tobytes()


def _spy_draws(monkeypatch):
    """(trial count, copies of the stacks) of every `draw_links` call a
    runner makes; the copies keep what the runner scales in place
    afterwards."""
    calls = []
    draw = experiments.draw_links

    def spy(links, count, *args):
        stacks, drawn = draw(links, count, *args)
        calls.append((count, [None if s is None else s.copy() for s in stacks]))
        return stacks, drawn

    monkeypatch.setattr(experiments, "draw_links", spy)
    return calls


@pytest.mark.parametrize("k, direct", [(0.0, False), (2.5, True), (math.inf, True),
                                       (math.inf, False)])
def test_rank_blocks_match_the_one_stream_reference_bit_for_bit(monkeypatch, k, direct):
    # trial t draws its U x min(N, M) projection, a Rician link of factor
    # K whose LoS block is L U_G, then its direct block, as row t of the
    # run's stream `rank/normals`; at K = inf it draws no projection
    # normals, so the direct block takes the row's first ones
    calls = _spy_draws(monkeypatch)
    scenario = {"m_antennas": 3, "u_antennas": 2, "n_elements": 5, "ris_ue_rician_k": k,
                "include_direct": direct}
    run(prepare("rank", scenario, seed=13, trials=4))
    ((count, stacks),) = calls
    assert count == 4
    scn = _rank_scenario(resolve_scenario("rank", scenario))
    los = None if k == 0.0 else scn.los_ris_ue @ numkernel.svd(scn.los_nb_ris).left_vectors
    links = [(k, los, (2, 3)), (0.0, None, (2, 3)) if direct else None]
    stream = np.random.default_rng(subseed(13, "rank/normals"))
    for t in range(4):
        want, _ = oracles.one_stream_draw(stream, links, 0)
        for got, ref in zip(stacks, want):
            assert (got is None) == (ref is None)
            if ref is not None:
                assert got[t].tobytes() == ref.tobytes()


def test_multiuser_blocks_match_the_one_stream_reference_bit_for_bit(monkeypatch):
    # trial t draws all its users' incident hops, then all their departure
    # hops, as row t of the run's stream `multiuser/normals`, whatever
    # chunk it lands in
    monkeypatch.setattr(experiments, "MULTIUSER_CHUNK", 2)
    calls = _spy_draws(monkeypatch)
    scenario = {"n_users": 3, "m_antennas": 2, "u_antennas": 1, "n_elements": 4}
    run(prepare("multiuser", scenario, seed=17, trials=5))
    assert [count for count, _ in calls] == [2, 2, 1]
    want = oracles.rayleigh_trial_blocks(17, "multiuser/normals", [(3, 4, 2), (3, 1, 4)], 5)
    got = [[s[i] for s in stacks] for _, stacks in calls for i in range(len(stacks[0]))]
    assert [[b.tobytes() for b in blocks] for blocks in got] == [
        [b.tobytes() for b in blocks] for blocks in want]


def _column(rows, metric):
    return np.array([v for _, m, v in rows if m == metric])


def _assert_same_means(new_rows, old_rows, metrics, floor=0.0):
    """Each metric's mean over the runner's rows lies within 5 standard
    errors (plus `floor`) of its mean over a frozen route's rows, both of
    one trial count."""
    for metric in metrics:
        new, old = _column(new_rows, metric), _column(old_rows, metric)
        assert len(new) == len(old) > 1
        se = math.sqrt((new.var(ddof=1) + old.var(ddof=1)) / len(new))
        assert abs(new.mean() - old.mean()) <= 5.0 * se + floor, metric


@pytest.mark.parametrize("k", [0.0, 2.0, math.inf])
def test_rank_one_stream_route_matches_the_per_block_route_in_distribution(k):
    scenario = {"m_antennas": 4, "u_antennas": 4, "n_elements": 64, "ris_ue_rician_k": k,
                "include_direct": True}
    new = run(prepare("rank", scenario, seed=43, trials=2000)).rows
    old = oracles.block_keyed_rows("rank", scenario, 43, 2000)
    _assert_same_means(new, old, ("sigma_1", "sigma_2"))


def test_beamform_one_stream_route_matches_the_per_block_route_in_distribution():
    scenario = {"channel": "rayleigh", "n_list": [2, 8, 32], "quantization_bits": [1, 3]}
    new = run(prepare("beamform", scenario, seed=43, trials=2000)).rows
    old = oracles.block_keyed_rows("beamform", scenario, 43, 2000)
    _assert_same_means(new, old, [f"{head}_n{n}" for n in scenario["n_list"]
                                  for head in ("gain", "ratio_b1", "ratio_b3")])


def test_multiuser_one_stream_route_matches_the_per_block_route_in_distribution():
    scenario = {"n_users": 3, "n_elements": 8}
    new = run(prepare("multiuser", scenario, seed=43, trials=200)).rows
    old = oracles.block_keyed_rows("multiuser", scenario, 43, 200)
    _assert_same_means(new, old, ("shared_sum", "gap_fraction"))


_RANK_DIRECT = {"m_antennas": 4, "u_antennas": 4, "n_elements": 64, "include_direct": True}


@pytest.mark.parametrize("experiment, scenario, trials, metrics", [
    ("rank", {**_RANK_DIRECT, "ris_ue_rician_k": 0.0}, 2000, ("sigma_1", "sigma_2")),
    ("rank", {**_RANK_DIRECT, "ris_ue_rician_k": 2.0}, 2000, ("sigma_1", "sigma_2")),
    ("rank", {**_RANK_DIRECT, "ris_ue_rician_k": math.inf}, 2000, ("sigma_1", "sigma_2")),
    ("beamform", {"channel": "rayleigh", "n_list": [2, 8, 32], "quantization_bits": [1, 3]},
     2000, [f"{head}_n{n}" for n in (2, 8, 32) for head in ("gain", "ratio_b1", "ratio_b3")]),
    ("multiuser", {"n_users": 3, "n_elements": 8}, 200, ("shared_sum", "gap_fraction")),
    ("coexist", {}, 400, ("fresh_rate", "stale_rate", "loss_fraction")),
    ("adjacent", {}, 400, ("rate_no_filter", "rate_with_filter", "loss_no_filter",
                           "loss_with_filter")),
], ids=["rank-k0", "rank-k2", "rank-kinf", "beamform", "multiuser", "coexist", "adjacent"])
def test_run_streams_match_the_frozen_per_trial_route_in_distribution(experiment, scenario,
                                                                      trials, metrics):
    # every scattered entry is iid CN(0, 1) and every phase iid U(0, 2 pi)
    # whether a trial is a row of the run's stream or a stream of its own
    new = run(prepare(experiment, scenario, seed=43, trials=trials)).rows
    old = oracles.trial_keyed_rows(experiment, scenario, 43, trials)
    _assert_same_means(new, old, metrics)


_LBT_BRANCHES = {"default": {}, "shadowed": {"b_direct_blocked": True},
                 "los_only": {"rician_k": math.inf}}


@pytest.mark.parametrize("threshold, branch", [
    *((threshold, _LBT_BRANCHES[name]) for threshold in (-82.0, -40.0)
      for name in _LBT_BRANCHES),
    # B senses A ten times louder than A senses B: only B defers, so the
    # backoff law moves B's airtime and the collision fraction
    (-45.0, {"tx_power_a": 10.0}),
], ids=[f"{name}{threshold:g}" for threshold in (-82.0, -40.0) for name in _LBT_BRANCHES]
    + ["asymmetric-45"])
def test_lbt_run_streams_match_the_frozen_per_trial_route_in_distribution(threshold, branch):
    # a polling order drawn as a uniform below 0.5 has the law of
    # `permutation(2)`, a backoff drawn for every slot but read only when a
    # network defers there that of a backoff drawn on demand, and every own
    # link is iid whether a trial is a row of the run's streams or a run of
    # its own.  At -40 dBm both networks send in every slot, so under pure
    # LoS the rates are one number per route and the standard error is 0:
    # the floor covers summing that rate slot by slot on the frozen route
    # against counting it once here.
    scenario = {"mode": "lbt", "slots": 400, "sense_threshold_dbm": threshold, **branch}
    new = run(prepare("coexist", scenario, seed=43, trials=400)).rows
    old = oracles.per_trial_lbt_rows(scenario, 43, 400)
    _assert_same_means(new, old, oracles.LBT_METRICS, floor=1e-9)


def test_runner_rejects_unknown_scenario_field():
    with pytest.raises(ValueError, match="trails"):
        prepare("rank", {"trails": 10}, seed=0, trials=1)


def test_deploy_requires_threshold():
    with pytest.raises(ValueError, match="threshold_db"):
        prepare("deploy", {}, seed=0, trials=1)


def test_trials_validated():
    with pytest.raises(ValueError):
        prepare("rank", {}, seed=0, trials=0)


@pytest.mark.parametrize("trials", [2**63, 2**64])
def test_trials_past_the_block_cap_are_rejected_before_any_allocation(trials):
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as err:
            prepare("rank", {}, 0, trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.path == "trials"
    assert peak < 1 << 16


@pytest.mark.parametrize("experiment, scenario, seed, trials, path, shown", [
    ("rank", {"m_antennas": -10**5000}, 0, 1, "scenario.m_antennas", "negative integer"),
    ("rank", {"n_elements": 10**5000}, 0, 1, "scenario.n_elements", "integer"),
    ("beamform", {"n_list": [10**5000]}, 0, 1, "scenario.n_list[0]", "integer"),
    ("deploy", {"threshold_db": 24.0, "n_elements": 10**5000}, 0, 1, "scenario.n_elements",
     "integer"),
    ("multiuser", {"max_iters": -10**5000}, 0, 1, "scenario.max_iters", "negative integer"),
    ("rank", {}, 10**5000, 1, "seed", "integer"),
    ("rank", {}, -10**5000, 1, "seed", "negative integer"),
    ("rank", {}, 0, 10**5000, "trials", "integer"),
    ("coexist", {"t1": 10**5000, "t2": 1}, 0, 1, "scenario.t2", "integer"),
], ids=["rank-m_antennas", "rank-n_elements", "beamform-n_list", "deploy-n_elements",
        "multiuser-max_iters", "seed", "negative-seed", "trials", "coexist-t1"])
def test_integers_past_the_digit_limit_are_rejected_at_their_path(experiment, scenario, seed,
                                                                  trials, path, shown):
    # `str` refuses these integers, so each message shows its digit count
    with pytest.raises(ConfigError) as err:
        prepare(experiment, scenario, seed, trials)
    assert err.value.path == path
    assert f"<{shown} of 5001 digits>" in err.value.message


def test_quote_shows_an_integer_past_the_digit_limit_by_its_digit_count():
    for digits in (4301, 5000, 5001, 12345):
        assert experiments.quote(10 ** (digits - 1)) == f"<integer of {digits} digits>"
        assert experiments.quote(1 - 10**digits) == f"<negative integer of {digits} digits>"
    assert experiments.quote([1, 10**5000]) == "[1, <integer of 5001 digits>]"
    # every other value as `reprlib.repr` quotes it
    for v in (7, -(10**50), 1.5, "text", [[[[[[[0]]]]]]], (0.0, 1.0), None, True):
        assert experiments.quote(v) == reprlib.repr(v)


def _build_rank_with(monkeypatch, blocks):
    """Make `blocks` what rank's builder returns."""
    record = replace(experiments.EXPERIMENTS["rank"], build=lambda p, seed, trials: blocks)
    monkeypatch.setitem(experiments.EXPERIMENTS, "rank", record)


def test_run_refuses_a_nonfinite_value(monkeypatch):
    block = {"a": [1.0, 2.0, 3.0], "b": [0.5, math.nan, 0.5], "c": [0.5, 0.5, -math.inf]}
    _build_rank_with(monkeypatch, [block])
    with pytest.raises(FloatingPointError, match=r"^trial 1: b is nan, not a finite number$"):
        run(prepare("rank", {}, 0, 3))
    block["b"][1] = 0.5
    with pytest.raises(FloatingPointError, match=r"^trial 2: c is -inf"):
        run(prepare("rank", {}, 0, 3))


def test_run_refuses_columns_of_unequal_length(monkeypatch):
    # zip would drop trial 1's "a" row without a word
    _build_rank_with(monkeypatch, [{"a": [1.0, 2.0], "b": [1.0]}])
    with pytest.raises(ValueError, match=r"^columns of unequal length: \{'a': 2, 'b': 1\}$"):
        run(prepare("rank", {}, 0, 2))


def test_run_forms_rows_block_by_block_keeping_cell_types(monkeypatch):
    _build_rank_with(monkeypatch, [{"n": np.array([3, 4]), "x": [0.5, 1.5]}, {"s": ["a"]}])
    rows = run(prepare("rank", {}, 0, 2)).rows
    assert rows == ((0, "n", 3), (0, "x", 0.5), (1, "n", 4), (1, "x", 1.5), (0, "s", "a"))
    assert [type(v) for _, _, v in rows] == [int, float, int, float, str]


def test_deploy_runner_baseline_and_breathing_rows():
    table = run(prepare("deploy", {"threshold_db": 24.0, "gain_scales": (1.0,)},
                        seed=0, trials=1))
    rows = {(t, m): v for t, m, v in table.rows}
    assert rows[(0, "greedy_site")] == -1
    final_step = max(t for t, m in rows if m == "greedy_coverage")
    # unit gain scale reproduces the plan's final coverage exactly
    assert rows[(0, "breathing_coverage")] == rows[(final_step, "greedy_coverage")]


# ---------------------------------------------------------------------------
# reproducibility


def test_same_config_twice_byte_identical():
    a = run(prepare("rank", {"n_elements": 16}, seed=77, trials=10)).to_csv()
    b = run(prepare("rank", {"n_elements": 16}, seed=77, trials=10)).to_csv()
    assert a == b
