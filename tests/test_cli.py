import functools
import json
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rcdlab import cli, heat
from rcdlab.dirichlet import dirichlet_form
from rcdlab.measures import bump_measure
from rcdlab.mmspace import make_model_space, save_space


def run_cli(args):
    return cli.main(args)


def test_schema_version():
    assert cli.schema_version() == "3"


def test_canonical_float_formatting():
    s = cli.dumps_canonical({"x": 0.1 + 0.2, "y": [1, 2.0], "z": None, "b": True})
    assert s == '{"x":0.30000000000000004,"y":[1,2],"z":null,"b":true}'
    assert cli.dumps_canonical(float("inf")) == '"inf"'
    assert cli.dumps_canonical(1 / 3) == "0.33333333333333331"


def test_validate_task_on_valid_space(tmp_path):
    cfg = {"space": {"kind": "cycle", "n": 8}, "seed": 0,
           "output_dir": str(tmp_path / "out"),
           "tasks": [{"op": "validate", "name": "v"}]}
    assert cli.run(cfg) == 0
    artifact = json.loads((tmp_path / "out" / "v.json").read_text())
    assert artifact["schema_version"] == "3"
    assert artifact["result"]["passed"] is True


def test_w2_task_identical_measures(tmp_path):
    cfg = {"space": {"kind": "segment", "n": 6}, "seed": 0,
           "output_dir": str(tmp_path / "out"),
           "tasks": [{"op": "ot", "name": "o",
                      "mu": {"kind": "uniform"}, "nu": {"kind": "uniform"}}]}
    assert cli.run(cfg) == 0
    artifact = json.loads((tmp_path / "out" / "o.json").read_text())
    assert artifact["result"]["w2"] == pytest.approx(0.0, abs=1e-9)


def test_space_file_loading_and_csv(tmp_path):
    space = make_model_space("cycle", 6)
    save_space(space, tmp_path / "s.json")
    cfg = {"space": "s.json", "seed": 3,
           "output_dir": str(tmp_path / "out"),
           "tasks": [{"op": "validate", "name": "v"},
                     {"op": "form", "name": "energy", "sub": "energy",
                      "f": list(np.sin(np.arange(6.0)))}]}
    assert cli.run(cfg, base_dir=str(tmp_path)) == 0
    lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "task,name,value"
    assert any(line.startswith("energy,cheeger,") for line in lines)


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json::")
    assert run_cli(["run", str(bad)]) == 2


def test_missing_space_is_config_error(tmp_path):
    cfg = {"seed": 0, "tasks": [], "output_dir": str(tmp_path / "o")}
    assert cli.run(cfg) == 2


def test_seed_required_for_random_tasks(tmp_path):
    cfg = {"space": {"kind": "cycle", "n": 8},
           "output_dir": str(tmp_path / "o"),
           "tasks": [{"op": "verify", "name": "v"}]}
    assert cli.run(cfg) == 2


@pytest.mark.parametrize("task, code", [
    ({"op": "form", "sub": "mod2", "paths": [[0, 1, 2]]}, 0),
    ({"op": "form", "sub": "intrinsic"}, 0),
    ({"op": "form", "sub": "energy", "f": [1.0] * 16}, 0),
    ({"op": "form", "sub": "energy"}, 2),
    ({"op": "form"}, 2),
], ids=["mod2", "intrinsic", "energy-with-f", "energy", "default-sub"])
def test_only_a_task_that_draws_needs_a_seed(tmp_path, task, code):
    # mod2 and intrinsic read no f, so they draw nothing from the seed
    cfg = {"space": {"kind": "cycle", "n": 16}, "output_dir": str(tmp_path / "o"), "tasks": [dict(task, name="t")]}
    assert cli.run(cfg) == code


def test_an_invalid_inline_space_exits_2(tmp_path, capsys):
    # segment:4 with d(0, 3) = 9 breaks the triangle inequality: the loader
    # raises, which is a config error
    space = make_model_space("segment", 4)
    metric = space.metric.tolist()
    metric[0][3] = metric[3][0] = 9.0
    cfg = {"space": {"points": list(range(4)), "metric": metric, "measure": space.ref_measure.tolist()},
           "seed": 0, "output_dir": str(tmp_path / "o"),
           "tasks": [{"op": "validate", "name": "v"}]}
    assert cli.run(cfg) == 2
    assert "fails validation: (('triangle', (0, 1, 3), 8.0),)" in capsys.readouterr().err


def test_a_failed_assertion_exits_1_and_writes_its_report(tmp_path, capsys):
    # the battery's worst EVI residual is above a tolerance of -1, so its verdict fails
    checks = {"K": 0.0, "t_grid": [0.01, 0.02, 0.04], "n_probes": 1, "evi_tol": -1.0}
    out = tmp_path / "o"
    cfg = {"space": {"kind": "cycle", "n": 8}, "seed": 3, "output_dir": str(out),
           "tasks": [{"op": "verify", "name": "r", "config": checks}]}
    assert cli.run(cfg) == 1
    assert sorted(p.name for p in out.iterdir()) == ["diagnostics.csv", "failures.json", "r.json"]
    assert json.loads((out / "r.json").read_text())["result"]["verdict"] is False
    assert json.loads((out / "failures.json").read_text()) == {"failures": ["r: verify: battery failed"]}
    assert capsys.readouterr().err == f"assert-mode failures; see {out / 'failures.json'}\n"


def test_run_out_is_relative_to_the_working_directory(tmp_path, monkeypatch):
    # --out is a command-line path like the subcommands', not a config field
    (tmp_path / "configs").mkdir()
    (tmp_path / "work").mkdir()
    config = {"space": {"kind": "cycle", "n": 8}, "tasks": [{"op": "validate", "name": "v"}]}
    (tmp_path / "configs" / "c.json").write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path / "work")
    assert cli.main(["run", "../configs/c.json", "--out", "results"]) == 0
    assert sorted(p.name for p in (tmp_path / "work" / "results").iterdir()) == ["diagnostics.csv", "v.json"]
    assert not (tmp_path / "configs" / "results").exists()


def test_round_trip_artifact_structure(tmp_path):
    cfg = {"space": {"kind": "two_point", "n": 2}, "seed": 0,
           "output_dir": str(tmp_path / "out"),
           "tasks": [{"op": "ot", "name": "o",
                      "mu": {"kind": "dirac", "at": 0}, "nu": {"kind": "dirac", "at": 1}}]}
    assert cli.run(cfg) == 0
    text = (tmp_path / "out" / "o.json").read_text()
    obj = json.loads(text)
    rewritten = cli.dumps_canonical(obj) + "\n"
    assert json.loads(rewritten) == obj


def test_entry_point_subcommand(tmp_path):
    code = run_cli(["validate", "--space", "cycle:8", "--out", str(tmp_path / "o"), "--seed", "1"])
    assert code == 0
    assert (tmp_path / "o" / "validate.json").exists()


def test_determinism_small_config(tmp_path):
    cfg = {"space": {"kind": "cycle", "n": 16}, "seed": 5,
           "tasks": [
               {"op": "ot", "name": "o",
                "mu": {"kind": "bump", "center": 2, "radius": 0.1},
                "nu": {"kind": "bump", "center": 10, "radius": 0.1}},
               {"op": "flow", "name": "f", "f0": {"kind": "bump", "center": 4, "radius": 0.15},
                "flavor": "semigroup", "t": 0.05, "steps": 5},
           ]}
    for out in ("a", "b"):
        c = dict(cfg, output_dir=str(tmp_path / out))
        assert cli.run(c) == 0
    for name in ("o.json", "f.json", "diagnostics.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_solver_failure_exit_code(tmp_path):
    cfg = {"space": {"kind": "cycle", "n": 16}, "seed": 0,
           "output_dir": str(tmp_path / "o"),
           "tasks": [{"op": "flow", "name": "f",
                      "f0": {"kind": "bump", "center": 2, "radius": 0.2},
                      "flavor": "jko", "tau": 0.004, "steps": 2,
                      "inner_tol": 1e-30}]}
    assert cli.run(cfg) == 3


def test_jko_artifact_carries_the_largest_inner_gap(tmp_path):
    bump = {"kind": "bump", "center": 2, "radius": 0.2}
    cfg = {"space": {"kind": "cycle", "n": 16}, "seed": 0,
           "output_dir": str(tmp_path / "o"),
           "tasks": [{"op": "flow", "name": "j", "f0": bump, "flavor": "jko", "tau": 0.004, "steps": 2},
                     {"op": "flow", "name": "s", "f0": bump, "t": 0.01, "steps": 2}]}
    assert cli.run(cfg) == 0
    jko = json.loads((tmp_path / "o" / "j.json").read_text())["result"]
    space = make_model_space("cycle", 16)
    trace = heat.jko_flow(bump_measure(space, 2, 0.2), 0.004, 2, inner_tol=1e-6, form=dirichlet_form(space))
    assert 0 < jko["max_inner_gap"] == trace.meta["max_inner_gap"] <= 1e-6
    assert "max_inner_gap" not in json.loads((tmp_path / "o" / "s.json").read_text())["result"]


def test_geodesy_error_exit_code(tmp_path, capsys):
    # no measure lies exactly halfway between the ends of segment:4, and a
    # fixed epsilon of 0 forbids any relaxation
    cfg = {"space": {"kind": "segment", "n": 4}, "seed": 0,
           "output_dir": str(tmp_path / "o"),
           "tasks": [{"op": "geodesic", "name": "g", "depth": 1, "epsilon": 0.0,
                      "mu0": {"kind": "dirac", "at": 0}, "mu1": {"kind": "dirac", "at": 3}}]}
    assert cli.run(cfg) == 2
    err = capsys.readouterr().err
    assert "GeodesyError" in err and "Traceback" not in err


def test_form_error_exit_code(tmp_path, capsys):
    # the intrinsic metric of cycle:8 misses its certificate tolerance
    cfg = {"space": {"kind": "cycle", "n": 8}, "seed": 0,
           "output_dir": str(tmp_path / "o"),
           "tasks": [{"op": "form", "name": "d", "sub": "intrinsic"}]}
    assert cli.run(cfg) == 3
    err = capsys.readouterr().err
    assert "FormError" in err and "Traceback" not in err


@pytest.mark.parametrize("task, code", [
    ({"op": "flow", "name": "f", "f0": {"kind": "uniform"}, "flavor": "nope"}, 2),
    ({"op": "form", "name": "d", "sub": "intrinsic"}, 3),
], ids=["config-error", "solver-failure"])
def test_a_failed_run_writes_no_artifact(tmp_path, capsys, task, code):
    # the validate task returns before the second task raises
    out = tmp_path / "o"
    out.mkdir()
    (out / "v.json").write_text("stale\n")
    cfg = {"space": {"kind": "cycle", "n": 8}, "seed": 0, "output_dir": str(out),
           "tasks": [{"op": "validate", "name": "v"}, task]}
    assert cli.run(cfg) == code
    assert [p.name for p in out.iterdir()] == ["v.json"]
    assert (out / "v.json").read_text() == "stale\n"
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("task, field", [
    ({"op": "ot", "name": "o", "nu": {"kind": "uniform"}}, "mu"),
    ({"op": "ot", "name": "o", "mu": {"kind": "dirac"}, "nu": {"kind": "uniform"}}, "at"),
    ({"op": "ot", "name": "o", "mu": {"kind": "bump", "center": 2}, "nu": {"kind": "uniform"}}, "radius"),
    ({"op": "geodesic", "name": "g", "mu0": {"kind": "uniform"}}, "mu1"),
    ({"op": "flow", "name": "f", "f0": {"kind": "uniform"}, "flavor": "jko", "steps": 2}, "tau"),
    ({"name": "nothing"}, "op"),
])
def test_missing_required_field_is_config_error(tmp_path, capsys, task, field):
    cfg = {"space": {"kind": "cycle", "n": 8}, "seed": 0,
           "output_dir": str(tmp_path / "o"), "tasks": [task]}
    assert cli.run(cfg) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and repr(field) in err and "Traceback" not in err


def test_non_finite_weights_spec_is_config_error(tmp_path, capsys):
    cfg = {"space": {"kind": "cycle", "n": 12}, "seed": 0,
           "output_dir": str(tmp_path / "o"),
           "tasks": [{"op": "ot", "name": "o",
                      "mu": {"weights": [float("nan")] * 12}, "nu": {"kind": "uniform"}}]}
    assert cli.run(cfg) == 2
    err = capsys.readouterr().err
    assert "MeasureError" in err and "Traceback" not in err


def test_zero_blur_flow_is_solver_failure(tmp_path, capsys):
    cfg = {"space": {"kind": "cycle", "n": 8}, "seed": 0,
           "output_dir": str(tmp_path / "o"),
           "tasks": [{"op": "flow", "name": "f", "f0": {"kind": "uniform"},
                      "flavor": "jko", "tau": 0.01, "steps": 1, "blur": 0}]}
    assert cli.run(cfg) == 3
    err = capsys.readouterr().err
    assert "HeatError" in err and "blur > 0" in err


@pytest.mark.parametrize("task, field", [
    ({"op": "verify", "config": {"K": float("nan")}}, "K"),
    ({"op": "verify", "config": {"evi_tol": float("nan")}}, "evi_tol"),
    ({"op": "ot", "mu": {"kind": "uniform"}, "nu": {"kind": "dirac", "at": 0}, "gap_tol": float("nan")}, "gap_tol"),
    ({"op": "form", "sub": "intrinsic", "rel_tol": float("inf")}, "rel_tol"),
])
def test_a_k_or_tolerance_that_is_not_finite_is_config_error(tmp_path, capsys, task, field):
    # a NaN tolerance passes every check it guards
    cfg = {"space": {"kind": "cycle", "n": 8}, "seed": 0, "output_dir": str(tmp_path / "o"),
           "tasks": [dict(task, name="t")]}
    err = _one_line_config_error(cli.run(cfg), capsys)
    assert repr(field) in err and "not finite" in err


@pytest.mark.parametrize("task", [
    {"op": "flow", "f0": {"kind": "uniform"}, "t": float("nan")},
    {"op": "flow", "f0": {"kind": "uniform"}, "t_grid": [0.0, 0.0, 0.02]},
    {"op": "flow", "f0": {"kind": "uniform"}, "flavor": "jko", "tau": float("nan"), "steps": 1},
])
def test_a_bad_heat_time_is_solver_failure(tmp_path, capsys, task):
    cfg = {"space": {"kind": "cycle", "n": 8}, "seed": 0, "output_dir": str(tmp_path / "o"),
           "tasks": [dict(task, name="f")]}
    assert cli.run(cfg) == 3
    err = capsys.readouterr().err
    assert "HeatError" in err and "Traceback" not in err


def test_tasks_run_in_list_order(tmp_path):
    # task k draws its random f from seed + k, and the CSV lists tasks in order
    energy = {"op": "form", "sub": "energy"}
    cfg = {"space": {"kind": "cycle", "n": 8}, "seed": 4, "output_dir": str(tmp_path / "all"),
           "tasks": [dict(energy, name="a"), dict(energy, name="c", f=[1.0] * 8), dict(energy, name="b")]}
    assert cli.run(cfg) == 0
    alone = dict(cfg, seed=6, output_dir=str(tmp_path / "b"), tasks=[dict(energy, name="b")])
    assert cli.run(alone) == 0
    rows = (tmp_path / "all" / "diagnostics.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["a", "c", "b"]
    assert rows[-1] == (tmp_path / "b" / "diagnostics.csv").read_text().splitlines()[1]


@pytest.mark.parametrize("config, field", [
    ({"seed": "abc", "tasks": [{"op": "validate", "name": "v"}]}, "seed"),
    ({"seed": 0, "tasks": [{"op": "flow", "name": "f", "f0": {"kind": "uniform"},
                            "flavor": "jko", "tau": 0.01, "steps": "x"}]}, "steps"),
])
def test_wrong_type_field_is_config_error(tmp_path, capsys, config, field):
    cfg = dict(config, space={"kind": "cycle", "n": 8}, output_dir=str(tmp_path / "o"))
    assert cli.run(cfg) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(field) in err and "Traceback" not in err


def test_out_of_range_point_is_measure_error(tmp_path, capsys):
    cfg = {"space": {"kind": "cycle", "n": 8}, "seed": 0,
           "output_dir": str(tmp_path / "o"),
           "tasks": [{"op": "ot", "name": "o", "mu": {"kind": "dirac", "at": 99}, "nu": {"kind": "uniform"}}]}
    assert cli.run(cfg) == 2
    err = capsys.readouterr().err
    assert "MeasureError" in err and "99" in err and "Traceback" not in err


# --- the input boundary: every malformed input is a one-line config error ---

def _one_line_config_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("config error: ") and err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize("fields", [
    {"space": "nope.json"},
    {"space": 5},
    {"tasks": 5},
    {"space": {"metric": [[0.0]], "measure": [1.0]}},
    {"space": {"kind": "cycle", "n": 8, "params": 3}},
    {"space": {"kind": "random_metric", "n": 5, "params": {"seed": "x"}}},
    {"space": {"kind": "random_metric", "n": 5, "params": {"edge_prob": "abc"}}},
    {"space": {"kind": "cycle", "n": 8, "params": {"measure": {"gaussian": "abc"}}}},
    {"tasks": [{"op": "ot", "mu": 5, "nu": {"kind": "uniform"}}]},
    {"tasks": [{"op": "ot", "mu": "bad.json", "nu": {"kind": "uniform"}}]},
    {"tasks": [{"op": "verify", "config": {"K": "abc"}}]},
    {"tasks": [{"op": "verify", "config": {"t_grid": "abc"}}]},
    {"tasks": [{"op": "verify", "config": {"n_probes": 0}}]},
    {"tasks": [{"op": "flow", "f0": {"kind": "uniform"}, "t_grid": [0.1, "x"]}]},
    {"tasks": [{"op": "form", "f": [1.0, 2.0]}]},
    {"tasks": [{"op": "form", "sub": "mod2", "paths": [[0, 1, 99]]}]},
    {"tasks": [{"op": "geodesic", "depth": 0, "mu0": {"kind": "dirac", "at": 0}, "mu1": {"kind": "dirac", "at": 4}}]},
    *({"tasks": [{"op": "geodesic", "epsilon": eps, "mu0": {"kind": "dirac", "at": 0}, "mu1": {"kind": "dirac", "at": 4}}]}
      for eps in (float("nan"), float("inf"), 1e200)),
], ids=["space-missing-file", "space-number", "tasks-number", "space-without-points", "params-number",
        "params-seed", "params-edge-prob", "params-gaussian", "measure-number", "measure-not-json",
        "verify-K", "verify-t-grid", "verify-no-probes", "flow-t-grid", "form-f-length", "mod2-paths",
        "geodesic-depth-0", "geodesic-epsilon-nan", "geodesic-epsilon-inf", "geodesic-epsilon-1e200"])
def test_malformed_run_input_is_one_line_config_error(tmp_path, capsys, fields):
    (tmp_path / "bad.json").write_text("{not json")
    config = dict({"space": {"kind": "cycle", "n": 8}, "seed": 0, "output_dir": str(tmp_path / "o"), "tasks": []},
                  **fields)
    code = cli.run(config, base_dir=str(tmp_path))
    _one_line_config_error(code, capsys)


_TWO_POINTS = {"points": [0, 1], "metric": [[0.0, 1.0], [1.0, 0.0]], "measure": [1.0, 1.0]}


@pytest.mark.parametrize("space, mu, violation", [
    ({"kind": "cycle", "n": 4}, {"weights": [0.5000000000001, 0.5, 0, -1e-13]}, "negative weight -1e-13"),
    (dict(_TWO_POINTS, measure=[1.0, float("nan")]), {"kind": "dirac", "at": 0}, "finite_measure"),
    (dict(_TWO_POINTS, metric=[[0.0, 1e200], [1e200, 0.0]]), {"kind": "dirac", "at": 0}, "finite_metric"),
], ids=["weight-below-zero", "measure-nan", "metric-square-inf"])
def test_data_a_transport_lp_cannot_take_is_one_line_config_error(tmp_path, capsys, space, mu, violation):
    config = {"space": space, "seed": 0, "output_dir": str(tmp_path / "o"),
              "tasks": [{"op": "ot", "name": "o", "mu": mu, "nu": {"kind": "dirac", "at": 1}}]}
    assert violation in _one_line_config_error(cli.run(config), capsys)


@pytest.mark.parametrize("argv", [
    ["ot", "--space", "cycle:8", "--mu", "{tmp}/nonexistent.json", "--nu", "{tmp}/nonexistent.json"],
    ["verify", "--space", "cycle:8", "--config", "{tmp}/nonexistent.json"],
    ["validate", "--space", "cycle:abc"],
    ["run", "{tmp}/list.json"],
    ["run", "{tmp}/nonexistent.json"],
    ["run", "{tmp}/binary.json"],
])
def test_malformed_command_line_input_is_one_line_config_error(tmp_path, capsys, argv):
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{}")
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(tmp_path / "o")]
    _one_line_config_error(cli.main(argv), capsys)


def test_every_subcommand_writes_the_artifacts_of_its_run_config(tmp_path):
    def spec(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    a, b = spec("a.json", {"kind": "dirac", "at": 0}), spec("b.json", {"kind": "bump", "center": 2, "radius": 0.2})
    checks = spec("v.json", {"K": 0.0, "t_grid": [0.01, 0.02, 0.04], "n_probes": 1})
    commands = [
        (["validate"], {}),
        (["ot", "--mu", a, "--nu", b], {"mu": a, "nu": b}),
        (["geodesic", "--mu0", a, "--mu1", b, "--depth", "1"], {"mu0": a, "mu1": b, "depth": 1, "epsilon": "auto"}),
        (["form", "--form-op", "gamma"], {"sub": "gamma"}),
        (["flow", "--f0", b, "--steps", "4"], {"f0": b, "flavor": "semigroup", "t": 0.1, "tau": 1e-3, "steps": 4}),
        (["verify", "--config", checks], {"config": checks}),
    ]
    for argv, fields in commands:
        cmd = argv[0]
        by_main, by_run = tmp_path / cmd / "main", tmp_path / cmd / "run"
        assert cli.main(argv + ["--space", "cycle:8", "--seed", "3", "--out", str(by_main)]) == 0, cmd
        config = {"space": {"kind": "cycle", "n": 8}, "tasks": [dict({"op": cmd, "name": cmd}, **fields)],
                  "seed": 3, "output_dir": str(by_run)}
        assert cli.run(config) == 0, cmd
        names = sorted(p.name for p in by_main.iterdir())
        assert names == sorted(p.name for p in by_run.iterdir()) == sorted([f"{cmd}.json", "diagnostics.csv"])
        for name in names:
            assert (by_main / name).read_bytes() == (by_run / name).read_bytes(), (cmd, name)


def test_config_hash_covers_the_content_of_a_spec_file(tmp_path):
    # the same command line over a changed measure file is a different config
    mu = tmp_path / "mu.json"
    hashes = []
    for at in (0, 3):
        mu.write_text(json.dumps({"kind": "dirac", "at": at}))
        out = tmp_path / f"o{at}"
        assert cli.main(["ot", "--space", "cycle:8", "--mu", str(mu), "--nu", str(mu), "--out", str(out)]) == 0
        hashes.append(json.loads((out / "ot.json").read_text())["config_hash"])
    assert hashes[0] != hashes[1]


def test_a_config_error_quotes_the_field_not_the_config(tmp_path, capsys):
    config = json.loads((pathlib.Path(__file__).parents[1] / "configs" / "cycle64_rcd.json").read_text())
    config.update(space={"kind": "random_metric", "n": 64, "params": {"seed": "x"}}, output_dir=str(tmp_path / "o"))
    assert cli.run(config) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert len(err) <= 300 and "'space'" in err and "'x'" in err


@pytest.mark.parametrize("key", ["evi_tl", "conifg", "k"])
def test_an_unknown_verify_config_key_is_a_config_error_that_names_it(tmp_path, capsys, key):
    checks = {"K": 0.0, "t_grid": [0.01, 0.02, 0.04], "n_probes": 1}
    config = {"space": {"kind": "cycle", "n": 8}, "seed": 3, "output_dir": str(tmp_path / "o"),
              "tasks": [{"op": "verify", "name": "r", "config": checks}]}
    assert cli.run(config) == 0
    config["tasks"][0]["config"] = dict(checks, **{key: 1e9})
    assert repr(key) in _one_line_config_error(cli.run(config), capsys)


# --- property: the exit-code contract under one mutation of a working config ---

def test_a_run_builds_one_form_per_rule(tmp_path, monkeypatch):
    # the flows, the battery and the form task of one rule share one form and
    # its one eigendecomposition, and each task's result is the one it gets
    # alone, on a form of its own
    bump = {"kind": "bump", "center": 2, "radius": 0.2}
    f = [0.0, 0.5, 1.0, 0.5, 0.0, -0.5, -1.0, -0.5]
    tasks = [
        {"op": "flow", "name": "s", "f0": bump, "t_grid": [0.0, 0.01, 0.02]},
        {"op": "flow", "name": "j", "flavor": "jko", "f0": bump, "tau": 0.01, "steps": 1},
        {"op": "form", "name": "u", "sub": "laplacian", "rule": "unit", "f": f},
        {"op": "verify", "name": "r",
         "config": {"K": 0.0, "t_grid": [0.01, 0.02, 0.04], "n_probes": 1}},
    ]
    rules, eighs = [], []
    real_form, real_eigh = cli.dirichlet_form, np.linalg.eigh
    monkeypatch.setattr(cli, "dirichlet_form", lambda space, rule: rules.append(rule) or real_form(space, rule))
    monkeypatch.setattr(np.linalg, "eigh", lambda *a: eighs.append(1) or real_eigh(*a))

    def results(config):
        assert cli.run(dict(config, space={"kind": "cycle", "n": 8}, output_dir=str(tmp_path / "out"))) == 0
        return {t["name"]: json.loads((tmp_path / "out" / f"{t['name']}.json").read_text())["result"]
                for t in config["tasks"]}

    together = results({"seed": 3, "tasks": tasks})
    assert rules == ["metric_measure", "unit"] and len(eighs) == 1
    for idx, task in enumerate(tasks):
        assert results({"seed": 3 + idx, "tasks": [task]}) == {task["name"]: together[task["name"]]}


def _every_op_config():
    f = [0.0, 0.5, 1.0, 0.5, 0.0, -0.5, -1.0, -0.5]
    bump = {"kind": "bump", "center": 2, "radius": 0.2}
    return {
        "space": {"kind": "cycle", "n": 8, "params": {"measure": "uniform"}},
        "seed": 0,
        "output_dir": "out",
        "tasks": [
            {"op": "validate", "name": "v"},
            {"op": "ot", "name": "o", "mu": {"weights": [0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]}, "nu": "nu.json",
             "gap_tol": 1e-9},
            {"op": "flow", "name": "s", "f0": bump, "t_grid": [0.0, 0.01, 0.02]},
            {"op": "flow", "name": "j", "flavor": "jko", "f0": bump, "tau": 0.01, "steps": 1},
            {"op": "form", "name": "g", "sub": "gamma", "rule": "metric_measure", "f": f, "g": f[::-1]},
            {"op": "form", "name": "m", "sub": "mod2", "paths": [[0, 1, 2], [0, 7, 6]]},
            {"op": "verify", "name": "r",
             "config": {"K": 0.0, "t_grid": [0.01, 0.02, 0.04], "n_probes": 1}},
            {"op": "geodesic", "name": "d", "depth": 1, "mu0": {"kind": "dirac", "at": 0}, "mu1": {"kind": "dirac", "at": 2}},
        ],
    }


def _locations(value, path=()):
    """The path of every field and list entry inside a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield path + (key,)
        yield from _locations(inner, path + (key,))


_SPEC_FIELDS = {"space", "mu", "nu", "mu0", "mu1", "f0", "config"}
_REPLACEMENTS = ["x", [], [1], None, True, -1, 0, 0.5, 2, {}, {"x": 1}, -1e-13, float("nan")]


def _json_type(value):
    return {bool: "bool", int: "number", float: "number", str: "string", list: "array", dict: "object"}.get(
        type(value), "null")


def _at(value, path):
    return functools.reduce(lambda obj, key: obj[key], path, value)


@st.composite
def _mutations(draw):
    # () is the top-level object, whose only mutation is an inserted key
    path = draw(st.sampled_from([()] + list(_locations(_every_op_config()))))
    value = _at(_every_op_config(), path)
    kinds = [("insert", v) for v in _REPLACEMENTS] if isinstance(value, dict) else []
    if path:
        kinds += [("drop", None)] + [("replace", v) for v in _REPLACEMENTS]
    if isinstance(value, float):
        kinds.append(("replace", 1e200))  # not in a count, which would then run 1e200 times
    if path and path[-1] in _SPEC_FIELDS:
        kinds += [("replace", "missing.json"), ("replace", "bad.json")]
    if isinstance(value, dict) and "weights" in value:
        kinds.append(("meta", {"gaussian": {"c2": 1e-9, "x0": 0}}))  # a profile tag only a constructor sets
    return (path,) + draw(st.sampled_from(kinds))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_mutations())
@example((("tasks", 1, "mu"), "meta", {"gaussian": {}}))
@example((("tasks", 7, "depth"), "replace", 1.9))  # each was truncated to an int
@example((("tasks", 7, "mu0", "at"), "replace", True))
@example((("tasks", 6, "config", "K"), "replace", True))
def test_one_mutation_of_a_working_config_keeps_the_exit_code_contract(tmp_path_factory, mutation):
    path, kind, new = mutation
    base = tmp_path_factory.mktemp("mutation")
    (base / "nu.json").write_text(json.dumps({"kind": "bump", "center": 4, "radius": 0.2}))
    (base / "bad.json").write_text("{not json")
    config = _every_op_config()
    if kind in ("insert", "meta"):
        _at(config, path)["unknown_key" if kind == "insert" else "meta"] = new
    else:
        parent = _at(config, path[:-1])
        old = parent[path[-1]]
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    code = cli.run(config, base_dir=str(base))
    assert code in (0, 1, 2, 3)
    unreadable = kind == "replace" and path[-1] in _SPEC_FIELDS and new in ("missing.json", "bad.json")
    wrong_type = kind == "replace" and new is not None and _json_type(new) != _json_type(old)
    # an integer field, a count or a point index, takes no number with a fraction
    fraction = (kind == "replace" and _json_type(old) == "number" and isinstance(old, int)
                and isinstance(new, float) and not new.is_integer())
    if unreadable or wrong_type or fraction or kind in ("insert", "meta"):
        assert code == 2
