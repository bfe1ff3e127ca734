import json
import numpy as np
import pytest

from rcdlab import cli
from rcdlab.mmspace import make_model_space, save_space


def run_cli(args):
    return cli.main(args)


def test_schema_version():
    assert cli.schema_version() == "1"


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
    assert artifact["schema_version"] == "1"
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


def test_assert_failure_exit_code(tmp_path):
    # a flow task asserting entropy monotone on a valid instance passes,
    # a validate task on a broken space file fails with exit 1
    space = make_model_space("segment", 4)
    obj = {
        "points": list(range(4)),
        "metric": space.metric.tolist(),
        "measure": space.ref_measure.tolist(),
    }
    obj["metric"][0][3] = 9.0
    obj["metric"][3] = list(obj["metric"][3])
    obj["metric"][3][0] = 9.0
    f = tmp_path / "broken.json"
    f.write_text(json.dumps(obj))
    cfg = {"space": {"points": obj["points"], "metric": obj["metric"], "measure": obj["measure"]},
           "seed": 0, "output_dir": str(tmp_path / "o"),
           "tasks": [{"op": "validate", "name": "v"}]}
    # inline invalid space: loader raises -> config error
    assert cli.run(cfg) == 2


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
