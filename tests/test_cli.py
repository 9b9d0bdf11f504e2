"""Command-line contract: artifacts, stdout documents, exit codes."""

import json
import sys

import numpy as np
import pytest
import yaml

import aoiplan
from aoiplan import (
    cli,
    generate_scenario,
    load_agent,
    load_autoencoder,
    load_scenario,
    lower_bound,
    save_scenario,
)
from aoiplan.cli import main
from aoiplan.nnet import save_checkpoint
from conftest import build_scenario, nonconverged_at


def save(tmp_path, scenario, name="scenario.yaml"):
    path = tmp_path / name
    save_scenario(scenario, path)
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_writes_loadable_scenario(tmp_path, capsys):
    out = tmp_path / "gen.yaml"
    assert main(["generate", "--nodes", "3", "--seed", "11", "--out", str(out)]) == 0
    assert "gen.yaml" in capsys.readouterr().out
    scenario = load_scenario(out)
    assert scenario.num_nodes == 3
    twin = tmp_path / "twin.yaml"
    main(["generate", "--nodes", "3", "--seed", "11", "--out", str(twin)])
    assert out.read_text() == twin.read_text()


def test_generate_geometry_defaults_are_the_generators(tmp_path, capsys):
    # With no geometry flag, generate draws what generate_scenario's own
    # defaults draw.
    out = tmp_path / "gen.yaml"
    assert main(["generate", "--nodes", "3", "--seed", "11", "--out", str(out)]) == 0
    capsys.readouterr()
    save_scenario(generate_scenario(3, 11), tmp_path / "library.yaml")
    assert out.read_bytes() == (tmp_path / "library.yaml").read_bytes()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path / "x.yaml")]) == 1
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("nodes", ["0", "-2"])
def test_generate_node_count_below_one_exit_1(tmp_path, capsys, nodes):
    out = tmp_path / "gen.yaml"
    assert main(["generate", "--nodes", nodes, "--out", str(out)]) == 1
    assert "--nodes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--region", "-5"),
        ("--region", "0"),
        ("--region", "nan"),
        ("--altitude", "0"),
        ("--altitude", "-80"),
        ("--vmax", "nan"),
        ("--vmax", "inf"),
        ("--horizon", "-1"),
        ("--horizon", "abc"),
        ("--seed", "-1"),
        ("--seed", "1.5"),
    ],
)
def test_generate_bad_geometry_or_seed_exit_1(tmp_path, capsys, flag, value):
    out = tmp_path / "gen.yaml"
    assert main(["generate", "--nodes", "2", flag, value, "--out", str(out)]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["train-dqn", "--seed", "-1"], "--seed"),
        (["train-autoencoder", "--seed", "-1"], "--seed"),
        (["eval", "--policy", "weight", "--seed", "-1"], "--seed"),
        (["sweep", "--axis", "energy", "--values", "1", "--seeds", "0,-1"], "--seeds"),
    ],
)
def test_negative_seeds_exit_1(tmp_path, capsys, argv, flag):
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "run"
    assert main(argv[:1] + ["--scenario", path] + argv[1:] + ["--out", str(out)]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_artifacts(tmp_path, capsys):
    scenario = build_scenario([1, 1])
    path = save(tmp_path, scenario)
    out = tmp_path / "run"
    code = main(["solve", "--scenario", path, "--schedule", "1,2", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.startswith("status=optimal")

    doc = read_json(out / "result.json")
    assert doc["status"] == "optimal"
    assert doc["order"] == [1, 2]
    assert doc["lower_bound"] == pytest.approx(lower_bound(scenario), rel=1e-12)
    assert doc["check"]["ok"] is True
    assert doc["objective"] < 1.0

    rows = read_lines(out / "trajectory.csv")
    assert rows[0] == "time_s,x_m,y_m,node"
    assert len(rows) == 5
    assert rows[1].startswith("0,0,0")
    assert rows[-1].split(",")[0] == "900"

    trace = read_lines(out / "aoi_trace.csv")
    assert trace[0] == "time_s,age_node_1_s,age_node_2_s"

    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "solve"
    assert manifest["version"] == aoiplan.__version__
    assert manifest["arguments"]["schedule"] == "1,2"
    assert "out" not in manifest["arguments"]


def test_solve_hover_objective(tmp_path):
    scenario = build_scenario(
        [1], positions=[(500.0, 500.0)], initial=(500.0, 500.0), final=(500.0, 500.0)
    )
    path = save(tmp_path, scenario)
    out = tmp_path / "run"
    assert main(["solve", "--scenario", path, "--schedule", "1", "--out", str(out)]) == 0
    doc = read_json(out / "result.json")
    assert doc["objective"] == pytest.approx(0.5, abs=1e-6)
    assert doc["times_s"][0] == pytest.approx(450.0, abs=1e-3)


def test_solve_infeasible_exit_2(tmp_path, capsys):
    path = save(tmp_path, build_scenario([1]))
    out = tmp_path / "run"
    code = main(["solve", "--scenario", path, "--schedule", "1,1", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert "cannot afford" in captured.err
    doc = read_json(out / "result.json")
    assert doc["status"] == "infeasible"
    assert doc["objective"] is None
    assert not (out / "trajectory.csv").exists()


def test_solve_infeasible_result_is_strict_json(tmp_path, capsys):
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "run"
    assert main(["solve", "--scenario", path, "--schedule", "1,1,1", "--out", str(out)]) == 2
    capsys.readouterr()

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads((out / "result.json").read_text(encoding="utf-8"), parse_constant=refuse)
    assert doc["status"] == "infeasible"
    assert doc["objective"] is None and doc["kkt_residual"] is None


def test_solve_missing_scenario_exit_3(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve", "--scenario", str(tmp_path / "nope.yaml"), "--out", str(out)])
    assert code == 3
    assert "not found" in capsys.readouterr().err


def test_solve_bad_schedule_exit_1(tmp_path, capsys):
    path = save(tmp_path, build_scenario([1]))
    out = tmp_path / "run"
    code = main(["solve", "--scenario", path, "--schedule", "1,x", "--out", str(out)])
    assert code == 1
    assert "--schedule" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def worked_example():
    return build_scenario(
        [1, 2],
        positions=[(0.0, 0.0), (300.0, 0.0)],
        initial=(0.0, 0.0),
        final=(300.0, 0.0),
    )


def test_bounds_stdout_document(tmp_path, capsys):
    path = save(tmp_path, worked_example())
    assert main(["bounds", "--scenario", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_updates"] == [1, 2]
    assert doc["metric_floor"] == pytest.approx(5.0 / 12.0, abs=1e-12)
    assert doc["divisor_ok"] is True
    assert doc["sufficient_speed"] == 2.0
    assert doc["weight_guidance"] == pytest.approx([0.4, 0.6])
    assert doc["uniform_times"] == pytest.approx([300.0, 450.0, 600.0])
    assert doc["uniform_order"] == [2, 1, 2]


def test_bounds_artifacts(tmp_path, capsys):
    path = save(tmp_path, worked_example())
    out = tmp_path / "run"
    assert main(["bounds", "--scenario", path, "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert read_json(out / "bounds.json") == doc
    assert read_json(out / "manifest.json")["command"] == "bounds"


def test_bounds_malformed_scenario_exit_2(tmp_path, capsys):
    doc = worked_example().to_document()
    doc["uav"]["initial"] = [None, 0.0]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["bounds", "--scenario", str(path)]) == 2
    assert "initial[0] must be a number" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def test_enumerate_artifacts(tmp_path, capsys):
    scenario = build_scenario([1, 1])
    path = save(tmp_path, scenario)
    out = tmp_path / "run"
    assert main(["enumerate", "--scenario", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("best order")
    doc = read_json(out / "result.json")
    assert doc["num_candidates"] == 5
    assert doc["num_solves"] == 2
    assert doc["num_pruned"] == 2
    assert doc["objective"] >= doc["lower_bound"] - 1e-9
    assert doc["best_solution"]["status"] == "optimal"
    rows = read_lines(out / "enumeration.csv")
    assert rows[0] == "order,objective,status,kkt_residual"
    assert len(rows) == 6


def test_enumerate_reports_pruned_candidates(tmp_path, capsys):
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "run"
    assert main(["enumerate", "--scenario", path, "--out", str(out)]) == 0
    assert "solves=2 pruned=2" in capsys.readouterr().out
    assert read_json(out / "result.json")["num_pruned"] == 2
    rows = [line.split(",") for line in read_lines(out / "enumeration.csv")[1:]]
    assert [(row[0], row[2]) for row in rows] == [
        ("", "optimal"),
        ("2", "pruned"),
        ("1", "pruned"),
        ("1-2", "optimal"),
        ("2-1", "optimal"),
    ]
    assert all(row[1] == row[3] == "" for row in rows if row[2] == "pruned")
    assert main(["eval", "--scenario", path, "--policy", "enumerate"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["num_solves"], doc["num_pruned"]) == (2, 2)


def test_enumerate_never_solves_pruned_nonconverged_order(tmp_path, capsys, monkeypatch):
    stub = nonconverged_at((1,))
    solved = []

    def record(scenario, order, **kwargs):
        solved.append(tuple(order))
        return stub(scenario, order, **kwargs)

    monkeypatch.setattr("aoiplan.exhaustive.solve_schedule", record)
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "run"
    assert main(["enumerate", "--scenario", path, "--out", str(out)]) == 0
    assert (1, 2) in solved and (1,) not in solved
    assert "1,,pruned," in read_lines(out / "enumeration.csv")
    assert read_json(out / "result.json")["best_order"] == [1, 2]


def test_enumerate_budget_exit_4(tmp_path, capsys):
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "run"
    code = main(["enumerate", "--scenario", path, "--budget", "3", "--out", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert "5" in err and "3" in err
    assert not (out / "result.json").exists()


def test_enumerate_nonconverged_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("aoiplan.exhaustive.solve_schedule", nonconverged_at((2, 1)))
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "run"
    assert main(["enumerate", "--scenario", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("best order 1-2 ")
    assert "1 candidate solves ended neither optimal nor infeasible" in captured.err
    assert read_json(out / "result.json")["best_order"] == [1, 2]
    assert any(row.startswith("2-1,0,max_iterations,") for row in read_lines(out / "enumeration.csv"))
    assert (out / "manifest.json").exists()


# ---------------------------------------------------------------------------
# train-dqn / eval
# ---------------------------------------------------------------------------


def test_train_dqn_artifacts_and_eval(tmp_path, capsys):
    scenario = build_scenario([1, 1])
    path = save(tmp_path, scenario)
    out = tmp_path / "run"
    argv = [
        "train-dqn",
        "--scenario", path,
        "--episodes", "6",
        "--seed", "5",
        "--hidden", "4",
        "--out", str(out),
    ]
    assert main(argv) == 0
    capsys.readouterr()

    train = read_json(out / "train.json")
    assert train["episodes"] == 6 and train["seed"] == 5
    assert 0.0 < train["greedy_nwaoi"] <= 1.0
    assert train["lower_bound"] == pytest.approx(lower_bound(scenario), rel=1e-12)
    assert len(read_lines(out / "learning_curve.csv")) == 7
    assert read_json(out / "manifest.json")["command"] == "train-dqn"

    agent = load_agent(out / "agent.ckpt", scenario)
    assert agent.repr.mode == "last_column"

    twin = tmp_path / "run2"
    assert main(argv[:-1] + [str(twin)]) == 0
    capsys.readouterr()
    assert (out / "learning_curve.csv").read_text() == (twin / "learning_curve.csv").read_text()

    code = main([
        "eval",
        "--scenario", path,
        "--policy", "dqn",
        "--checkpoint", str(out / "agent.ckpt"),
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["nwaoi"] == train["greedy_nwaoi"]
    assert doc["order"] == train["greedy_order"]


def test_train_dqn_encoder_flag_validation(tmp_path, capsys):
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "run"
    base = ["train-dqn", "--scenario", path, "--state-mode", "autoencoder", "--out", str(out)]
    assert main(base) == 1
    assert "--encoder" in capsys.readouterr().err
    code = main(base + ["--encoder", str(tmp_path / "missing.ckpt")])
    assert code == 3
    assert "not found" in capsys.readouterr().err


def test_train_dqn_encoder_without_autoencoder_mode_exit_1(tmp_path, capsys):
    path = save(tmp_path, build_scenario([1, 1]))
    encoder = tmp_path / "ae.ckpt"
    aoiplan.save_autoencoder(encoder, aoiplan.Seq2SeqAutoencoder.init(3, 2, np.random.default_rng(0)))
    out = tmp_path / "run"
    code = main([
        "train-dqn", "--scenario", path, "--state-mode", "last_column",
        "--encoder", str(encoder), "--out", str(out),
    ])
    assert code == 1
    assert "--state-mode autoencoder" in capsys.readouterr().err
    assert not out.exists()


def test_train_dqn_with_encoder_round_trip(tmp_path, capsys):
    scenario = build_scenario([1, 1])
    path = save(tmp_path, scenario)
    ae_out = tmp_path / "ae"
    assert main([
        "train-autoencoder",
        "--scenario", path,
        "--corpus-episodes", "2",
        "--sizes", "4",
        "--epochs", "2",
        "--out", str(ae_out),
    ]) == 0
    dqn_out = tmp_path / "dqn"
    assert main([
        "train-dqn",
        "--scenario", path,
        "--episodes", "4",
        "--hidden", "4",
        "--state-mode", "autoencoder",
        "--encoder", str(ae_out / "autoencoder.ckpt"),
        "--out", str(dqn_out),
    ]) == 0
    capsys.readouterr()
    agent = load_agent(dqn_out / "agent.ckpt", scenario)
    assert agent.repr.mode == "autoencoder"
    assert main([
        "eval",
        "--scenario", path,
        "--policy", "dqn-lstm",
        "--checkpoint", str(dqn_out / "agent.ckpt"),
    ]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# train-autoencoder
# ---------------------------------------------------------------------------


def test_train_autoencoder_artifacts(tmp_path, capsys):
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "run"
    code = main([
        "train-autoencoder",
        "--scenario", path,
        "--corpus-episodes", "2",
        "--sizes", "2,4",
        "--epochs", "2",
        "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out.startswith("best state size")
    train = read_json(out / "train.json")
    assert set(train["results"]) == {"2", "4"}
    assert train["best_size"] in (2, 4)
    assert train["num_train"] + train["num_test"] == train["corpus_states"]
    model, meta = load_autoencoder(out / "autoencoder.ckpt")
    assert meta["state_size"] == train["best_size"]
    assert model.state_size == train["best_size"]
    rows = read_lines(out / "search.csv")
    assert rows[0] == "state_size,test_mse"
    assert len(rows) == 3


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_enumerate_document(tmp_path, capsys):
    scenario = build_scenario([1, 1])
    path = save(tmp_path, scenario)
    out = tmp_path / "run"
    code = main(["eval", "--scenario", path, "--policy", "enumerate", "--out", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["policy"] == "enumerate"
    assert doc["num_candidates"] == 5
    assert doc["nwaoi"] >= doc["lower_bound"] - 1e-9
    assert read_json(out / "eval.json") == doc
    assert read_json(out / "manifest.json")["command"] == "eval"


def test_eval_enumerate_nonconverged_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("aoiplan.exhaustive.solve_schedule", nonconverged_at((2, 1)))
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "run"
    assert main(["eval", "--scenario", path, "--policy", "enumerate", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "1 candidate solves ended neither optimal nor infeasible" in captured.err
    doc = json.loads(captured.out)
    assert doc["order"] == [1, 2]
    assert read_json(out / "eval.json") == doc
    assert (out / "manifest.json").exists()


def test_eval_weight_deterministic(tmp_path, capsys):
    path = save(tmp_path, build_scenario([1, 1]))
    argv = ["eval", "--scenario", path, "--policy", "weight", "--episodes", "20", "--seed", "3"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert 0.0 < first["best_nwaoi"] <= first["mean_nwaoi"] <= 1.0
    assert first["stderr_nwaoi"] >= 0.0
    assert first["episodes"] == 20


def test_eval_checkpoint_guards(tmp_path, capsys):
    scenario = build_scenario([1, 1])
    path = save(tmp_path, scenario)
    assert main(["eval", "--scenario", path, "--policy", "dqn"]) == 1
    assert "--checkpoint" in capsys.readouterr().err
    code = main([
        "eval", "--scenario", path, "--policy", "dqn",
        "--checkpoint", str(tmp_path / "nope.ckpt"),
    ])
    assert code == 3
    capsys.readouterr()

    out = tmp_path / "run"
    assert main([
        "train-dqn", "--scenario", path, "--episodes", "4",
        "--hidden", "4", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    code = main([
        "eval", "--scenario", path, "--policy", "dqn-lstm",
        "--checkpoint", str(out / "agent.ckpt"),
    ])
    assert code == 3
    assert "state mode" in capsys.readouterr().err


def test_eval_checkpoint_without_meta_exit_3(tmp_path, capsys):
    path = save(tmp_path, build_scenario([1, 1]))
    ckpt = tmp_path / "agent.ckpt"
    save_checkpoint(ckpt, "qnet", [("net_w0", np.zeros((3, 3))), ("net_b0", np.zeros(3))], {})
    code = main(["eval", "--scenario", path, "--policy", "dqn", "--checkpoint", str(ckpt)])
    assert code == 3
    assert "num_nodes" in capsys.readouterr().err


def test_train_dqn_encoder_width_exit_3(tmp_path, capsys):
    ae_out = tmp_path / "ae"
    assert main([
        "train-autoencoder", "--scenario", save(tmp_path, build_scenario([1, 1]), "two.yaml"),
        "--corpus-episodes", "2", "--sizes", "4", "--epochs", "1", "--out", str(ae_out),
    ]) == 0
    code = main([
        "train-dqn", "--scenario", save(tmp_path, build_scenario([1, 1, 1]), "three.yaml"),
        "--episodes", "2", "--state-mode", "autoencoder",
        "--encoder", str(ae_out / "autoencoder.ckpt"), "--out", str(tmp_path / "dqn"),
    ])
    assert code == 3
    assert "encoder reads 3 entries per row" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_energy_axis(tmp_path, capsys):
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "run"
    code = main([
        "sweep",
        "--scenario", path,
        "--axis", "energy",
        "--values", "1.0,1.6",
        "--policies", "enumerate,weight",
        "--seeds", "0,1",
        "--out", str(out),
    ])
    assert code == 0
    assert "4 values" not in capsys.readouterr().out

    cells = read_lines(out / "cells.csv")
    assert cells[0] == "axis,value,policy,seed,nwaoi,lower_bound"
    assert len(cells) == 9

    rows = read_lines(out / "sweep.csv")
    assert rows[0] == "axis,value,policy,mean_nwaoi,stderr_nwaoi,lower_bound,num_seeds"
    assert len(rows) == 5
    table = {}
    for line in rows[1:]:
        axis, value, policy, mean, stderr, bound, n = line.split(",")
        assert axis == "energy" and n == "2"
        table[(float(value), policy)] = (float(mean), float(stderr), float(bound))
    # More battery admits more updates: optimum and floor both drop.
    assert table[(1.6, "enumerate")][0] < table[(1.0, "enumerate")][0]
    assert table[(1.6, "enumerate")][2] < table[(1.0, "enumerate")][2]
    # Exhaustive search ignores the seed, so its spread is exactly zero.
    assert table[(1.0, "enumerate")][1] == 0.0
    assert table[(1.0, "weight")][0] >= table[(1.0, "enumerate")][0] - 1e-9


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    path = save(tmp_path, build_scenario([1, 1]))
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    base = [
        "sweep",
        "--scenario", path,
        "--axis", "speed",
        "--values", "20,30",
        "--policies", "weight",
        "--seeds", "0,1",
    ]
    assert main(base + ["--workers", "1", "--out", str(serial)]) == 0
    assert main(base + ["--workers", "2", "--out", str(parallel)]) == 0
    capsys.readouterr()
    assert (serial / "cells.csv").read_text() == (parallel / "cells.csv").read_text()
    assert (serial / "sweep.csv").read_text() == (parallel / "sweep.csv").read_text()


def test_sweep_learned_policies_over_horizon(tmp_path, capsys):
    path = save(tmp_path, build_scenario([1, 1]))
    base = [
        "sweep", "--scenario", path, "--axis", "horizon", "--values", "900,1200",
        "--policies", "dqn,dqn-lstm", "--seeds", "0", "--episodes", "2",
        "--corpus-episodes", "2", "--ae-epochs", "1", "--state-size", "2",
    ]
    assert main(base + ["--workers", "1", "--out", str(tmp_path / "serial")]) == 0
    assert main(base + ["--workers", "2", "--out", str(tmp_path / "parallel")]) == 0
    capsys.readouterr()
    cells = read_lines(tmp_path / "serial" / "cells.csv")[1:]
    assert sorted(line.split(",")[1:3] for line in cells) == [
        ["1200", "dqn"], ["1200", "dqn-lstm"], ["900", "dqn"], ["900", "dqn-lstm"],
    ]
    for line in cells:
        metric, bound = map(float, line.split(",")[4:])
        assert bound - 1e-9 <= metric <= 1.0
    serial = (tmp_path / "serial" / "sweep.csv").read_text()
    assert serial == (tmp_path / "parallel" / "sweep.csv").read_text()


@pytest.mark.parametrize("counts", [[1, 1], [2, 2], [3, 3, 2]])
@pytest.mark.parametrize("policy", ["dqn", "dqn-lstm"])
def test_sweep_dqn_cell_trains_like_train_dqn(tmp_path, capsys, policy, counts):
    # A sweep cell trains as the commands do at their default learning flags:
    # a dqn cell as train-dqn, a dqn-lstm cell as train-autoencoder followed
    # by train-dqn on its encoder. So on one scenario, seed and episode count
    # they find the same greedy order.
    path = save(tmp_path, build_scenario(counts))
    common = ["--scenario", path, "--episodes", "20"]
    state = []
    if policy == "dqn-lstm":
        ae_out = tmp_path / "ae"
        assert main(["train-autoencoder", "--scenario", path, "--seed", "3", "--out", str(ae_out)]) == 0
        state = ["--state-mode", "autoencoder", "--encoder", str(ae_out / "autoencoder.ckpt")]
    assert main(["train-dqn", *common, *state, "--seed", "3", "--out", str(tmp_path / "dqn")]) == 0
    assert main(["sweep", *common, "--axis", "energy", "--values", "1", "--policies", policy,
                 "--seeds", "3", "--out", str(tmp_path / "sweep")]) == 0
    capsys.readouterr()
    (cell,) = read_lines(tmp_path / "sweep" / "cells.csv")[1:]
    greedy = read_json(tmp_path / "dqn" / "train.json")["greedy_nwaoi"]
    assert cell.split(",")[4] == f"{greedy:.10g}"


@pytest.mark.parametrize("policy", ["dqn", "dqn-lstm"])
def test_sweep_greedy_rollout_reads_the_training_cache(tmp_path, capsys, monkeypatch, policy):
    # A learned cell's greedy rollout re-solves no order its DQN training
    # solved: it reads the training's solve cache.
    solved = {"other": [], "train": [], "greedy": []}
    phase = ["other"]

    def in_phase(name, call):
        def run(*args, **kwargs):
            phase[0] = name
            try:
                return call(*args, **kwargs)
            finally:
                phase[0] = "other"

        return run

    def record(scenario, order, **kwargs):
        solved[phase[0]].append(tuple(order))
        return aoiplan.solve_schedule(scenario, order, **kwargs)

    monkeypatch.setattr("aoiplan.mdp.solve_schedule", record)
    monkeypatch.setattr("aoiplan.cli.dqn_train", in_phase("train", aoiplan.cli.dqn_train))
    monkeypatch.setattr("aoiplan.cli.greedy_evaluate", in_phase("greedy", aoiplan.cli.greedy_evaluate))
    path = save(tmp_path, build_scenario([2, 1]))
    code = main([
        "sweep", "--scenario", path, "--axis", "horizon", "--values", "900",
        "--policies", policy, "--seeds", "0", "--episodes", "20", "--corpus-episodes", "2",
        "--ae-epochs", "1", "--state-size", "2", "--workers", "1", "--out", str(tmp_path / "run"),
    ])
    capsys.readouterr()
    assert code == 0
    assert len(solved["train"]) > 3
    assert not set(solved["train"]) & set(solved["greedy"])


def test_sweep_lstm_cell_solves_each_order_once(tmp_path, capsys, monkeypatch):
    # A dqn-lstm cell's state corpus, its DQN training and its greedy rollout
    # share one solve cache, so no order is solved twice.
    solved = []

    def record(scenario, order, **kwargs):
        solved.append(tuple(order))
        return aoiplan.solve_schedule(scenario, order, **kwargs)

    monkeypatch.setattr("aoiplan.mdp.solve_schedule", record)
    path = save(tmp_path, build_scenario([2, 1]))
    code = main([
        "sweep", "--scenario", path, "--axis", "horizon", "--values", "900",
        "--policies", "dqn-lstm", "--seeds", "0", "--episodes", "20", "--corpus-episodes", "3",
        "--ae-epochs", "1", "--state-size", "2", "--workers", "1", "--out", str(tmp_path / "run"),
    ])
    capsys.readouterr()
    assert code == 0
    assert len(solved) > 3
    assert len(solved) == len(set(solved))


def test_sweep_enumerate_nonconverged_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("aoiplan.exhaustive.solve_schedule", nonconverged_at((2, 1)))
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "run"
    code = main([
        "sweep", "--scenario", path, "--axis", "energy", "--values", "1.0",
        "--policies", "enumerate", "--out", str(out),
    ])
    assert code == 2
    assert "1 candidate solves ended neither optimal nor infeasible" in capsys.readouterr().err
    assert len(read_lines(out / "cells.csv")) == 2
    assert len(read_lines(out / "sweep.csv")) == 2
    assert read_json(out / "manifest.json")["command"] == "sweep"


def test_sweep_nodes_axis_validation(tmp_path, capsys):
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "run"
    for values in ("3", "1.5", "nan"):
        code = main([
            "sweep", "--scenario", path, "--axis", "nodes",
            "--values", values, "--out", str(out),
        ])
        assert code == 2
        assert "template" in capsys.readouterr().err

    ok = main([
        "sweep", "--scenario", path, "--axis", "nodes",
        "--values", "1,2", "--policies", "enumerate", "--out", str(out),
    ])
    assert ok == 0
    capsys.readouterr()
    rows = read_lines(out / "sweep.csv")
    assert len(rows) == 3


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["train-dqn", "--episodes", "-1"], "--episodes"),
        (["train-dqn", "--batch-size", "0"], "--batch-size"),
        (["train-dqn", "--batch-size", "-3"], "--batch-size"),
        (["train-dqn", "--grad-steps", "0"], "--grad-steps"),
        (["train-dqn", "--hidden", "0"], "--hidden"),
        (["train-dqn", "--hidden", "4,0"], "--hidden"),
        (["train-autoencoder", "--sizes", "0"], "--sizes"),
        (["train-autoencoder", "--sizes", ""], "--sizes"),
        (["solve", "--max-iters", "0"], "--max-iters"),
        (["train-autoencoder", "--epochs", "0"], "--epochs"),
        (["train-autoencoder", "--corpus-episodes", "0"], "--corpus-episodes"),
        (["eval", "--policy", "weight", "--episodes", "0"], "--episodes"),
        (["sweep", "--axis", "energy", "--values", "1", "--episodes", "0"], "--episodes"),
        (["sweep", "--axis", "energy", "--values", "1", "--grad-steps", "-1"], "--grad-steps"),
        (["sweep", "--axis", "energy", "--values", "1", "--corpus-episodes", "0"], "--corpus-episodes"),
        (["sweep", "--axis", "energy", "--values", "1", "--state-size", "0"], "--state-size"),
        (["sweep", "--axis", "energy", "--values", "1", "--ae-epochs", "0"], "--ae-epochs"),
        (["sweep", "--axis", "energy", "--values", "1", "--workers", "0"], "--workers"),
        (["sweep", "--axis", "energy", "--values", "1", "--workers", "two"], "--workers"),
        (["solve", "--max-iters", "-3"], "--max-iters"),
        (["train-autoencoder", "--hidden-sizes", "4"], "--hidden-sizes"),
        (["enumerate", "--budget", "0"], "--budget"),
        (["enumerate", "--budget", "-5"], "--budget"),
        (["eval", "--policy", "enumerate", "--budget", "0"], "--budget"),
        (["eval", "--policy", "enumerate", "--budget", "-5"], "--budget"),
        (["sweep", "--axis", "energy", "--values", "1", "--budget", "0"], "--budget"),
        (["sweep", "--axis", "energy", "--values", "1", "--budget", "-5"], "--budget"),
    ],
)
def test_sizes_below_one_exit_1(tmp_path, capsys, argv, flag):
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "run"
    assert main(argv[:1] + ["--scenario", path] + argv[1:] + ["--out", str(out)]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["train-dqn", "--lr", "0"], "--lr"),
        (["train-dqn", "--lr", "-0.5"], "--lr"),
        (["train-dqn", "--lr", "inf"], "--lr"),
        (["train-dqn", "--epsilon-end", "1.5"], "--epsilon-end"),
        (["train-dqn", "--epsilon-end", "-0.01"], "--epsilon-end"),
        (["train-dqn", "--epsilon-decay-frac", "-2"], "--epsilon-decay-frac"),
        (["train-dqn", "--epsilon-decay-frac", "nan"], "--epsilon-decay-frac"),
        (["train-autoencoder", "--lr", "-1"], "--lr"),
        (["sweep", "--axis", "energy", "--values", "1", "--lr", "nan"], "--lr"),
        (["solve", "--tol", "inf"], "--tol"),
        (["solve", "--tol", "-1"], "--tol"),
        (["solve", "--tol", "0"], "--tol"),
        (["solve", "--tol", "nan"], "--tol"),
        (["enumerate", "--tol", "0"], "--tol"),
        (["train-dqn", "--penalty", "nan"], "--penalty"),
        (["train-dqn", "--penalty", "inf"], "--penalty"),
        (["train-dqn", "--penalty", "-1"], "--penalty"),
    ],
)
def test_learning_settings_out_of_range_exit_1(tmp_path, capsys, argv, flag):
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "run"
    assert main(argv[:1] + ["--scenario", path] + argv[1:] + ["--out", str(out)]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_in_range_settings_are_used(tmp_path, capsys):
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "solve"
    assert main(["solve", "--scenario", path, "--schedule", "1,2", "--tol", "1e-7", "--out", str(out)]) == 0
    assert read_json(out / "manifest.json")["arguments"]["tol"] == 1e-7
    out = tmp_path / "dqn"
    argv = ["train-dqn", "--scenario", path, "--episodes", "3", "--lr", "0.02",
            "--epsilon-end", "0", "--epsilon-decay-frac", "1", "--penalty", "0.5", "--out", str(out)]
    assert main(argv) == 0
    arguments = read_json(out / "manifest.json")["arguments"]
    assert (arguments["lr"], arguments["epsilon_end"], arguments["epsilon_decay_frac"]) == (0.02, 0.0, 1.0)
    assert arguments["penalty"] == 0.5
    gen = tmp_path / "gen.yaml"
    argv = ["generate", "--nodes", "2", "--region", "500", "--altitude", "60",
            "--vmax", "20", "--horizon", "600", "--out", str(gen)]
    assert main(argv) == 0
    uav = load_scenario(gen).uav
    assert (uav.altitude_m, uav.vmax_x, uav.vmax_y, uav.horizon_s) == (60.0, 20.0, 20.0, 600.0)
    assert load_scenario(gen).region == (500.0, 500.0)
    capsys.readouterr()


def test_workers_variable_sets_the_default(tmp_path, capsys, monkeypatch):
    # --workers is the worker count's one source: AOIPLAN_WORKERS in the
    # environment leaves the default at 1.
    monkeypatch.setenv("AOIPLAN_WORKERS", "2")
    path = save(tmp_path, build_scenario([1, 1]))
    base = ["sweep", "--scenario", path, "--axis", "energy", "--values", "1.0",
            "--policies", "enumerate"]
    for flag, want in (([], 1), (["--workers", "2"], 2)):
        out = tmp_path / f"run{want}"
        assert main(base + flag + ["--out", str(out)]) == 0
        assert read_json(out / "manifest.json")["arguments"]["workers"] == want
    capsys.readouterr()


def test_sweep_usage_errors(tmp_path, capsys):
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "run"
    code = main([
        "sweep", "--scenario", path, "--axis", "energy",
        "--values", "1.0", "--policies", "warp", "--out", str(out),
    ])
    assert code == 1
    assert "warp" in capsys.readouterr().err
    code = main([
        "sweep", "--scenario", path, "--axis", "energy",
        "--values", "x", "--out", str(out),
    ])
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize("flag, entries", [("--seeds", ""), ("--policies", ",")])
def test_sweep_empty_list_exit_1(tmp_path, capsys, flag, entries):
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "run"
    argv = ["sweep", "--scenario", path, "--axis", "energy", "--values", "1",
            flag, entries, "--out", str(out)]
    assert main(argv) == 1
    assert "--values, --seeds, and --policies must be non-empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, entries",
    [("--values", "1,1"), ("--values", "1,1.0"), ("--seeds", "0,0"), ("--policies", "weight,weight")],
)
def test_sweep_repeated_entries_exit_1(tmp_path, capsys, flag, entries):
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "run"
    argv = ["sweep", "--scenario", path, "--axis", "energy", "--values", "1",
            "--policies", "weight", flag, entries, "--out", str(out)]
    assert main(argv) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# JSON artifacts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["solve", "enumerate", "train-dqn"])
def test_json_artifacts_are_the_bytes_json_dump_writes(tmp_path, monkeypatch, capsys, command):
    path = save(tmp_path, build_scenario([1, 1]))
    out = tmp_path / "run"
    argv = {
        "solve": ["solve", "--scenario", path, "--schedule", "1,2"],
        "enumerate": ["enumerate", "--scenario", path],
        "train-dqn": ["train-dqn", "--scenario", path, "--episodes", "4", "--hidden", "4"],
    }[command]
    written = []
    write_json = cli._write_json

    def recording(target, doc):
        written.append((target, doc))
        write_json(target, doc)

    monkeypatch.setattr(cli, "_write_json", recording)
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    # The command's own document and its manifest.
    assert len(written) >= 2 and "manifest.json" in [target.name for target, _ in written]
    for target, doc in written:
        with open(tmp_path / "want.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        assert target.read_bytes() == (tmp_path / "want.json").read_bytes(), target.name


# ---------------------------------------------------------------------------
# Argument parsing: each command's own parser against the full tree
# ---------------------------------------------------------------------------

# Every flag of every command, each with a value its parser accepts.
EVERY_FLAG = {
    "generate": {
        "--nodes": "3", "--seed": "2", "--region": "500", "--altitude": "60",
        "--vmax": "10", "--horizon": "600", "--out": "g.yaml",
    },
    "solve": {
        "--scenario": "s.yaml", "--schedule": "1,2,1", "--tol": "1e-7",
        "--max-iters": "50", "--out": "o",
    },
    "bounds": {"--scenario": "s.yaml", "--out": "o"},
    "enumerate": {"--scenario": "s.yaml", "--budget": "99", "--tol": "1e-7", "--out": "o"},
    "train-dqn": {
        "--scenario": "s.yaml", "--episodes": "5", "--seed": "1", "--hidden": "8,8",
        "--lr": "0.01", "--optimizer": "sgd", "--epsilon-end": "0.1",
        "--epsilon-decay-frac": "0.5", "--batch-size": "4", "--grad-steps": "2",
        "--penalty": "0.5", "--state-mode": "autoencoder", "--encoder": "ae.ckpt", "--out": "o",
    },
    "train-autoencoder": {
        "--scenario": "s.yaml", "--corpus-episodes": "3", "--seed": "1", "--sizes": "4",
        "--epochs": "2", "--lr": "0.02", "--optimizer": "sgd", "--batch": "full", "--out": "o",
    },
    "eval": {
        "--scenario": "s.yaml", "--policy": "dqn", "--checkpoint": "a.ckpt", "--seed": "1",
        "--episodes": "3", "--budget": "99", "--out": "o",
    },
    "sweep": {
        "--scenario": "s.yaml", "--axis": "energy", "--values": "0.5,1", "--policies": "weight",
        "--seeds": "0,1", "--budget": "99", "--episodes": "3", "--lr": "0.01",
        "--optimizer": "sgd", "--grad-steps": "2", "--corpus-episodes": "3",
        "--state-size": "4", "--ae-epochs": "2", "--workers": "2", "--out": "o",
    },
}


def _argv(command, values):
    return [command] + [text for pair in values.items() for text in pair]


def _abbreviated(flag, flags):
    """flag's shortest prefix that names it alone among flags."""
    for end in range(3, len(flag) + 1):
        if flag[:end] == flag or [f for f in flags if f.startswith(flag[:end])] == [flag]:
            return flag[:end]


def _parsed_cases(command):
    """argvs of command that parse: the required flags alone, every flag,
    every flag abbreviated."""
    options = cli._COMMANDS[command][2]
    every = EVERY_FLAG[command]
    names = [flag for flag, _ in options] + ["--help"]
    required = {flag: every[flag] for flag, kw in options if kw.get("required")}
    abbreviated = {_abbreviated(flag, names): value for flag, value in every.items()}
    return [_argv(command, required), _argv(command, every), _argv(command, abbreviated)]


def _refused_cases(command):
    """argvs of command that end in help or a usage error."""
    options = cli._COMMANDS[command][2]
    every = EVERY_FLAG[command]
    required = {flag: every[flag] for flag, kw in options if kw.get("required")}
    cases = [[command], [command, "--help"], [command, "-h"], _argv(command, every) + ["--help"]]
    for flag, kw in options:
        if "type" in kw or "choices" in kw:
            cases += [_argv(command, {**every, flag: bad}) for bad in ("abc", "-1", "nan")]
        # Each flag's three-character prefix: unique, ambiguous or a bad value.
        cases.append(_argv(command, required) + [flag[:3], "1"])
    for flag in required:
        cases.append(_argv(command, {f: v for f, v in required.items() if f != flag}))
        cases.append([command, flag])
    for tail in (["--no-such-flag"], ["extra"], ["--", "x"], ["extra", "--no-such-flag", "x"]):
        cases.append(_argv(command, required) + tail)
    return cases


def _tree_main(argv):
    """main as the full tree alone runs it."""
    try:
        args = cli.build_parser().parse_args(argv)
    except cli._UsageError as exc:
        print(exc, file=sys.stderr)
        return cli.EXIT_USAGE
    return args.func(args)


def _outcome(run, argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


def test_every_flag_has_a_case():
    assert list(EVERY_FLAG) == list(cli._COMMANDS)
    for command, (_, _, options) in cli._COMMANDS.items():
        assert list(EVERY_FLAG[command]) == [flag for flag, _ in options]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_command_parser_holds_only_its_flags(command):
    parser = cli.build_parser(command)
    assert parser.prog == f"aoiplan {command}"
    assert parser._subparsers is None
    flags = [flag for flag, _ in cli._COMMANDS[command][2]]
    assert [s for a in parser._actions for s in a.option_strings] == ["-h", "--help"] + flags


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_command_parser_matches_tree(command):
    for argv in _parsed_cases(command):
        args = cli.build_parser(command).parse_args(argv[1:])
        tree = cli.build_parser().parse_args(argv)
        assert vars(args) == vars(tree)
        assert args.func is tree.func is cli._COMMANDS[command][1]
        assert args.command == command


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_main_matches_tree(command, capsys, monkeypatch):
    def handler(args):
        print(sorted((k, v) for k, v in vars(args).items() if k != "func"))
        return 7

    help_line, _, options = cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command, (help_line, handler, options))
    for argv in _parsed_cases(command) + _refused_cases(command):
        assert _outcome(main, argv, capsys) == _outcome(_tree_main, argv, capsys), argv


@pytest.mark.parametrize(
    "argv", [[], ["--help"], ["-h"], ["--he"], ["no-such-command"], ["sol"], ["--nodes", "2"]]
)
def test_main_without_a_command_matches_tree(argv, capsys):
    assert _outcome(main, argv, capsys) == _outcome(_tree_main, argv, capsys)


def test_main_builds_only_the_invoked_parser(tmp_path, capsys, monkeypatch):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *a: calls.append(a) or build(*a))
    path = save(tmp_path, build_scenario([1, 1]))
    assert main(["solve", "--scenario", path, "--schedule", "1,2", "--out", str(tmp_path / "o")]) == 0
    assert calls == [("solve",)]
    assert read_json(tmp_path / "o" / "manifest.json")["command"] == "solve"
    for argv in ([], ["--help"], ["no-such-command"]):
        calls.clear()
        _outcome(main, argv, capsys)
        assert calls == [(None,)]
    capsys.readouterr()
