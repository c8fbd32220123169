"""Command-line contract: exit codes, printed values, and file outputs."""

import json

import pytest

import graphbo
from graphbo.bo import read_history_csv
from graphbo.cli import dispatch

from conftest import complete_graph


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.jsonl"
    graphbo.write_graphs(path, [complete_graph(2)])
    return str(path)


def test_missing_required_flag_is_usage_error(capsys):
    assert dispatch(["kernel", "--variant", "ssp"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert dispatch(["frobnicate"]) == 1


def test_kernel_prints_value(capsys, k2_file):
    code = dispatch(["kernel", "--variant", "ssp", "--a", k2_file, "--b", k2_file])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0.5"


def test_kernel_bad_edge_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"directed": False, "n": 3, "edges": [[0, 1], [1, 5]],
                                "features": [[1], [1], [1]], "num_labels": 1}) + "\n")
    assert dispatch(["kernel", "--variant", "ssp", "--a", str(path), "--b", str(path)]) == 2
    assert "[1, 5]" in capsys.readouterr().err


def test_fractional_user_row_index_is_input_error(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"domain": {"n": 3, "extra_rows": [{"adjacency": [[0.7, 1.9, 1]]}]}}))
    assert dispatch(["--config", str(config), "enumerate",
                     "--out", str(tmp_path / "graphs.jsonl")]) == 2
    assert "0.7" in capsys.readouterr().err


def test_kernel_feature_and_combined(capsys, k2_file, tmp_path):
    assert dispatch(["kernel", "--variant", "ssp", "--a", k2_file, "--b", k2_file,
                     "--combined", "--alpha", "2", "--beta", "0"]) == 0
    assert float(capsys.readouterr().out) == 1.0


@pytest.mark.parametrize("flag,value", [("--alpha", "nan"), ("--beta", "inf"),
                                        ("--alpha", "-1")])
def test_kernel_non_finite_weight_is_input_error(capsys, k2_file, flag, value):
    assert dispatch(["kernel", "--variant", "ssp", "--a", k2_file, "--b", k2_file,
                     "--combined", flag, value]) == 2
    assert "finite and nonnegative" in capsys.readouterr().err


def test_enumerate_counts(capsys, tmp_path):
    out = tmp_path / "graphs.jsonl"
    assert dispatch(["enumerate", "--n", "4", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "38"
    assert len(graphbo.read_graphs(out)) == 38


def test_sample_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out1, out2):
        assert dispatch(["--seed", "9", "sample", "--n", "4", "--labels", "2",
                         "--count", "3", "--out", str(out)]) == 0
    assert graphbo.read_graphs(out1) == graphbo.read_graphs(out2)


def test_verify_bijection(capsys):
    assert dispatch(["verify-bijection", "--n", "3", "--directed"]) == 0
    out = capsys.readouterr().out
    assert "feasible=18" in out and "connected=18" in out


def test_verify_bijection_bounded(capsys):
    assert dispatch(["verify-bijection", "--n", "3", "--n-min", "1",
                     "--directed"]) == 0
    assert "feasible=20" in capsys.readouterr().out


def test_runtime_error_exit_code(tmp_path):
    missing = str(tmp_path / "nope.jsonl")
    assert dispatch(["kernel", "--variant", "ssp", "--a", missing,
                     "--b", missing]) == 2


def test_encode_refuses_bounded_sizes(tmp_path, capsys):
    dom = graphbo.DomainSpec(n=3, n_min=1, num_labels=1)
    graphs = [graphbo.sample_feasible(dom, s) for s in range(5)]
    dataset = tmp_path / "data.json"
    graphbo.write_dataset(dataset, [(g, float(i)) for i, g in enumerate(graphs)])
    model_path = tmp_path / "model.json"
    assert dispatch(["fit", "--data", str(dataset), "--out", str(model_path)]) == 0
    capsys.readouterr()
    code = dispatch(["encode", "--model", str(model_path), "--n", "3",
                     "--n-min", "1", "--out", str(tmp_path / "m.mps")])
    assert code == 2
    assert "fix the size" in capsys.readouterr().err


def test_encode_lp_reads_back(tmp_path, capsys):
    dom = graphbo.DomainSpec(n=3, num_labels=2)
    graphs = [graphbo.sample_feasible(dom, s) for s in range(5)]
    dataset = tmp_path / "data.json"
    graphbo.write_dataset(dataset, [(g, float(i % 2)) for i, g in enumerate(graphs)])
    model_path = tmp_path / "model.json"
    assert dispatch(["--seed", "0", "fit", "--data", str(dataset), "--variant", "esp",
                     "--out", str(model_path)]) == 0
    capsys.readouterr()
    lp_path = tmp_path / "model.lp"
    assert dispatch(["encode", "--model", str(model_path), "--n", "3", "--labels", "2",
                     "--format", "lp", "--breakpoints", "8", "--out", str(lp_path)]) == 0
    printed = capsys.readouterr().out.split()
    parsed = graphbo.read_lp(lp_path)
    assert printed == [f"variables={parsed.num_variables}",
                       f"rows={parsed.num_constraints}"]
    assert parsed.objective == {"mu": 1.0, "sigma": -1.0}
    assert any(name.startswith("z_exp_") for name in parsed.variables)


def test_config_unknown_keys_rejected(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "mystery": True}))
    assert dispatch(["--config", str(config), "enumerate", "--n", "3"]) == 2


def test_predict_prints_gp_lcb(tmp_path, capsys):
    # every printed lcb is gp.lcb's number for its graph, digit for digit
    dom = graphbo.DomainSpec(n=3, num_labels=2)
    dataset = tmp_path / "data.json"
    graphbo.write_dataset(dataset, [(graphbo.sample_feasible(dom, s), 0.1 * s)
                                    for s in range(6)])
    model_path = tmp_path / "model.json"
    assert dispatch(["fit", "--data", str(dataset), "--variant", "essp",
                     "--out", str(model_path)]) == 0
    queries = list(graphbo.enumerate_domain(dom))
    graphs_path = tmp_path / "query.jsonl"
    graphbo.write_graphs(graphs_path, queries)
    capsys.readouterr()
    assert dispatch(["predict", "--model", str(model_path), "--graphs",
                     str(graphs_path), "--beta-sqrt", "1.7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    model = graphbo.load_model(model_path)
    assert len(lines) == len(queries)
    for line, graph in zip(lines, queries):
        assert line.split(",")[3] == repr(graphbo.lcb(model, graph, 1.7))


@pytest.mark.parametrize("restarts", ["0", "-2"])
def test_fit_refuses_fewer_than_one_restart(tmp_path, capsys, restarts):
    dataset = tmp_path / "data.json"
    dom = graphbo.DomainSpec(n=3, num_labels=2)
    graphs = [graphbo.sample_feasible(dom, s) for s in range(4)]
    graphbo.write_dataset(dataset, [(g, float(i)) for i, g in enumerate(graphs)])
    model_path = tmp_path / "model.json"
    assert dispatch(["fit", "--data", str(dataset), "--restarts", restarts,
                     "--out", str(model_path)]) == 2
    assert "restarts" in capsys.readouterr().err
    assert not model_path.exists()


def test_fit_predict_encode_solve_pipeline(tmp_path, capsys, rng):
    dom_args = ["--n", "3", "--labels", "2"]
    dataset = tmp_path / "data.json"
    dom = graphbo.DomainSpec(n=3, num_labels=2)
    graphs = [graphbo.sample_feasible(dom, s) for s in range(6)]
    graphbo.write_dataset(dataset, [(g, float(i % 3)) for i, g in enumerate(graphs)])

    model_path = tmp_path / "model.json"
    assert dispatch(["--seed", "0", "fit", "--data", str(dataset), "--variant",
                     "ssp", "--out", str(model_path)]) == 0
    assert "alpha=" in capsys.readouterr().out

    graphs_path = tmp_path / "query.jsonl"
    graphbo.write_graphs(graphs_path, graphs[:2])
    assert dispatch(["predict", "--model", str(model_path), "--graphs",
                     str(graphs_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "index,mu,var,lcb"
    assert len(lines) == 3

    mps_path = tmp_path / "model.mps"
    assert dispatch(["encode", "--model", str(model_path), *dom_args,
                     "--format", "mps", "--breakpoints", "16",
                     "--out", str(mps_path)]) == 0
    assert "variables=" in capsys.readouterr().out
    parsed = graphbo.read_mps(mps_path)
    assert parsed.num_variables > 0

    proposal_path = tmp_path / "proposal.jsonl"
    assert dispatch(["solve", "--model", str(model_path), *dom_args,
                     "--strategy", "enumerate", "--out", str(proposal_path)]) == 0
    out = capsys.readouterr().out
    assert "status=Optimal" in out
    assert len(graphbo.read_graphs(proposal_path)) == 1

    # unscored warm starts seed the branch-and-propagate incumbent
    assert dispatch(["solve", "--model", str(model_path), *dom_args,
                     "--strategy", "branch_and_propagate", "--warm", "3"]) == 0
    assert "status=Optimal" in capsys.readouterr().out


def test_solve_nan_budget_is_input_error(tmp_path, capsys):
    dom = graphbo.DomainSpec(n=3, num_labels=1)
    graphs = [graphbo.sample_feasible(dom, s) for s in range(4)]
    model_path = tmp_path / "model.json"
    graphbo.dump_model(graphbo.fit(graphs, [0.0, 1.0, 2.0, 3.0], "ssp", seed=0), model_path)
    solve_args = ["solve", "--model", str(model_path), "--n", "3"]
    assert dispatch(solve_args + ["--budget", "nan"]) == 2
    assert "budget" in capsys.readouterr().err
    # a budget of 0 is spent at once: no incumbent exits 2, one exits 0
    dispatch(solve_args + ["--budget", "0"])
    assert capsys.readouterr().out.startswith(("status=FeasibleTimeLimit",
                                               "status=BudgetExhausted"))
    assert dispatch(solve_args + ["--budget", "inf"]) == 0
    assert capsys.readouterr().out.startswith("status=Optimal")
    assert dispatch(["bo", "--n", "3", "--oracle", "path_profile", "--target", "3,4,2",
                     "--budget", "nan"]) == 2


def test_bo_and_baseline_write_parseable_history(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 2,
        "domain": {"n": 3, "num_labels": 1},
        "variant": "ssp",
        "oracle": {"name": "path_profile", "target": [3, 4, 2]},
        "initial_samples": 4,
        "iterations": 3,
        "warm_start_count": 3,
        "strategy": "enumerate",
    }))
    for command in ("bo", "baseline"):
        history = tmp_path / f"{command}.csv"
        proposals = tmp_path / f"{command}.jsonl"
        code = dispatch(["--config", str(config), command,
                         "--history", str(history),
                         "--proposals", str(proposals)])
        assert code == 0
        rows = read_history_csv(history)
        assert len(rows) == 7
        best = [row["best_y"] for row in rows]
        assert all(a >= b for a, b in zip(best, best[1:]))
        assert len(graphbo.read_graphs(proposals)) == 7
    assert "best_y=" in capsys.readouterr().out


def test_seed_flag_overrides_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1}))
    outs = []
    for argv in (["--config", str(config), "sample", "--n", "4"],
                 ["--config", str(config), "--seed", "1", "sample", "--n", "4"]):
        out = tmp_path / f"s{len(outs)}.jsonl"
        assert dispatch(argv + ["--out", str(out)]) == 0
        outs.append(graphbo.read_graphs(out))
    assert outs[0] == outs[1]
