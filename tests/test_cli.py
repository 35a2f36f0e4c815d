"""CLI subcommands: files written, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import groundspect as gs
from groundspect import io
from groundspect.cli import main

from conftest import K3_LAMBDA

# A graph file that parses but has too few nodes for any graph.
ONE_NODE = {"n": 1, "edges": [], "leaders": [1]}


@pytest.fixture()
def dense12_file(tmp_path, dense12):
    path = tmp_path / "dense12.json"
    io.save_graph(path, *dense12)
    return path


@pytest.fixture()
def k3_file(tmp_path, k3):
    path = tmp_path / "k3.json"
    io.save_graph(path, *k3)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestGen:
    def config(self, tmp_path, **kw):
        payload = {
            "leader_degrees": [2, 2],
            "initial_followers": 6,
            "steps": 3,
            "rng_seed": 11,
        }
        payload.update(kw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_writes_sequence_and_manifest(self, tmp_path):
        cfg = self.config(tmp_path)
        out = tmp_path / "out"
        assert run("gen", cfg, "-o", out) == 0
        seq = io.load_sequence(out / "sequence.json")
        assert len(seq) == 3
        manifest = io.load_json(out / "sequence.manifest.json")
        assert manifest["subcommand"] == "gen"
        assert manifest["rng_seed"] == 11

    def test_same_seed_identical_files(self, tmp_path):
        cfg = self.config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gen", cfg, "-o", a) == 0
        assert run("gen", cfg, "-o", b) == 0
        assert (a / "sequence.json").read_bytes() == (b / "sequence.json").read_bytes()

    def test_infeasible_config_domain_exit(self, tmp_path, capsys):
        cfg = self.config(tmp_path, leader_degrees=[9], initial_followers=3)
        assert run("gen", cfg, "-o", tmp_path) == 1
        assert "InfeasibleConfig" in capsys.readouterr().err

    def test_malformed_json_input_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run("gen", bad, "-o", tmp_path) == 2

    def test_missing_field_input_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"steps": 2}))
        assert run("gen", bad, "-o", tmp_path) == 2


class TestSpectral:
    def test_k3_lambda_in_output(self, tmp_path, k3_file):
        out = tmp_path / "out"
        assert run("spectral", k3_file, "-o", out) == 0
        payload = io.load_json(out / "k3.spectral.json")
        assert payload["lambda_F"] == pytest.approx(K3_LAMBDA, abs=1e-9)
        assert payload["perron"]["radius_error"] <= 1e-9

    def test_p2_vector_ratio(self, tmp_path, p2):
        path = tmp_path / "p2.json"
        io.save_graph(path, *p2)
        assert run("spectral", path, "-o", tmp_path) == 0
        payload = io.load_json(tmp_path / "p2.spectral.json")
        ratio = payload["v_F"][1] / payload["v_F"][0]
        assert ratio == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-9)

    def test_disconnected_rejected(self, tmp_path, capsys):
        path = tmp_path / "disc.json"
        io.save_json(path, {"n": 4, "edges": [[1, 2], [3, 4]], "leaders": [1]})
        assert run("spectral", path, "-o", tmp_path) == 1
        assert "FiedlerOutOfRange" in capsys.readouterr().err


class TestCheck:
    def test_certified_instance_exit_zero(self, tmp_path, dense12_file):
        assert run("check", dense12_file, "-o", tmp_path) == 0
        payload = io.load_json(tmp_path / "dense12.check.json")
        assert payload["separated"] is True
        assert payload["min_follower_degree"] == 9

    def test_adjacent_leaders_exit_one(self, tmp_path):
        g = gs.build_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        p = gs.make_partition(4, [0, 1])
        path = tmp_path / "adj.json"
        io.save_graph(path, g, p)
        assert run("check", path, "-o", tmp_path) == 1
        payload = io.load_json(tmp_path / "adj.check.json")
        assert payload["leaders_nonadjacent"] is False

    def test_single_leader_rhs_zero(self, tmp_path, k3_file):
        run("check", k3_file, "-o", tmp_path)
        payload = io.load_json(tmp_path / "k3.check.json")
        # one leader has no gap of its own; the two followers are symmetric
        assert payload["separation_rhs_other_gap"] == pytest.approx(0.0, abs=1e-12)
        assert "separation_rhs_nearest" not in payload


class TestSimulate:
    def test_writes_csv(self, tmp_path, k3_file):
        assert (
            run("simulate", k3_file, "--dim", 2, "--t-final", 2.0, "-o", tmp_path) == 0
        )
        times, states, velocities = io.read_trajectory_csv(tmp_path / "k3.traj.csv")
        assert times[0] == 0.0 and times[-1] == pytest.approx(2.0)
        assert states.shape[1:] == (3, 2)
        assert velocities.shape == states.shape

    def test_inputs_file_used(self, tmp_path, k3_file):
        upath = tmp_path / "u.json"
        io.save_json(upath, {"dimension": 1, "u": {"1": [5.0]}})
        assert (
            run("simulate", k3_file, "--inputs", upath, "--t-final", 60, "-o", tmp_path)
            == 0
        )
        _, states, _ = io.read_trajectory_csv(tmp_path / "k3.traj.csv")
        np.testing.assert_allclose(states[-1], 5.0, atol=1e-3)

    def test_disconnected_graph_exits_one(self, tmp_path, capsys):
        path = tmp_path / "disc.json"
        io.save_json(path, {"n": 4, "edges": [[1, 2], [3, 4]], "leaders": [1]})
        assert run("simulate", path, "-o", tmp_path) == 1
        assert "FiedlerOutOfRangeError" in capsys.readouterr().err


class TestIdentify:
    def test_recovers_file_leaders(self, tmp_path, dense12_file):
        upath = tmp_path / "u.json"
        io.save_json(
            upath, {"dimension": 2, "u": {"1": [40.0, 35.0], "2": [16.0, 45.0]}}
        )
        out = tmp_path / "out"
        assert run("identify", dense12_file, "--inputs", upath, "-o", out) == 0
        payload = io.load_json(out / "dense12.leaders.json")
        assert payload["leaders"] == [1, 2]
        assert payload["recovered"] is True
        assert set(payload) == {
            "n_leaders", "leaders", "sorted_values", "gap_size", "tie_flagged",
            "measurement_time", "predicted_dominance", "measured_dominance",
            "reference", "angle_to_true", "recovered",
        }  # README's list
        # the reference is the 1-based label of the fastest agent at the measured time
        times, _, velocities = io.read_trajectory_csv(out / "dense12.traj.csv")
        fastest = np.linalg.norm(velocities[times == payload["measurement_time"]][0], axis=1)
        assert payload["reference"] == int(fastest.argmax()) + 1
        assert (out / "dense12.traj.csv").exists()
        assert (out / "dense12.tempo.csv").exists()

    def test_steady_start_exits_nonzero(self, tmp_path, dense12_file, capsys):
        assert (
            run("identify", dense12_file, "--x0", "steady", "-o", tmp_path) == 1
        )
        assert "AllVelocitiesZero" in capsys.readouterr().err

    @pytest.mark.parametrize("integrator", ["exact", "rk4"])
    def test_writes_measured_dominance(self, tmp_path, dense12_file, integrator):
        assert run("identify", dense12_file, "--integrator", integrator, "-o", tmp_path) == 0
        payload = io.load_json(tmp_path / "dense12.leaders.json")
        assert payload["measured_dominance"] <= 1e-5

    def test_dominance_predicted_at_the_measured_time(self, tmp_path, dense12_file, dense12):
        # dt = 0.77 puts no recorded time on the certified time 5.24; 7 * 0.77 is nearest
        assert run("identify", dense12_file, "--dt", 0.77, "-o", tmp_path) == 0
        payload = io.load_json(tmp_path / "dense12.leaders.json")
        w = gs.fiedler_pair(gs.grounded_laplacian(*dense12)).spectrum
        t = payload["measurement_time"]
        assert t == pytest.approx(5.39)
        assert payload["predicted_dominance"] == np.exp(-(w[1] - w[0]) * t)

    def test_seed_repetition_reproduces_outputs(self, tmp_path, dense12_file):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("identify", dense12_file, "--seed", 5, "-o", a) == 0
        assert run("identify", dense12_file, "--seed", 5, "-o", b) == 0
        for name in ("dense12.leaders.json", "dense12.traj.csv", "dense12.tempo.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestOneDecomposition:
    """Each command decomposes once with LAPACK."""

    def test_identify_decomposes_once(self, tmp_path, dense12_file, decompositions):
        assert run("identify", dense12_file, "-o", tmp_path) == 0
        assert decompositions == {"eigh": 1}

    def test_pipeline_decomposes_each_graph_once(self, tmp_path, dense12_file, decompositions):
        assert run("pipeline", dense12_file, "-o", tmp_path) == 0
        assert decompositions == {"eigh": 1}


class TestPipeline:
    def test_batch_over_sequence(self, tmp_path):
        cfg = gs.SequenceConfig(
            leader_degrees=(2, 2), initial_followers=8, steps=3, rng_seed=4
        )
        seq = gs.generate_sequence(cfg)
        path = tmp_path / "seq.json"
        io.save_sequence(path, seq)
        out = tmp_path / "out"
        code = run("pipeline", path, "-o", out)
        payload = io.load_json(out / "pipeline_summary.json")
        assert len(payload["instances"]) == 3
        ok = all(
            not r.get("separated") or r.get("recovered")
            for r in payload["instances"]
        )
        assert code == (0 if ok else 1)

    def test_jobs_flag_gives_identical_summary(self, tmp_path, dense12_file, k3_file):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("pipeline", dense12_file, k3_file, "-o", a, "--jobs", 1) == 0
        assert run("pipeline", dense12_file, k3_file, "-o", b, "--jobs", 2) == 0
        assert (a / "pipeline_summary.json").read_bytes() == (
            b / "pipeline_summary.json"
        ).read_bytes()


def exit_code(*argv):
    """main's return value, or the exit code of an argparse rejection."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


class TestFlagRanges:
    """A flag value outside its range exits 2 with one error line, no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--dim", 0],
            ["simulate", "--dt", -1],
            ["simulate", "--record-every", 0],
            ["simulate", "--t-final", 0.001, "--dt", 0.01],
            ["simulate", "--t-final", "inf"],
            ["simulate", "--seed", -1],
            ["identify", "--dim", 0],
            ["identify", "--t-final", -1],
            ["identify", "--dt", 100],
            ["pipeline", "--dim", 0],
            ["pipeline", "--jobs", 0],
        ],
        ids=lambda argv: " ".join(map(str, argv)),
    )
    def test_exits_two(self, tmp_path, k3_file, capsys, argv):
        assert exit_code(*argv, k3_file, "-o", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert not (tmp_path / "out").exists()

    def test_unparsable_number_names_its_type(self, k3_file, capsys):
        assert exit_code("simulate", k3_file, "--dim", "two") == 2
        assert "invalid int value: 'two'" in capsys.readouterr().err


class TestNonObjectJson:
    """A JSON input whose top level is not an object exits 2."""

    @pytest.fixture()
    def three(self, tmp_path):
        path = tmp_path / "three.json"
        path.write_text("3")
        return path

    @pytest.mark.parametrize("subcommand", ["gen", "spectral", "check", "pipeline"])
    def test_file_argument(self, tmp_path, three, capsys, subcommand):
        assert run(subcommand, three, "-o", tmp_path) == 2
        assert "expected a JSON object" in capsys.readouterr().err

    def test_inputs_file(self, tmp_path, k3_file, three, capsys):
        assert run("simulate", k3_file, "--inputs", three, "-o", tmp_path) == 2
        assert "expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "element, message",
        [(3, "expected a JSON object"), (ONE_NODE, "graph needs at least 2 nodes, got n=1")],
        ids=["not-an-object", "one-node"],
    )
    def test_sequence_element_is_a_row_error(self, tmp_path, dense12_file, element, message):
        path = tmp_path / "seq.json"
        io.save_json(path, {"graphs": [element]})
        assert run("pipeline", path, dense12_file, "-o", tmp_path) == 1
        rows = io.load_json(tmp_path / "pipeline_summary.json")["instances"]
        assert message in rows[0]["error"]
        assert rows[1]["recovered"] is True


class TestMisfittingJson:
    """A JSON file that parses but does not fit the run exits 2 with one error line."""

    @staticmethod
    def single_error_line(capsys) -> str:
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if "error:" in line]
        return line

    @pytest.mark.parametrize(
        "u, labels",
        [({"2": [1.0]}, "[2]"), ({"1": [1.0], "2": [1.0], "3": [1.0]}, "[1, 2, 3]")],
        ids=["missing", "extra"],
    )
    @pytest.mark.parametrize("subcommand", ["identify", "simulate"])
    def test_input_labels_not_the_leaders(
        self, tmp_path, dense12_file, capsys, subcommand, u, labels
    ):
        upath = tmp_path / "u.json"
        io.save_json(upath, {"dimension": 1, "u": u})
        assert run(subcommand, dense12_file, "--inputs", upath, "-o", tmp_path) == 2
        line = self.single_error_line(capsys)
        assert str(upath) in line
        assert f"labels {labels} must be exactly the leaders [1, 2]" in line

    @pytest.mark.parametrize("graphs", [3, "abc"])
    def test_graphs_not_a_list(self, tmp_path, capsys, graphs):
        path = tmp_path / "seq.json"
        io.save_json(path, {"graphs": graphs})
        assert run("pipeline", path, "-o", tmp_path) == 2
        assert f"{path}: 'graphs' must be a JSON list" in self.single_error_line(capsys)

    @pytest.mark.parametrize(
        "graph, message",
        [
            ({"n": 3.9, "edges": [[1.5, 2], [2, 3]], "leaders": [True]}, "n must be an integer, got 3.9"),
            ({"n": 3, "edges": [[1.5, 2], [2, 3]], "leaders": [1]}, "label must be an integer, got 1.5"),
            ({"n": 3, "edges": [[1, 2], [2, 3]], "leaders": [True]}, "label must be an integer, got true"),
            ({"n": "3", "edges": [[1, 2], [2, 3]], "leaders": [1]}, 'n must be an integer, got "3"'),
            ({"n": 3, "edges": [[1, 2], [2, 2**70]], "leaders": [1]}, f"(1,{2**70 - 1}) outside"),
            (ONE_NODE, "graph needs at least 2 nodes, got n=1"),
        ],
        ids=["float-n", "float-label", "bool-leader", "string-n", "beyond-int64-label", "one-node"],
    )
    def test_graph_integers_not_truncated(self, tmp_path, capsys, graph, message):
        path = tmp_path / "g.json"
        io.save_json(path, graph)
        assert run("check", path, "-o", tmp_path) == 2
        assert message in self.single_error_line(capsys)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("leader_degrees", [2.7], "leader degree must be an integer, got 2.7"),
            ("initial_followers", 5.5, "initial_followers must be an integer, got 5.5"),
            ("steps", 2.2, "steps must be an integer, got 2.2"),
            ("rng_seed", True, "rng_seed must be an integer, got true"),
            ("rng_seed", -1, "rng_seed must be >= 0"),
        ],
        ids=["fraction-degree", "fraction-followers", "fraction-steps", "bool-seed", "negative-seed"],
    )
    def test_config_integers_checked(self, tmp_path, capsys, field, value, message):
        path = tmp_path / "config.json"
        config = {"leader_degrees": [2], "initial_followers": 5, "steps": 2, field: value}
        io.save_json(path, config)
        assert run("gen", path, "-o", tmp_path) == 2
        assert message in self.single_error_line(capsys)
        assert not (tmp_path / "sequence.json").exists()

    def test_fractional_input_dimension(self, tmp_path, dense12_file, capsys):
        upath = tmp_path / "u.json"
        io.save_json(upath, {"dimension": 2.5, "u": {"1": [1.0, 2.0], "2": [3.0, 4.0]}})
        assert run("identify", dense12_file, "--inputs", upath, "-o", tmp_path) == 2
        assert "dimension must be an integer, got 2.5" in self.single_error_line(capsys)

    @pytest.mark.parametrize("value", ["Infinity", "NaN"])  # both parse as Python JSON
    @pytest.mark.parametrize("subcommand", ["identify", "simulate"])
    def test_non_finite_inputs(self, tmp_path, dense12_file, capsys, subcommand, value):
        upath = tmp_path / "u.json"
        upath.write_text(f'{{"dimension": 1, "u": {{"1": [{value}], "2": [1.0]}}}}\n')
        assert run(subcommand, dense12_file, "--inputs", upath, "-o", tmp_path) == 2
        assert "input for node 1 is not finite" in self.single_error_line(capsys)

    @pytest.mark.parametrize(
        "u, label",
        [
            ({" +1 ": [1.0], "2": [2.0]}, '" +1 "'),
            ({"1": [1.0], "\u0662": [2.0]}, '"\\u0662"'),
            ({"01": [1.0], "1": [2.0], "2": [3.0]}, '"01"'),
        ],
        ids=["sign-and-spaces", "arabic-indic-digit", "leading-zero"],
    )
    def test_input_labels_canonical(self, tmp_path, dense12_file, capsys, u, label):
        upath = tmp_path / "u.json"
        io.save_json(upath, {"dimension": 1, "u": u})
        assert run("identify", dense12_file, "--inputs", upath, "-o", tmp_path) == 2
        line = self.single_error_line(capsys)
        assert f"node label must be a decimal integer, got {label}" in line

class TestMisc:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert gs.__version__ in capsys.readouterr().out

    def test_missing_file_is_input_error(self, tmp_path):
        assert run("spectral", tmp_path / "nope.json") == 2

    def test_oracle_command_is_gone(self, k3_file):
        assert exit_code("oracle", k3_file) == 2

    def test_import_leaves_scipy_unloaded(self):
        src = Path(gs.__file__).resolve().parent.parent
        code = "import sys, groundspect.cli; print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_gs_log_env(self, tmp_path, k3_file, monkeypatch, capsys):
        monkeypatch.setenv("GS_LOG", "debug")
        assert run("check", k3_file, "-o", tmp_path) in (0, 1)


def manifest_of(path):
    payload = io.load_json(path)
    assert payload.pop("numpy_version") == np.__version__
    return payload


def listing(outdir):
    return sorted(p.name for p in outdir.iterdir())


class TestManifests:
    """Each subcommand's output file names and manifest records, pinned."""

    def test_gen(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        io.save_json(cfg, {"leader_degrees": [2, 2], "initial_followers": 6, "steps": 3})
        out = tmp_path / "out"
        assert run("gen", cfg, "-o", out) == 0
        assert listing(out) == ["sequence.json", "sequence.manifest.json"]
        assert manifest_of(out / "sequence.manifest.json") == {
            "subcommand": "gen",
            "tool_version": gs.__version__,
            "rng_seed": 0,
            "config": {
                "leader_degrees": [2, 2],
                "initial_followers": 6,
                "steps": 3,
                "growth": "densify_edges",
                "rng_seed": 0,
            },
            "inputs": {"config": str(cfg)},
            "outputs": [str(out / "sequence.json")],
        }

    @pytest.mark.parametrize("subcommand", ["spectral", "check"])
    def test_spectral_and_check(self, tmp_path, dense12_file, subcommand):
        out = tmp_path / "out"
        assert run(subcommand, dense12_file, "-o", out) == 0
        assert listing(out) == [
            f"dense12.{subcommand}.json",
            f"dense12.{subcommand}.manifest.json",
        ]
        assert manifest_of(out / f"dense12.{subcommand}.manifest.json") == {
            "subcommand": subcommand,
            "tool_version": gs.__version__,
            "rng_seed": None,
            "config": {},
            "inputs": {"graph": str(dense12_file)},
            "outputs": [str(out / f"dense12.{subcommand}.json")],
        }

    def test_simulate_exact_generated_inputs(self, tmp_path, k3_file):
        out = tmp_path / "out"
        assert run("simulate", k3_file, "--t-final", 2.0, "-o", out) == 0
        assert listing(out) == ["k3.simulate.manifest.json", "k3.traj.csv"]
        assert manifest_of(out / "k3.simulate.manifest.json") == {
            "subcommand": "simulate",
            "tool_version": gs.__version__,
            "rng_seed": 0,
            "config": {
                "dimension": 2,
                "dt": 0.01,
                "t_final": 2.0,
                "record_every": 1,
                "integrator": "exact",
                "x0": "random",
                "generated_inputs": True,
            },
            "inputs": {"graph": str(k3_file), "inputs": "(generated)"},
            "outputs": [str(out / "k3.traj.csv")],
        }

    def test_simulate_rk4_file_inputs(self, tmp_path, k3_file):
        upath = tmp_path / "u.json"
        io.save_json(upath, {"dimension": 1, "u": {"1": [5.0]}})
        out = tmp_path / "out"
        argv = ["--inputs", upath, "--integrator", "rk4", "--record-every", 7,
                "--x0", "steady", "--t-final", 1.0, "--dt", 0.05, "--seed", 3]
        assert run("simulate", k3_file, *argv, "-o", out) == 0
        assert listing(out) == ["k3.simulate.manifest.json", "k3.traj.csv"]
        assert manifest_of(out / "k3.simulate.manifest.json") == {
            "subcommand": "simulate",
            "tool_version": gs.__version__,
            "rng_seed": 3,
            "config": {
                "dimension": 1,
                "dt": 0.05,
                "t_final": 1.0,
                "record_every": 7,
                "integrator": "rk4",
                "x0": "steady",
                "generated_inputs": False,
            },
            "inputs": {"graph": str(k3_file), "inputs": str(upath)},
            "outputs": [str(out / "k3.traj.csv")],
        }

    @pytest.mark.parametrize("with_inputs", [False, True])
    def test_identify(self, tmp_path, dense12_file, with_inputs):
        upath = tmp_path / "u.json"
        io.save_json(upath, {"dimension": 2, "u": {"1": [40.0, 35.0], "2": [16.0, 45.0]}})
        out = tmp_path / "out"
        argv = ["--inputs", upath] if with_inputs else []
        assert run("identify", dense12_file, *argv, "-o", out) == 0
        names = ["dense12.leaders.json", "dense12.tempo.csv", "dense12.traj.csv"]
        assert listing(out) == sorted(names + ["dense12.identify.manifest.json"])
        payload = manifest_of(out / "dense12.identify.manifest.json")
        assert set(payload) == {
            "subcommand", "tool_version", "rng_seed", "config", "inputs", "outputs"
        }
        assert set(payload["config"]) == {
            "dimension", "dt", "t_final", "record_every", "integrator", "x0",
            "generated_inputs",
        }
        assert payload["config"]["generated_inputs"] is not with_inputs
        assert payload["inputs"] == {
            "graph": str(dense12_file),
            "inputs": str(upath) if with_inputs else "(generated)",
        }
        assert payload["outputs"] == [str(out / name) for name in names]

    def test_pipeline(self, tmp_path, dense12_file, k3_file):
        out = tmp_path / "out"
        assert run("pipeline", dense12_file, k3_file, "--seed", 2, "-o", out) == 0
        assert listing(out) == ["pipeline_summary.json", "pipeline_summary.manifest.json"]
        assert manifest_of(out / "pipeline_summary.manifest.json") == {
            "subcommand": "pipeline",
            "tool_version": gs.__version__,
            "rng_seed": 2,
            "config": {"jobs": 1, "dim": 2},
            "inputs": {"path0": str(dense12_file), "path1": str(k3_file)},
            "outputs": [str(out / "pipeline_summary.json")],
        }
