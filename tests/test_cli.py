"""CLI subcommands: files written, exit codes, determinism."""

import concurrent.futures
import faulthandler
import gc
import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import groundspect as gs
from groundspect import cli, io
from groundspect.cli import main
from groundspect.errors import MeasurementTimeCappedWarning

from conftest import K3_LAMBDA
from test_spectral import mapped_openblas_getters, openblas_thread_counts
from trajectory_csv import read_trajectory_csv

# A graph file that parses but has too few nodes for any graph.
ONE_NODE = {"n": 1, "edges": [], "leaders": [1]}
# A graph file whose adjacency alone would take 9.3 GiB.
HUGE = {"n": 100000, "edges": [[1, 2]], "leaders": [1]}
# Seconds a `pipeline --jobs N` test may take; each takes about one.
POOL_DEADLINE_S = 120


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


@pytest.fixture()
def pool_deadline(request):
    """Ends the test run with every thread's traceback if a pool test outlives
    POOL_DEADLINE_S, so that a deadlocked pool fails the suite instead of hanging it.
    It kills the pool's workers first: exiting skips the pool's shutdown, so a
    deadlocked worker would otherwise outlive the run."""
    capture = request.config.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled():  # the traceback goes to the real stderr
        stderr = os.dup(2)

    def expire():
        faulthandler.dump_traceback(file=stderr)
        for child in multiprocessing.active_children():
            child.kill()
            child.join()
        os._exit(1)

    timer = threading.Timer(POOL_DEADLINE_S, expire)
    timer.start()
    yield
    timer.cancel()
    timer.join()
    os.close(stderr)


def row_with_thread_counts(job):
    """The pipeline row plus the worker's OS thread count and OpenBLAS counts;
    module-level, so a pool can send it to its workers."""
    row = PIPELINE_WORKER(job)
    row["threads"] = len(os.listdir("/proc/self/task"))
    row["blas_threads"] = [get() for get in openblas_thread_counts()]
    return row


PIPELINE_WORKER = cli._pipeline_worker


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
        path = out / "sequence.json"
        assert len([io.graph_from_dict(item) for _, item in io.load_instances(path)]) == 3
        config = io.sequence_config_from_dict(io.load_json(path)["config"])
        assert config == io.sequence_config_from_dict(io.load_json(cfg))
        manifest = io.load_json(out / "sequence.manifest.json")
        assert manifest["subcommand"] == "gen"
        assert manifest["args"] == {"config": str(cfg), "outdir": str(out)}

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
        times, states, velocities = read_trajectory_csv(tmp_path / "k3.traj.csv")
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
        _, states, _ = read_trajectory_csv(tmp_path / "k3.traj.csv")
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
        times, _, velocities = read_trajectory_csv(out / "dense12.traj.csv")
        fastest = np.linalg.norm(velocities[times == payload["measurement_time"]][0], axis=1)
        assert payload["reference"] == int(fastest.argmax()) + 1
        assert (out / "dense12.traj.csv").exists()
        assert (out / "dense12.tempo.csv").exists()

    def test_writes_measured_dominance(self, tmp_path, dense12_file):
        assert run("identify", dense12_file, "-o", tmp_path) == 0
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

    def test_far_horizon_measures_early_with_a_warning(self, tmp_path, dense12_file):
        # --t-final 20000 puts rows 39 apart, so t = 0 is nearest the certified 5.24
        with pytest.warns(MeasurementTimeCappedWarning, match="at t=0, predicted dominance 1"):
            code = run("identify", dense12_file, "--t-final", 20000, "-o", tmp_path)
        payload = io.load_json(tmp_path / "dense12.leaders.json")
        assert payload["measurement_time"] == 0.0
        assert code == (0 if payload["recovered"] else 1)

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

    @pytest.mark.usefixtures("pool_deadline")
    def test_jobs_flag_gives_identical_summary(self, tmp_path, dense12_file, k3_file):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("pipeline", dense12_file, k3_file, "-o", a, "--jobs", 1) == 0
        assert run("pipeline", dense12_file, k3_file, "-o", b, "--jobs", 2) == 0
        assert (a / "pipeline_summary.json").read_bytes() == (
            b / "pipeline_summary.json"
        ).read_bytes()

    @pytest.mark.usefixtures("pool_deadline")
    def test_pool_leaves_the_caller_as_it_found_it(self, tmp_path, dense12_file, k3_file):
        getters = mapped_openblas_getters()
        frozen = gc.get_freeze_count()
        counts = [get() for get in getters]
        assert run("pipeline", dense12_file, k3_file, "-o", tmp_path, "--jobs", 2) == 0
        assert gc.get_freeze_count() == frozen
        assert [get() for get in getters] == counts

    @pytest.mark.usefixtures("pool_deadline")
    def test_pool_workers_stay_on_one_thread(self, tmp_path, dense12_file, k3_file, monkeypatch):
        getters = mapped_openblas_getters()
        if not getters or not os.path.isdir("/proc/self/task"):
            pytest.skip("no OpenBLAS mapped into the process, or no /proc")
        monkeypatch.setattr(cli, "_pipeline_worker", row_with_thread_counts)
        assert run("pipeline", dense12_file, k3_file, "-o", tmp_path, "--jobs", 2) == 0
        rows = io.load_json(tmp_path / "pipeline_summary.json")["instances"]
        counts = [(row["threads"], row["blas_threads"]) for row in rows]
        assert counts == [(1, [1] * len(getters))] * 2

    @pytest.mark.usefixtures("pool_deadline")
    def test_pool_never_exceeds_the_instances(self, tmp_path, dense12_file, k3_file, monkeypatch):
        sizes = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("pipeline", dense12_file, k3_file, "-o", a, "--jobs", 1) == 0
        assert run("pipeline", dense12_file, k3_file, "-o", b, "--jobs", 3) == 0
        assert sizes == [2]
        assert (a / "pipeline_summary.json").read_bytes() == (
            b / "pipeline_summary.json"
        ).read_bytes()
        empty = tmp_path / "empty.json"
        io.save_json(empty, {"graphs": []})
        assert run("pipeline", empty, "-o", tmp_path / "c", "--jobs", 2) == 0
        assert io.load_json(tmp_path / "c" / "pipeline_summary.json") == {"instances": []}
        assert sizes == [2]

    @pytest.mark.parametrize("run_fails", [False, True], ids=["identified", "run-fails"])
    def test_row_is_check_and_identify_records(
        self, tmp_path, dense12_file, k3_file, monkeypatch, run_fails
    ):
        if run_fails:
            def fail(*args):
                raise gs.errors.DegenerateEstimateError("no gap")

            monkeypatch.setattr(cli, "run_pipeline", fail)
        out = tmp_path / "out"
        code = run("pipeline", dense12_file, k3_file, "--jobs", 1, "-o", out)
        assert code == (1 if run_fails else 0)
        rows = io.load_json(out / "pipeline_summary.json")["instances"]
        assert len(rows) == 2
        for seed, (path, row) in enumerate(zip([dense12_file, k3_file], rows)):
            run("check", path, "-o", tmp_path / "check")
            certificate = io.load_json(tmp_path / "check" / f"{path.stem}.check.json")
            assert row.pop("instance") == str(path)
            if run_fails:
                assert row.pop("error") == "DegenerateEstimateError: no gap"
                assert row == certificate
                continue
            # the worker's run, repeated with the worker's seed
            g, p = io.load_graph(path)
            u = cli._generated_inputs(p, 2, seed)
            spect = gs.check_identifiability(g, p).spectral
            estimate, diag = gs.run_pipeline(spect, u, cli._random_x0(g, u, seed))
            record = json.loads(json.dumps(estimate.to_json() | diag.to_json()))
            del record["sorted_values"]
            assert not set(certificate) & set(record)
            assert row == certificate | record


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

    @pytest.mark.parametrize("subcommand", ["gen", "spectral", "check", "pipeline", "--inputs"])
    def test_not_utf8(self, tmp_path, k3_file, capsys, subcommand):
        path = tmp_path / "latin1.json"
        text = b'{"n": 2, "edges": [[1, 2]], "leaders": [1], "name": "\xff"}'
        path.write_bytes(text)
        if subcommand == "--inputs":
            argv = ["simulate", k3_file, "--inputs", path]
        else:
            argv = [subcommand, path]
        assert run(*argv, "-o", tmp_path) == 2
        line = TestMisfittingJson.single_error_line(capsys)
        assert f"{path}: not UTF-8 text at byte {text.index(0xFF)}" in line

    @pytest.mark.parametrize(
        "element, message",
        [
            (3, "expected a JSON object"),
            (ONE_NODE, "graph needs at least 2 nodes, got n=1"),
            (HUGE, "n = 100000 exceeds the 11585-node cap"),
        ],
        ids=["not-an-object", "one-node", "huge"],
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
            ({"n": 3, "edges": [[1.5, 2], [2, 3]], "leaders": [1]}, "edge [1.5, 2] must be an integer, got 1.5"),
            ({"n": 3, "edges": [[1, 2], [2, 3]], "leaders": [True]}, "leader must be an integer, got true"),
            ({"n": "3", "edges": [[1, 2], [2, 3]], "leaders": [1]}, 'n must be an integer, got "3"'),
            ({"n": 3, "edges": [[1, 2], [2, 2**70]], "leaders": [1]}, f"edge (2,{2**70}) outside [1,4)"),
            (ONE_NODE, "graph needs at least 2 nodes, got n=1"),
            (HUGE, "n = 100000 exceeds the 11585-node cap"),
        ],
        ids=[
            "float-n", "float-label", "bool-leader", "string-n", "beyond-int64-label", "one-node",
            "huge",
        ],
    )
    def test_graph_integers_not_truncated(self, tmp_path, capsys, graph, message):
        path = tmp_path / "g.json"
        io.save_json(path, graph)
        assert run("check", path, "-o", tmp_path) == 2
        assert message in self.single_error_line(capsys)

    @pytest.mark.parametrize("endpoint, shown", [(True, "true"), ("3", '"3"'), (2.5, "2.5")])
    def test_endpoint_error_quotes_the_edge_as_written(self, tmp_path, capsys, endpoint, shown):
        path = tmp_path / "g.json"
        io.save_json(path, {"n": 3, "edges": [[1, endpoint]], "leaders": [1]})
        assert run("check", path, "-o", tmp_path) == 2
        message = f"endpoint of edge [1, {shown}] must be an integer, got {shown}"
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

    @pytest.mark.parametrize("entry", ['"1.5"', "true"], ids=["string-entry", "bool-entry"])
    def test_input_entry_not_a_number(self, tmp_path, dense12_file, capsys, entry):
        upath = tmp_path / "u.json"
        upath.write_text('{"dimension": 1, "u": {"1": [1.0], "2": [%s]}}\n' % entry)
        assert run("identify", dense12_file, "--inputs", upath, "-o", tmp_path) == 2
        assert "input for node 2 has a non-numeric entry" in self.single_error_line(capsys)

    def test_input_beyond_float_range(self, tmp_path, dense12_file, capsys):
        upath = tmp_path / "u.json"
        upath.write_text('{"dimension": 1, "u": {"1": [1%s], "2": [1.0]}}\n' % ("0" * 400))
        assert run("identify", dense12_file, "--inputs", upath, "-o", tmp_path) == 2
        assert "too large to convert to float" in self.single_error_line(capsys)

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

    @pytest.mark.parametrize("subcommand", ["simulate", "identify"])
    @pytest.mark.parametrize(
        "flag", [["--integrator", "rk4"], ["--x0", "steady"]], ids=["integrator", "x0"]
    )
    def test_reference_flags_are_gone(self, tmp_path, k3_file, capsys, subcommand, flag):
        # rk4 is reached through gs.SimConfig(integrator="rk4"), not the CLI
        assert exit_code(subcommand, k3_file, *flag, "-o", tmp_path) == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

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


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_records(entry: str) -> list[set[str]]:
    """The quoted names in each `{...}` span of README's "File formats" entry."""
    text = README.read_text()
    start = text.index(f"- **{entry}**")
    bullet = re.split(r"\n(?:- |\n)", text[start + 2 :])[0]
    return [set(re.findall(r'"(\w+)"', span)) for span in re.findall(r"`\{(.*?)\}`", bullet, re.S)]


class TestReadme:
    def test_file_formats_name_the_record_fields(self, tmp_path, dense12_file):
        (check,) = readme_records("Check JSON")
        (leaders,) = readme_records("Leaders JSON")
        summary, row = readme_records("Pipeline summary JSON")
        assert summary == {"instances"}
        assert row == {"instance"} | check | (leaders - {"sorted_values"})
        assert run("check", dense12_file, "-o", tmp_path) == 0
        assert set(io.load_json(tmp_path / "dense12.check.json")) == check
        assert run("identify", dense12_file, "-o", tmp_path) == 0
        assert set(io.load_json(tmp_path / "dense12.leaders.json")) == leaders
        assert run("pipeline", dense12_file, "-o", tmp_path) == 0
        (written,) = io.load_json(tmp_path / "pipeline_summary.json")["instances"]
        assert set(written) == row

    def test_quick_start_runs(self, tmp_path, monkeypatch):
        text = README.read_text()
        block = re.search(r"## Quick start \(CLI\)\n\n```bash\n(.*?)```", text, re.S).group(1)
        monkeypatch.chdir(tmp_path)
        for name, body in re.findall(r"cat > (\S+) <<'EOF'\n(.*?)EOF\n", block, re.S):
            Path(name).write_text(body)
        commands = [
            shlex.split(line, comments=True)[1:]
            for line in block.splitlines()
            if line.startswith("groundspect ")
        ]
        assert [argv[0] for argv in commands] == [
            "gen", "spectral", "check", "identify", "pipeline"
        ]
        for argv in commands:
            assert main(argv) == 0, argv


def manifest_of(path):
    payload = io.load_json(path)
    assert payload.pop("numpy_version") == np.__version__
    return payload


def listing(outdir):
    return sorted(p.name for p in outdir.iterdir())


class TestManifests:
    """Each subcommand's output file names and manifest records, pinned."""

    @staticmethod
    def record(subcommand, args, outputs):
        return {
            "subcommand": subcommand,
            "tool_version": gs.__version__,
            "args": args,
            "outputs": [str(out) for out in outputs],
        }

    def test_gen(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        io.save_json(cfg, {"leader_degrees": [2, 2], "initial_followers": 6, "steps": 3})
        out = tmp_path / "out"
        assert run("gen", cfg, "-o", out) == 0
        assert listing(out) == ["sequence.json", "sequence.manifest.json"]
        assert manifest_of(out / "sequence.manifest.json") == self.record(
            "gen", {"config": str(cfg), "outdir": str(out)}, [out / "sequence.json"]
        )

    @pytest.mark.parametrize("subcommand", ["spectral", "check"])
    def test_spectral_and_check(self, tmp_path, dense12_file, subcommand):
        out = tmp_path / "out"
        assert run(subcommand, dense12_file, "-o", out) == 0
        assert listing(out) == [
            f"dense12.{subcommand}.json",
            f"dense12.{subcommand}.manifest.json",
        ]
        assert manifest_of(out / f"dense12.{subcommand}.manifest.json") == self.record(
            subcommand,
            {"graph": str(dense12_file), "outdir": str(out)},
            [out / f"dense12.{subcommand}.json"],
        )

    def test_simulate_exact_generated_inputs(self, tmp_path, k3_file):
        out = tmp_path / "out"
        assert run("simulate", k3_file, "--t-final", 2.0, "-o", out) == 0
        assert listing(out) == ["k3.simulate.manifest.json", "k3.traj.csv"]
        args = {
            "graph": str(k3_file), "inputs": None, "dim": 2, "seed": 0, "dt": 0.01,
            "t_final": 2.0, "record_every": 1, "outdir": str(out),
        }
        assert manifest_of(out / "k3.simulate.manifest.json") == self.record(
            "simulate", args, [out / "k3.traj.csv"]
        )

    def test_simulate_file_inputs(self, tmp_path, k3_file):
        upath = tmp_path / "u.json"
        io.save_json(upath, {"dimension": 1, "u": {"1": [5.0]}})
        out = tmp_path / "out"
        argv = ["--inputs", upath, "--record-every", 7, "--t-final", 1.0, "--dt", 0.05,
                "--seed", 3]
        assert run("simulate", k3_file, *argv, "-o", out) == 0
        assert listing(out) == ["k3.simulate.manifest.json", "k3.traj.csv"]
        args = {
            "graph": str(k3_file), "inputs": str(upath), "dim": 1, "seed": 3, "dt": 0.05,
            "t_final": 1.0, "record_every": 7, "outdir": str(out),
        }
        assert manifest_of(out / "k3.simulate.manifest.json") == self.record(
            "simulate", args, [out / "k3.traj.csv"]
        )

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
        grid = {k: payload["args"][k] for k in ("t_final", "dt")}
        args = {
            "graph": str(dense12_file), "inputs": str(upath) if with_inputs else None, "dim": 2,
            "seed": 0, "outdir": str(out), **grid,
        }
        assert payload == self.record("identify", args, [out / name for name in names])

    def test_pipeline(self, tmp_path, dense12_file, k3_file):
        out = tmp_path / "out"
        assert run("pipeline", dense12_file, k3_file, "--seed", 2, "-o", out) == 0
        assert listing(out) == ["pipeline_summary.json", "pipeline_summary.manifest.json"]
        args = {
            "paths": [str(dense12_file), str(k3_file)], "dim": 2, "seed": 2, "jobs": 1,
            "outdir": str(out),
        }
        assert manifest_of(out / "pipeline_summary.manifest.json") == self.record(
            "pipeline", args, [out / "pipeline_summary.json"]
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "{cfg}"],
            ["spectral", "{graph}"],
            ["check", "{graph}"],
            ["simulate", "{graph}", "--dim", 3, "--seed", 4, "--dt", 0.02, "--t-final", 0.5,
             "--record-every", 5],
            ["identify", "{graph}", "--dim", 1, "--seed", 4, "--dt", 0.05, "--t-final", 6.0],
            ["pipeline", "{graph}", "{graph}", "--dim", 1, "--seed", 4, "--jobs", 1],
        ],
        ids=lambda argv: argv[0],
    )
    def test_args_are_the_parsed_command_line(self, tmp_path, dense12_file, argv):
        # a flag reaches the manifest as parsed, with no edit to the manifest code
        cfg = tmp_path / "cfg.json"
        io.save_json(cfg, {"leader_degrees": [2], "initial_followers": 5, "steps": 2})
        out = tmp_path / "out"
        argv = [str(a).format(cfg=cfg, graph=dense12_file) for a in argv] + ["-o", str(out)]
        assert main(argv) == 0
        parsed = vars(cli._build_parser().parse_args(argv))
        del parsed["func"], parsed["subcommand"]
        (manifest,) = out.glob("*.manifest.json")
        assert io.load_json(manifest)["args"] == parsed

    def test_identify_records_what_it_resolved(self, tmp_path, dense12_file, dense12):
        # the default grid from the certified time, and the inputs file's dimension
        upath = tmp_path / "u.json"
        io.save_json(upath, {"dimension": 1, "u": {"1": [40.0], "2": [16.0]}})
        assert run("identify", dense12_file, "--inputs", upath, "--dim", 3, "-o", tmp_path) == 0
        args = io.load_json(tmp_path / "dense12.identify.manifest.json")["args"]
        spectrum = gs.fiedler_pair(gs.grounded_laplacian(*dense12)).spectrum
        t_meas, _ = gs.choose_measurement_time(spectrum)
        assert (args["dim"], args["t_final"], args["dt"]) == (1, t_meas, t_meas / 512)
        times, _, _ = read_trajectory_csv(tmp_path / "dense12.traj.csv")
        assert len(times) == 513 and times[-1] == pytest.approx(t_meas)
