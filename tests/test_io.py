"""File formats: 1-based labels, schema validation, CSV round trips."""

import csv
import io as stdio

import numpy as np
import pytest

import groundspect as gs
from groundspect import io
from groundspect.errors import InputFormatError

from conftest import decompose


class TestGraphFiles:
    def test_roundtrip_preserves_structure(self, tmp_path, dense12):
        g, p = dense12
        path = tmp_path / "g.json"
        io.save_graph(path, g, p)
        g2, p2 = io.load_graph(path)
        assert g2.edges == g.edges
        assert p2.leaders == p.leaders

    def test_labels_are_one_based_in_files(self, tmp_path, p2):
        g, p = p2
        path = tmp_path / "g.json"
        io.save_graph(path, g, p)
        payload = io.load_json(path)
        assert payload == {"n": 2, "edges": [[1, 2]], "leaders": [1]}

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        io.save_json(path, {"n": 3, "edges": [[1, 2]]})
        with pytest.raises(InputFormatError):
            io.load_graph(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(InputFormatError, match="line"):
            io.load_graph(path)

    def test_graph_errors_become_input_errors(self, tmp_path):
        path = tmp_path / "dup.json"
        io.save_json(path, {"n": 3, "edges": [[1, 2], [2, 1]], "leaders": [1]})
        with pytest.raises(InputFormatError):
            io.load_graph(path)


class TestInputFiles:
    def test_roundtrip(self, tmp_path):
        u = gs.ExternalInput(dimension=2, values={1: (40.0, 35.0), 3: (48.0, 44.0)})
        path = tmp_path / "u.json"
        io.save_inputs(path, u)
        back = io.load_inputs(path)
        assert back.dimension == 2
        assert back.values == {1: (40.0, 35.0), 3: (48.0, 44.0)}

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "u.json"
        io.save_json(path, {"dimension": 2, "u": {"1": [1.0]}})
        with pytest.raises(InputFormatError):
            io.load_inputs(path)

    def test_zero_based_labels_rejected(self, tmp_path):
        path = tmp_path / "u.json"
        io.save_json(path, {"dimension": 1, "u": {"0": [1.0]}})
        with pytest.raises(InputFormatError, match="1-based"):
            io.load_inputs(path)


class TestNonObjectPayloads:
    """A JSON file whose top level is not an object is an input error."""

    @pytest.mark.parametrize("payload", [3, [1, 2], None, "graph"])
    @pytest.mark.parametrize(
        "parse", [io.graph_from_dict, io.inputs_from_dict, io.sequence_config_from_dict]
    )
    def test_parsers_reject(self, parse, payload):
        with pytest.raises(InputFormatError, match="expected a JSON object"):
            parse(payload)

    @pytest.mark.parametrize("load", [io.load_sequence, io.load_instances])
    def test_loaders_reject(self, tmp_path, load):
        path = tmp_path / "three.json"
        path.write_text("3")
        with pytest.raises(InputFormatError, match="expected a JSON object"):
            load(path)

    def test_sequence_element_rejected(self, tmp_path):
        cfg = gs.SequenceConfig(leader_degrees=(2,), initial_followers=5, steps=1)
        path = tmp_path / "seq.json"
        io.save_json(path, {"config": cfg.to_json(), "graphs": [3]})
        with pytest.raises(InputFormatError, match=r"graphs\[0\]: expected a JSON object"):
            io.load_sequence(path)


    @pytest.mark.parametrize("graphs", [3, "abc"])
    @pytest.mark.parametrize("load", [io.load_sequence, io.load_instances])
    def test_graphs_not_a_list_rejected(self, tmp_path, load, graphs):
        cfg = gs.SequenceConfig(leader_degrees=(2,), initial_followers=5, steps=1)
        path = tmp_path / "seq.json"
        io.save_json(path, {"config": cfg.to_json(), "graphs": graphs})
        with pytest.raises(InputFormatError, match="'graphs' must be a JSON list"):
            load(path)


class TestSequenceFiles:
    def test_roundtrip(self, tmp_path):
        cfg = gs.SequenceConfig(leader_degrees=(2,), initial_followers=5, steps=3, rng_seed=8)
        seq = gs.generate_sequence(cfg)
        path = tmp_path / "seq.json"
        io.save_sequence(path, seq)
        back = io.load_sequence(path)
        assert back.config == cfg
        assert [g.edges for g, _ in back.elements] == [g.edges for g, _ in seq.elements]
        assert back.saturated == seq.saturated

    def test_config_parser_defaults(self):
        payload = {"leader_degrees": [2], "initial_followers": 5, "steps": 3}
        assert io.sequence_config_from_dict(payload) == gs.SequenceConfig(
            leader_degrees=(2,), initial_followers=5, steps=3, growth="densify_edges", rng_seed=0
        )

    def test_malformed_config_in_sequence_file(self, tmp_path):
        path = tmp_path / "seq.json"
        io.save_json(path, {"config": {"leader_degrees": [2], "steps": 3}, "graphs": []})
        with pytest.raises(InputFormatError, match="#config: missing field 'initial_followers'"):
            io.load_sequence(path)


class TestTrajectoryCsv:
    def test_roundtrip(self, tmp_path, k3):
        g, p = k3
        u = gs.ExternalInput(dimension=2, values={0: (1.0, -2.0)})
        cfg = gs.SimConfig(dimension=2, dt=0.1, t_final=1.0, integrator="exact")
        traj = gs.simulate(decompose(g, p), u, np.ones((3, 2)), cfg)
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, traj)
        times, states, velocities = io.read_trajectory_csv(path)
        np.testing.assert_array_equal(times, traj.times)
        np.testing.assert_array_equal(states, traj.states)
        np.testing.assert_array_equal(velocities, traj.velocities)

    def test_header_layout(self, tmp_path, p2):
        g, p = p2
        u = gs.ExternalInput(dimension=1, values={0: (5.0,)})
        cfg = gs.SimConfig(dimension=1, dt=0.5, t_final=1.0, integrator="exact")
        io.write_trajectory_csv(tmp_path / "t.csv", gs.simulate(decompose(g, p), u, np.zeros((2, 1)), cfg))
        header = (tmp_path / "t.csv").read_text().splitlines()[0]
        assert header == "t,x1_1,x2_1,v1_1,v2_1"


class TestTempoCsv:
    def test_columns_and_convergence(self, tmp_path, dense12):
        g, p = dense12
        rng = np.random.default_rng(3)
        u = gs.ExternalInput(dimension=2, values={0: (40.0, 35.0), 1: (16.0, 45.0)})
        spect = gs.fiedler_pair(gs.grounded_laplacian(g, p))
        t_meas, _ = gs.choose_measurement_time(spect.spectrum)
        cfg = gs.SimConfig(dimension=2, dt=t_meas / 64, t_final=t_meas, integrator="exact")
        traj = gs.simulate(spect, u, rng.normal(size=(g.n, 2)), cfg)
        path = tmp_path / "tempo.csv"
        io.write_tempo_csv(path, traj)
        lines = path.read_text().splitlines()
        assert lines[0] == "t," + ",".join(f"tau{i+1}" for i in range(g.n))
        last = np.array([float(x) for x in lines[-1].split(",")[1:]])
        # the tempo curves end on the Fiedler components
        assert np.abs(last - spect.v_f).max() < 1e-4

    def test_equilibrium_rows_left_empty(self, tmp_path, k3):
        g, p = k3
        u = gs.ExternalInput(dimension=1, values={0: (2.0,)})
        spect = decompose(g, p)
        xstar = gs.steady_state(spect, u)
        cfg = gs.SimConfig(dimension=1, dt=0.5, t_final=1.0, integrator="exact")
        traj = gs.simulate(spect, u, xstar, cfg)
        path = tmp_path / "tempo.csv"
        io.write_tempo_csv(path, traj)
        for line in path.read_text().splitlines()[1:]:
            assert line.split(",")[1:] == [""] * g.n


class TestCsvBytes:
    """The writers' text equals csv.writer's default dialect with %.17g cells."""

    @staticmethod
    def expected(rows) -> str:
        buf = stdio.StringIO(newline="")
        csv.writer(buf).writerows(rows)
        return buf.getvalue()

    def test_trajectory_csv(self, tmp_path):
        times = np.array([0.0, 0.25, 1.0 / 3.0])
        states = np.arange(12, dtype=float).reshape(3, 2, 2) / 7.0
        states[0, 0, 0] = -0.0
        states[1, 1, 0] = 5e-324  # smallest subnormal
        states[2, 0, 1] = 1.2345678901234567e300
        velocities = -states[::-1] / 3.0
        traj = gs.Trajectory(times=times, states=states, velocities=velocities, steady=states[0])
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, traj)
        rows = [["t", "x1_1", "x1_2", "x2_1", "x2_2", "v1_1", "v1_2", "v2_1", "v2_2"]]
        for t, x, v in zip(times, states, velocities):
            rows.append([f"{c:.17g}" for c in [t, *x.ravel(), *v.ravel()]])
        text = path.read_bytes().decode()
        assert text == self.expected(rows)
        assert text.count("\r\n") == 4 and "-0," in text and "4.9406564584124654e-324" in text

    def test_tempo_csv_with_equilibrium_rows(self, tmp_path):
        times = np.array([0.0, 0.5, 1.0])
        velocities = np.zeros((3, 3, 2))
        velocities[1] = [[1.0, -2.0], [0.5, 3.0], [-1e-7, 2.5]]
        traj = gs.Trajectory(
            times=times, states=np.ones((3, 3, 2)), velocities=velocities, steady=np.ones((3, 2))
        )
        path = tmp_path / "tempo.csv"
        io.write_tempo_csv(path, traj)
        _, estimate = gs.estimate_fiedler(velocities[1])
        rows = [
            ["t", "tau1", "tau2", "tau3"],
            ["0", "", "", ""],
            ["0.5"] + [f"{x:.17g}" for x in estimate],
            ["1", "", "", ""],
        ]
        assert path.read_bytes().decode() == self.expected(rows)


class TestManifest:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            io.write_manifest(
                path, "gen", {"steps": 3}, {"config": "c.json"}, ["out.json"], rng_seed=7
            )
        assert a.read_bytes() == b.read_bytes()
        payload = io.load_json(a)
        assert payload["subcommand"] == "gen"
        assert payload["tool_version"] == gs.__version__
        assert payload["numpy_version"] == np.__version__
        assert payload["rng_seed"] == 7
