"""File formats: 1-based labels, schema validation, CSV round trips."""

import csv
import gc
import hashlib
import io as stdio
import itertools
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groundspect as gs
from groundspect import io
from groundspect.errors import InputFormatError

from conftest import decompose
from trajectory_csv import read_trajectory_csv


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

    def test_node_count_over_the_cap_is_refused_before_allocating(self, monkeypatch):
        # n = 100000 would need a 9.3 GiB adjacency and a 75 GiB grounded Laplacian
        tracemalloc.start()
        try:
            with pytest.raises(InputFormatError, match="n = 100000 exceeds"):
                io.graph_from_dict({"n": 100000, "edges": [[1, 2]], "leaders": [1]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        monkeypatch.setattr(io, "_MAX_NODES", 3)
        path = [[1, 2], [2, 3], [3, 4]]
        assert io.graph_from_dict({"n": 3, "edges": path[:2], "leaders": [1]})[0].n == 3
        with pytest.raises(InputFormatError, match="n = 4 exceeds the 3-node cap"):
            io.graph_from_dict({"n": 4, "edges": path, "leaders": [1]})

    @pytest.mark.parametrize(
        "edges, leaders, message",
        [
            ([[3, 3]], [1], "self-loop at node 3"),
            ([[1, 2], [2, 1]], [1], "duplicate edge (1, 2)"),
            ([[0, 3]], [1], "edge (0,3) outside [1,4)"),
            ([[1, 2]], [4], "leader 4 outside [1,4)"),
        ],
        ids=["self-loop", "duplicate", "edge-range", "leader-range"],
    )
    def test_errors_name_file_labels(self, edges, leaders, message):
        # labels are 1-based in the messages as in the file
        with pytest.raises(InputFormatError) as err:
            io.graph_from_dict({"n": 3, "edges": edges, "leaders": leaders})
        assert str(err.value) == f"graph: {message}"

    @pytest.mark.parametrize("endpoint, shown", [(2.5, "2.5"), (True, "true"), ("3", '"3"')])
    def test_non_integer_endpoint_message(self, endpoint, shown):
        payload = {"n": 3, "edges": [[1, 2], [2, endpoint]], "leaders": [1]}
        with pytest.raises(InputFormatError) as err:
            io.graph_from_dict(payload)
        message = f"graph: endpoint of edge [2, {shown}] must be an integer, got {shown}"
        assert str(err.value) == message


# Random simple graphs on 2-12 nodes: any subset of the node pairs, in any order.
GRAPHS = st.integers(2, 12).flatmap(
    lambda n: st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))), unique=True).map(
        lambda pairs: gs.build_graph(n, pairs)
    )
)


class TestCollectorPause:
    """load_graph, save_graph and save_sequence run with the cyclic collector off, and
    hand the caller back the collector state it had."""

    @pytest.fixture
    def calls(self, tmp_path):
        g, p = gs.dense_follower_instance(197, (2, 3, 4))
        seq = gs.generate_sequence(gs.SequenceConfig((2, 3, 2), 60, 24, "densify_edges", 5))
        graph_file, dup_file = tmp_path / "g.json", tmp_path / "dup.json"
        io.save_json(dup_file, {"n": 3, "edges": [[1, 2], [2, 1]], "leaders": [1]})

        def load_duplicate():
            with pytest.raises(InputFormatError, match="duplicate edge"):
                io.load_graph(dup_file)

        return {
            "save_graph": lambda: io.save_graph(graph_file, g, p),
            "load_graph": lambda: io.load_graph(graph_file),
            "save_sequence": lambda: io.save_sequence(tmp_path / "s.json", seq),
            "load_graph-duplicate": load_duplicate,
        }

    def test_no_collection_starts(self, calls):
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.callbacks.append(count)
        try:
            for name, call in calls.items():
                gc.collect()  # the young count starts from zero; its own start is not counted
                starts.clear()
                call()
                assert starts == [], name
        finally:
            gc.callbacks.remove(count)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, calls, enabled):
        try:
            for name, call in calls.items():
                (gc.enable if enabled else gc.disable)()
                call()
                assert gc.isenabled() is enabled, name
        finally:
            gc.enable()

    @settings(max_examples=60)
    @given(GRAPHS)
    def test_edges_are_written_from_the_adjacency(self, g):
        edges = io.graph_to_dict(g, gs.make_partition(g.n, [0]))["edges"]
        assert edges == [[i + 1, j + 1] for i, j in g.edges]

    def test_save_graph_builds_no_edge_tuple(self, tmp_path):
        g, p = gs.dense_follower_instance(60, (2, 3, 4))
        io.save_graph(tmp_path / "g.json", g, p)
        assert "edges" not in vars(g)


class TestInputFiles:
    def test_roundtrip(self, tmp_path):
        u = gs.ExternalInput(dimension=2, values={1: (40.0, 35.0), 3: (48.0, 44.0)})
        path = tmp_path / "u.json"
        io.save_json(path, u.to_json())
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

    @pytest.mark.parametrize(
        "u",
        [{" +1 ": [1.0], "\u0662": [2.0]}, {"01": [1.0], "1": [2.0]}, {"1 ": [1.0]}, {"-1": [1.0]}],
    )
    def test_non_canonical_labels_rejected(self, u):
        # each key names one node, so no input is read under another label or dropped
        with pytest.raises(InputFormatError, match="node label must be a decimal integer"):
            io.inputs_from_dict({"dimension": 1, "u": u})


class TestNonObjectPayloads:
    """A JSON file whose top level is not an object is an input error."""

    @pytest.mark.parametrize("payload", [3, [1, 2], None, "graph"])
    @pytest.mark.parametrize(
        "parse", [io.graph_from_dict, io.inputs_from_dict, io.sequence_config_from_dict]
    )
    def test_parsers_reject(self, parse, payload):
        with pytest.raises(InputFormatError, match="expected a JSON object"):
            parse(payload)

    @pytest.mark.parametrize("load", [io.load_instances])
    def test_loaders_reject(self, tmp_path, load):
        path = tmp_path / "three.json"
        path.write_text("3")
        with pytest.raises(InputFormatError, match="expected a JSON object"):
            load(path)

    @pytest.mark.parametrize("graphs", [3, "abc"])
    @pytest.mark.parametrize("load", [io.load_instances])
    def test_graphs_not_a_list_rejected(self, tmp_path, load, graphs):
        cfg = gs.SequenceConfig(leader_degrees=(2,), initial_followers=5, steps=1)
        path = tmp_path / "seq.json"
        io.save_json(path, {"config": cfg.to_json(), "graphs": graphs})
        with pytest.raises(InputFormatError, match="'graphs' must be a JSON list"):
            load(path)


class TestMissingFields:
    """Each parser names the required field that a payload lacks."""

    @pytest.mark.parametrize(
        "parse, payload",
        [
            (io.graph_from_dict, {"n": 2, "edges": [[1, 2]], "leaders": [1]}),
            (io.inputs_from_dict, {"dimension": 1, "u": {"1": [1.0]}}),
            (
                io.sequence_config_from_dict,
                {"leader_degrees": [2], "initial_followers": 5, "steps": 3},
            ),
        ],
        ids=["graph", "inputs", "sequence-config"],
    )
    def test_message_names_the_field(self, parse, payload):
        parse(payload)
        for key in payload:
            partial = {k: v for k, v in payload.items() if k != key}
            with pytest.raises(InputFormatError) as exc:
                parse(partial, where="f.json")
            assert str(exc.value) == f"f.json: missing field '{key}'"


class TestSequenceFiles:
    def test_roundtrip(self, tmp_path):
        cfg = gs.SequenceConfig(leader_degrees=(2,), initial_followers=5, steps=3, rng_seed=8)
        seq = gs.generate_sequence(cfg)
        path = tmp_path / "seq.json"
        io.save_sequence(path, seq)
        payload = io.load_json(path)
        assert io.sequence_config_from_dict(payload["config"]) == cfg
        back = [io.graph_from_dict(item) for _, item in io.load_instances(path)]
        assert [g.edges for g, _ in back] == [g.edges for g, _ in seq.elements]
        assert payload["saturated"] == seq.saturated

    def test_config_parser_defaults(self):
        payload = {"leader_degrees": [2], "initial_followers": 5, "steps": 3}
        assert io.sequence_config_from_dict(payload) == gs.SequenceConfig(
            leader_degrees=(2,), initial_followers=5, steps=3, growth="densify_edges", rng_seed=0
        )


class TestTrajectoryCsv:
    def test_roundtrip(self, tmp_path, k3):
        g, p = k3
        u = gs.ExternalInput(dimension=2, values={0: (1.0, -2.0)})
        cfg = gs.SimConfig(dimension=2, dt=0.1, t_final=1.0, integrator="exact")
        traj = gs.simulate(decompose(g, p), u, np.ones((3, 2)), cfg)
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, traj)
        times, states, velocities = read_trajectory_csv(path)
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


def per_row_estimate(vel: np.ndarray) -> list:
    """One tempo-CSV row's estimate as it was computed row by row: ratios against
    the largest-norm agent, unit norm, largest entry positive; [] without a
    usable reference."""
    norms = np.linalg.norm(vel, axis=1)
    j = int(norms.argmax())
    ref = vel[j]
    denom = float(ref @ ref)
    if not (norms.max() > 1e-300 and denom > 1e-300):
        return []
    values = (vel @ ref) / denom
    values[j] = 1.0
    unit = values / np.linalg.norm(values)
    return list(-unit if unit[np.abs(unit).argmax()] < 0.0 else unit)


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

    @pytest.mark.parametrize("d", [1, 3])
    def test_tempo_csv_equals_per_row_estimates(self, tmp_path, d):
        rng = np.random.default_rng(43)
        g, p = gs.dense_follower_instance(37, (2, 3, 4), rng=rng)
        spect = decompose(g, p)
        u = gs.ExternalInput(d, {l: tuple(rng.uniform(-50, 50, d)) for l in p.leaders})
        t_meas, _ = gs.choose_measurement_time(spect.spectrum)
        cfg = gs.SimConfig(dimension=d, dt=t_meas / 64, t_final=t_meas)
        traj = gs.simulate(spect, u, rng.normal(size=(g.n, d)), cfg)
        velocities = traj.velocities.copy()
        velocities[3] = 0.0  # an equilibrium row
        velocities[5] *= 1e-160 / np.abs(velocities[5]).max()  # the reference's square underflows
        velocities[6] *= 1e-140 / np.abs(velocities[6]).max()  # tiny, but a usable reference
        traj = gs.Trajectory(traj.times, traj.states, velocities, traj.steady)
        path = tmp_path / "tempo.csv"
        io.write_tempo_csv(path, traj)
        rows = [["t"] + [f"tau{i + 1}" for i in range(g.n)]]
        for t, vel in zip(traj.times, velocities):
            cells = [f"{x:.17g}" for x in per_row_estimate(vel)] or [""] * g.n
            rows.append([f"{t:.17g}", *cells])
        assert rows[4][1:] == rows[6][1:] == [""] * g.n and rows[7][1] != ""
        assert path.read_bytes().decode() == self.expected(rows)


def g17(table) -> bytes:
    """csv.writer's rows of a 2-D table with Python's '%.17g' cells."""
    return TestCsvBytes.expected([[f"{x:.17g}" for x in row] for row in table.tolist()]).encode()


def trajectory_of(table: np.ndarray, n: int, d: int) -> gs.Trajectory:
    """The trajectory whose CSV rows are the rows of a (T, 1 + 2nd) table."""
    x, v = table[:, 1 : 1 + n * d], table[:, 1 + n * d :]
    shape = (len(table), n, d)
    return gs.Trajectory(table[:, 0], x.reshape(shape), v.reshape(shape), x[0].reshape(n, d))


# |x| in [1e-11, 2**51) and 0: every cell the whole-array kernel formats itself
# (the double nearest 1e-11 lies below it)
IN_DOMAIN = st.floats(1e-11, 2.0**51, exclude_min=True, exclude_max=True) | st.just(0.0)


def in_domain(x: float) -> bool:
    return x == 0.0 or 1e-11 < abs(x) < 2.0**51


class TestCsvKernel:
    """io._g17_text formats whole blocks in integer arithmetic; its bytes must equal
    Python's '%.17g', and the blocks it refuses go through Python's formatting."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_writer_equals_python_on_any_float(self, tmp_path_factory, data):
        n, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
        width = 1 + 2 * n * d
        any_row = st.lists(st.floats(), min_size=width, max_size=width)  # NaN, inf, subnormals
        signed = st.tuples(IN_DOMAIN, st.booleans()).map(lambda c: -c[0] if c[1] else c[0])
        kernel_row = st.lists(signed, min_size=width, max_size=width)
        table = np.array(data.draw(st.lists(any_row | kernel_row, min_size=1, max_size=8)))
        path = tmp_path_factory.mktemp("kernel") / "traj.csv"
        with mock.patch.object(io, "_BLOCK_CELLS", width):  # one row per block
            io.write_trajectory_csv(path, trajectory_of(table, n, d))
        assert path.read_bytes().split(b"\r\n", 1)[1] == g17(table)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(IN_DOMAIN, min_size=5, max_size=5), min_size=1, max_size=6), st.data())
    def test_kernel_formats_its_domain(self, rows, data):
        table = np.array(rows) * data.draw(st.sampled_from([1.0, -1.0]))
        assert io._g17_text(table) == g17(table)

    @pytest.mark.parametrize(
        "x, text",
        [
            (2.0**50 + 0.25, "1125899906842624.2"),  # ties go to the even digit
            (2.0**50 + 0.75, "1125899906842624.8"),
            (9.99999999999999999e-5, "0.0001"),  # the double nearest 1e-4
            (0.0, "0"),
            (-0.0, "-0"),
            (5e-324, "4.9406564584124654e-324"),
            (1e-11, "9.9999999999999994e-12"),
            (-1e-11, "-9.9999999999999994e-12"),
            (2.0**51, "2251799813685248"),
            (2.0**53, "9007199254740992"),
        ],
    )
    def test_constructed_cells(self, x, text):
        assert f"{x:.17g}" == text
        table = np.array([[x, 1.5]])
        got = io._g17_text(table)
        assert got == g17(table) if in_domain(x) else got is None

    def test_powers_of_ten_and_neighbours(self):
        # The largest double below each power of ten keeps 17 digits below 10**17.
        cells = []
        for k in range(-12, 18):
            p = float(f"1e{k}")
            cells += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
        for x in cells:
            got = io._g17_text(np.array([[x]]))
            assert got == g17(np.array([[x]])) if in_domain(x) else got is None

    def test_refused_cells_fall_back(self, tmp_path):
        table = np.array([[0.5, np.nan, 2.0], [0.25, np.inf, -np.inf], [1e-300, 1e300, 3.0]])
        assert all(io._g17_text(row[None]) is None for row in table)  # no garbage table index
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, trajectory_of(table, 1, 1))
        assert path.read_bytes().split(b"\r\n", 1)[1] == g17(table)
        assert b"0.5,nan,2\r\n" in path.read_bytes()

    def test_decayed_velocities_take_the_fallback(self, tmp_path):
        rng = np.random.default_rng(7)
        g, p = gs.dense_follower_instance(37, (2, 3, 4), rng=rng)
        spect = decompose(g, p)
        u = gs.ExternalInput(2, {l: tuple(rng.uniform(-50, 50, 2)) for l in p.leaders})
        t_final = 40.0 / spect.lambda_f
        cfg = gs.SimConfig(dimension=2, dt=t_final / 512, t_final=t_final)
        traj = gs.simulate(spect, u, rng.normal(size=(g.n, 2)), cfg)
        flat = [a.reshape(len(traj.times), -1) for a in (traj.states, traj.velocities)]
        table = np.concatenate([traj.times[:, None], *flat], axis=1)
        speed = np.abs(flat[1])
        assert speed[0].min() > 1e-11 and 0.0 < speed[-1].max() < 1e-11
        kernel, results = io._g17_text, []

        def recorded(block):
            results.append(kernel(block))
            return results[-1]

        path = tmp_path / "traj.csv"
        with mock.patch.object(io, "_g17_text", recorded):
            io.write_trajectory_csv(path, traj)
        assert results[0] is not None and results[-1] is None  # early blocks by the kernel
        assert path.read_bytes().split(b"\r\n", 1)[1] == g17(table)


# Recursive JSON values: every scalar kind json writes (numpy.float64 is a float), text
# keys, and int tables that are ragged, hold bools or have empty rows, at any depth.
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**70), 2**70)
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | st.floats().map(np.float64) | st.text() | st.sampled_from(["é\u2028😀", '\n"\\\x00'])
)
INT_TABLES = st.integers(0, 3).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(), min_size=k, max_size=k) | st.tuples(*[st.integers()] * k)
    )
) | st.lists(st.lists(st.integers() | st.booleans()))
JSON_VALUES = st.recursive(
    JSON_SCALARS | INT_TABLES,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
    max_leaves=20,
)
# sha256 of the files json.dump wrote before io formatted JSON itself
GRAPH_DIGEST = "ff8147740ae3ec0840deb9057d9cc143fb4c8aedef99851f4ee03f5c3b6e49db"
SEQUENCE_DIGEST = "30bdc6648768129b626cae64c742e8705886d0220c54fd5ac855387b40255c9a"


class TestJsonWriter:
    """io._json_text writes json.dumps(indent=2, sort_keys=True) text itself, and a
    table of int rows with one `%`."""

    @settings(max_examples=150, deadline=None)
    @given(JSON_VALUES)
    def test_text_equals_json(self, value):
        assert io._json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "value",
        [np.int64(3), {"a": [np.int64(1)]}, [[1, 2], [3, np.int64(4)]], {1, 2}, b"x", object(),
         [np.bool_(True)], {(1, 2): 3}],
        ids=["int64", "nested-int64", "int64-in-table", "set", "bytes", "object", "bool_",
             "tuple-key"],
    )
    def test_unserializable_values_raise_as_json_does(self, tmp_path, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            io.save_json(tmp_path / "x.json", {"value": value})

    def test_numpy_int_message_is_json_s(self):
        with pytest.raises(TypeError, match="Object of type int64 is not JSON serializable"):
            io._json_text({"n": np.int64(3)})

    def test_files_match_pinned_digests(self, tmp_path):
        io.save_graph(tmp_path / "g.json", *gs.dense_follower_instance(60, (2, 3, 4)))
        cfg = gs.SequenceConfig((2, 3, 2), 60, 24, "densify_edges", 5)
        io.save_sequence(tmp_path / "s.json", gs.generate_sequence(cfg))
        files = [tmp_path / "g.json", tmp_path / "s.json"]
        digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in files]
        assert digests == [GRAPH_DIGEST, SEQUENCE_DIGEST]

    def test_edge_table_takes_the_one_format_path(self, tmp_path):
        g, p = gs.dense_follower_instance(60, (2, 3, 4))
        table, results = io._int_table, []

        def recorded(rows, indent):
            results.append((len(rows), table(rows, indent)))
            return results[-1][1]

        path = tmp_path / "g.json"
        with mock.patch.object(io, "_int_table", recorded):
            io.save_graph(path, g, p)
        tabled = {n for n, text in results if text is not None}
        assert tabled == {len(g.edges)}  # the edges; not the leaders, a list of ints
        text = json.dumps(io.graph_to_dict(g, p), indent=2, sort_keys=True)
        assert path.read_text() == text + "\n"


class TestManifest:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = {"config": "c.json", "outdir": "."}
        for path in (a, b):
            io.write_manifest(path, "gen", args, [Path("z.json"), "out.json"])
        assert a.read_bytes() == b.read_bytes()
        assert io.load_json(a) == {
            "subcommand": "gen",
            "tool_version": gs.__version__,
            "numpy_version": np.__version__,
            "args": args,
            "outputs": ["out.json", "z.json"],
        }
