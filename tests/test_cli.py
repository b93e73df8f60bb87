import importlib.util
import inspect
import json
import os
import random
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from unionsub import cli
from unionsub.cli import main, run_bench
from unionsub.datasets import read_corpus, read_dataset, write_dataset
from unionsub.descriptors import Descriptor, Encoding, coefficient_table
from unionsub.graphs import (
    Graph, GraphParseError, complete_graph, cycle_graph, parse_graph, path_graph, random_graph,
    star_graph,
)


def assert_error_under_memory_limit(argv, code=1, prefix="parse error:", timeout=120):
    """Run the CLI in a child that may map at most 512 MB and run ``timeout``
    seconds, so code that allocates past a bound fails fast with a
    MemoryError instead of taking all memory, and one that loops past a
    bound times out; it must exit ``code`` with one line starting with
    ``prefix``."""
    import resource

    limit = 512 << 20
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "unionsub.cli", *argv],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert run.returncode == code
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith(prefix) and run.stderr.count("\n") == 1


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text("3 3\n0 1\n1 2\n0 2\n", encoding="ascii")
    return str(path)


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n", encoding="ascii")
    return str(path)


@pytest.fixture
def two_triangles_file(tmp_path):
    path = tmp_path / "tt.txt"
    path.write_text("6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n", encoding="ascii")
    return str(path)


class TestCoeffsCommand:
    def test_k3_csv(self, k3_file, tmp_path, capsys):
        out = tmp_path / "coeffs.csv"
        assert main(["coeffs", k3_file, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "v,u,raw,norm_vu,norm_uv"
        assert len(lines) == 4
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[2]) == pytest.approx(4.0)

    def test_stdout_json(self, k3_file, capsys):
        assert main(["coeffs", k3_file, "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["raw"]) == 3

    def test_parse_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 0\n", encoding="ascii")
        assert main(["coeffs", str(bad)]) == 1
        assert "self-loop" in capsys.readouterr().err

    def test_descriptor_error_exit_2(self, k3_file, capsys):
        assert main(["coeffs", k3_file, "--kind", "bogus"]) == 2
        assert "descriptor error" in capsys.readouterr().err

    def test_bad_kind_parameter_names_its_rule(self, k3_file, capsys):
        assert main(["coeffs", k3_file, "--kind", "count-ne:3"]) == 2
        assert "lambda must be 1 or 2" in capsys.readouterr().err

    def test_kind_carries_the_encoding(self, tmp_path, capsys):
        g = random_graph(14, 0.35, random.Random(2))
        path = tmp_path / "g.txt"
        path.write_text(g.to_text(), encoding="ascii")
        assert main(["coeffs", str(path), "--kind", "union-path:eigen-max"]) == 0
        out = capsys.readouterr().out
        kind = Descriptor("union-path", encoding=Encoding.EIGEN_MAX)
        assert out == coefficient_table(g, kind).to_csv_text()
        assert out != coefficient_table(g).to_csv_text()

    @pytest.mark.parametrize("kind, message", [
        ("count-ne:eigen-max", "invalid parameter in 'count-ne:eigen-max'"),
        ("union-path:bogus", "invalid parameter in 'union-path:bogus'"),
        ("betweenness:svd-sum", "descriptor 'betweenness' takes no parameter"),
        ("union-path:", "invalid parameter in 'union-path:'"),
        ("count-ne:", "invalid parameter in 'count-ne:'"),
        ("curvature:", "invalid parameter in 'curvature:'"),
        ("betweenness:", "descriptor 'betweenness' takes no parameter"),
    ])
    def test_encoding_only_on_matrix_kinds(self, kind, message, k3_file, capsys):
        assert main(["coeffs", k3_file, "--kind", kind]) == 2
        assert capsys.readouterr().err == f"descriptor error: {message}\n"

    @pytest.mark.parametrize("command", ["coeffs", "distinguish"])
    def test_enc_is_no_flag(self, command, k3_file, capsys):
        argv = [command, k3_file] + [k3_file] * (command == "distinguish")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--enc", "svd-sum"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unrecognized arguments: --enc svd-sum" in err

    def test_missing_file_exit_1(self, capsys):
        assert main(["coeffs", "/nonexistent/graph.txt"]) == 1

    @pytest.mark.parametrize("content", [
        b"3 1\n0 1\xe2\x80\x8b\n",
        b'{"num_nodes": 3, "edges": [["0", 1]]}',
        b'{"num_nodes": 3, "edges": [[0.0, 1]]}',
        b'{"num_nodes": true, "edges": []}',
        b'{"num_nodes": 3, "edges": [[true, false]]}',
    ])
    def test_hostile_input_exit_1(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(content)
        assert main(["coeffs", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("parse error:")

    def test_deeply_nested_json_exit_1_without_traceback(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text('{"num_nodes": 2, "edges": ' + "[" * 100_000 + "}", encoding="ascii")
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "unionsub.cli", "coeffs", str(deep)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert run.returncode == 1
        assert "Traceback" not in run.stderr
        assert run.stderr.startswith("parse error: invalid JSON: nested too deeply")

    @pytest.mark.parametrize("content", [
        b"100000000 0\n", b'{"num_nodes": 1000000000000000000000000000000, "edges": []}',
    ])
    def test_huge_node_count_exit_1_under_memory_limit(self, tmp_path, content):
        huge = tmp_path / "huge.txt"
        huge.write_bytes(content)
        assert_error_under_memory_limit(["coeffs", str(huge)])

    def test_hub_star_exit_2_under_memory_limit(self, tmp_path):
        # the hub edge's union subgraph is the whole 10,001-node star; the
        # table's work estimate passes MAX_TABLE_WORK at that first edge
        star = tmp_path / "star.txt"
        star.write_text(star_graph(10_000).to_text(), encoding="ascii")
        assert_error_under_memory_limit(["coeffs", str(star), "--kind", "union-path"],
                                        2, "descriptor error: edge (0, 1)")

    def test_table_work_bound_exit_2(self, tmp_path, capsys):
        # a K120 table sums a work estimate of 6.2e8, above MAX_TABLE_WORK,
        # and is refused before any local matrix is built
        dense = tmp_path / "k120.txt"
        dense.write_text(complete_graph(120).to_text(), encoding="ascii")
        assert main(["coeffs", str(dense)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("descriptor error: edge (") and err.count("\n") == 1
        assert "work estimate passes the bound of 25000000" in err

    def test_hub_hub_curvature_exit_2(self, tmp_path):
        # edge (0, 1) joins two hubs with 200 private leaves each: its
        # transport problem has 201 x 201 cells, above MAX_TRANSPORT_CELLS
        edges = [(0, 1)] + [(0, x) for x in range(2, 202)] + [(1, x) for x in range(202, 402)]
        hubs = tmp_path / "hubs.txt"
        hubs.write_text(Graph(402, edges).to_text(), encoding="ascii")
        assert_error_under_memory_limit(["coeffs", str(hubs), "--kind", "curvature"],
                                        2, "descriptor error: edge (0, 1): 201 x 201")

    def test_curvature_table_bound_exit_2(self, tmp_path, capsys):
        # a 66,669-node path sums 600,006 transport cells, above MAX_CURVATURE_CELLS,
        # and is refused at its last edge before any transport
        path = tmp_path / "path.txt"
        path.write_text(path_graph(66669).to_text(), encoding="ascii")
        assert main(["coeffs", str(path), "--kind", "curvature"]) == 2
        assert capsys.readouterr().err == (
            "descriptor error: edge (66667, 66668): the table's work estimate passes "
            "the bound of 600000 at this edge\n")

    def test_betweenness_c6(self, c6_file, capsys):
        assert main(["coeffs", c6_file, "--kind", "betweenness"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        values = {line.split(",")[2] for line in lines}
        assert len(lines) == 6 and len(values) == 1

    def test_deterministic_output(self, c6_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["coeffs", c6_file, "--out", str(a)])
        main(["coeffs", c6_file, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestDistinguishCommand:
    def test_c6_vs_triangles(self, c6_file, two_triangles_file, capsys):
        assert main(["distinguish", c6_file, two_triangles_file]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["wl"] is False and obj["augmented"] is False and obj["raw"] is True

    def test_kind_with_encoding(self, c6_file, two_triangles_file, capsys):
        assert main(["distinguish", c6_file, two_triangles_file,
                     "--kind", "laplacian:eigen-max"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["wl"], obj["augmented"]) == (False, False)

    def test_identical(self, k3_file, capsys):
        assert main(["distinguish", k3_file, k3_file]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["wl"] is False and obj["augmented"] is False and obj["raw"] is False

    def test_verdict_exit_code_always_zero(self, k3_file, c6_file, capsys):
        assert main(["distinguish", k3_file, c6_file]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["wl"] is True

    def test_long_refinement_exit_1(self, tmp_path):
        # a path needs about N / 2 rounds, so refinement grows as N^2; at
        # N = 4,000 one plain refinement took 6.35 s on a 2-vCPU host
        assert main(["gen", "path:20000", "--out", str(tmp_path / "p")]) == 0
        path = str(tmp_path / "p" / "graph_0000.txt")
        assert_error_under_memory_limit(["distinguish", path, path], 1,
                                        "error: 1-WL refinement: ", timeout=30)


class TestGenCommand:
    def test_rook(self, tmp_path, capsys):
        out = tmp_path / "rook"
        assert main(["gen", "rook4x4", "--out", str(out)]) == 0
        graphs = read_corpus(out)
        assert len(graphs) == 1
        assert graphs[0].num_nodes == 16 and graphs[0].num_edges == 48

    def test_two_triangles_pair(self, tmp_path):
        out = tmp_path / "pair"
        assert main(["gen", "two-triangles-vs-c6", "--out", str(out)]) == 0
        assert len(read_corpus(out)) == 2

    def test_cycle_dataset_balanced(self, tmp_path):
        out = tmp_path / "cycles"
        assert main(
            ["gen", "four-cycle-pair:4", "--count", "10", "--seed", "1",
             "--out", str(out)]
        ) == 0
        dataset = read_dataset(out)
        assert len(dataset) == 10
        labels = [label for _, label in dataset]
        assert labels.count(0) == labels.count(1) == 5

    def test_deterministic_given_seed(self, tmp_path):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        for out in (out1, out2):
            main(["gen", "four-cycle-pair:4", "--count", "6", "--seed", "7",
                  "--out", str(out)])
        for name in sorted(os.listdir(out1)):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_er_corpus(self, tmp_path):
        out = tmp_path / "er"
        assert main(["gen", "er:10-20:3.0", "--count", "5", "--seed", "2",
                     "--out", str(out)]) == 0
        graphs = read_corpus(out)
        assert len(graphs) == 5
        assert all(10 <= g.num_nodes <= 20 for g in graphs)

    @pytest.mark.parametrize("spec", [
        "er:1-1", "er:x", "er:5-x", "er:9-5", "er:5-9:x", "er:5-9:0", "er:5-9:-2",
        "er:5-9:nan", "er:5-9:3:1", "er:1449", "er:2-1449",
    ])
    def test_bad_er_spec_exit_1(self, spec, tmp_path, capsys):
        assert main(["gen", spec, "--count", "1", "--out", str(tmp_path / "d")]) == 1
        assert capsys.readouterr().err.startswith("parse error:")

    @pytest.mark.parametrize("spec", [
        "nope", "cycle:0", "cycle:2", "cycle:x", "complete:0", "rook4x4:3",
        "two-triangles-vs-c6:5", "four-cycle-pair:9", "four-cycle-pair:x",
        "cycle:1048577", "path:1048577", "complete:1449",
    ])
    def test_bad_spec_exit_1(self, spec, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["gen", spec, "--out", str(out)]) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["cycle:100000000", "complete:100000"])
    def test_huge_sized_spec_exit_1_under_memory_limit(self, spec, tmp_path):
        out = tmp_path / "d"
        assert_error_under_memory_limit(["gen", spec, "--out", str(out)])
        assert not out.exists()

    def test_huge_er_spec_exit_1_under_memory_limit(self, tmp_path):
        out = tmp_path / "d"
        argv = ["gen", "er:100000-100000", "--count", "1", "--out", str(out)]
        assert_error_under_memory_limit(argv)
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["er", "four-cycle-pair:4", "rook4x4"])
    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_exit_1(self, spec, count, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["gen", spec, "--count", count, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "count must be at least 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("spec, count", [
        ("cycle:6", "5"), ("rook4x4", "2"), ("two-triangles-vs-c6", "1"),
        ("two-triangles-vs-c6", "3"),
    ])
    def test_fixed_spec_other_count_exit_1(self, spec, count, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["gen", spec, "--count", count, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--count must be" in err
        assert not out.exists()

    @pytest.mark.parametrize("spec, count, made", [
        ("cycle:6", None, 1), ("cycle:6", "1", 1), ("two-triangles-vs-c6", "2", 2),
        ("er:10-12", None, 2), ("four-cycle-pair:4", None, 2),
    ])
    def test_count_default_and_fixed(self, spec, count, made, tmp_path):
        out = tmp_path / "d"
        argv = ["gen", spec, "--out", str(out)]
        assert main(argv + (["--count", count] if count else [])) == 0
        assert len(read_corpus(out)) == made


class TestDatasetFiles:
    @pytest.fixture
    def data(self, tmp_path):
        out = tmp_path / "data"
        main(["gen", "four-cycle-pair:4", "--count", "4", "--seed", "2",
              "--out", str(out)])
        return out

    def test_features_survive_write_and_read(self, tmp_path):
        featured = Graph(3, [(0, 1), (1, 2)], [[0.5, -1.0], [1e-300, 2.0], [3.0, 0.1]])
        plain = complete_graph(3)
        write_dataset(tmp_path / "d", [featured, plain], [1, 0])
        assert read_dataset(tmp_path / "d") == [(featured, 1), (plain, 0)]
        # a graph with the default ones column keeps its edge-list bytes
        assert (tmp_path / "d" / "graph_0001.txt").read_text() == "3 3\n0 1\n0 2\n1 2\n"

    def test_non_ascii_graph_file(self, data, capsys):
        (data / "graph_0001.txt").write_bytes(b"2 1\n0 1 \xc3\xa9\n")
        with pytest.raises(GraphParseError, match="not ASCII"):
            read_dataset(data)
        with pytest.raises(GraphParseError, match="not ASCII"):
            read_corpus(data)
        assert main(["train", str(data), "--epochs", "1"]) == 1
        assert capsys.readouterr().err.startswith("parse error:")

    @pytest.mark.parametrize("labels", [
        "filename,label\ngraph_0000.txt,\xe9\n", "filename,label\ngraph_0000.txt,x\n",
    ])
    def test_bad_labels_csv(self, data, labels):
        (data / "labels.csv").write_bytes(labels.encode("latin-1"))
        with pytest.raises(GraphParseError, match="labels.csv"):
            read_dataset(data)


class TestBenchCommand:
    def test_report_shape_and_ordering_smoke(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["gen", "er:12-16:3.0", "--count", "4", "--seed", "3",
              "--out", str(corpus)])
        os.remove(corpus / "labels.csv")
        assert main(
            ["bench", str(corpus), "--kinds", "count-ne,union-path",
             "--repeats", "1"]
        ) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["graphs"] == 4 and obj["repeats"] == 1
        assert set(obj["kinds"]) == {"count-ne", "union-path"}
        for stats in obj["kinds"].values():
            assert stats["seconds"] >= 0
            assert stats["edges"] == obj["edges"]

    def test_report_records_its_environment(self, tmp_path, capsys, monkeypatch):
        import platform

        import numpy as np

        corpus = tmp_path / "corpus"
        main(["gen", "cycle:6", "--count", "1", "--out", str(corpus)])
        capsys.readouterr()
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert main(["bench", str(corpus), "--kinds", "count-ne", "--repeats", "1"]) == 0
        env = json.loads(capsys.readouterr().out)["env"]
        assert set(env) == {"python", "numpy", "blas", "nproc"}
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version", "threads"}
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["blas"] == {"name": blas["name"], "version": blas["version"], "threads": 3}
        assert isinstance(env["nproc"], int) and env["nproc"] >= 1

    def test_blas_thread_cap(self, monkeypatch):
        # OPENBLAS_NUM_THREADS wins over OMP_NUM_THREADS; with neither set the
        # cap is null, BLAS's default of one thread per processor
        from unionsub.cli import _environment

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert _environment()["blas"]["threads"] == 1
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert _environment()["blas"]["threads"] == 2
        monkeypatch.delenv("OMP_NUM_THREADS")
        assert _environment()["blas"]["threads"] is None

    def test_run_bench_same_corpus_for_all_kinds(self, tmp_path):
        from unionsub.graphs import cycle_graph

        graphs = [cycle_graph(6), cycle_graph(8)]
        report = run_bench(graphs, ["count-ne", "cycle-count:6"], repeats=1)
        edges = {stats["edges"] for stats in report["kinds"].values()}
        assert edges == {sum(g.num_edges for g in graphs)}

    def test_per_edge_kinds_time_one_table_per_graph(self, monkeypatch):
        from unionsub import cli
        from unionsub.graphs import cycle_graph

        tabled = []
        table = cli.coefficient_table
        monkeypatch.setattr(
            cli, "coefficient_table", lambda g, *args: tabled.append(g) or table(g, *args)
        )
        graphs = [cycle_graph(6), cycle_graph(8)]
        run_bench(graphs, ["union-path", "curvature", "cycle-count:6"], repeats=2)
        assert tabled == graphs * 4

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_repeats_below_one_exit_1(self, repeats, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["gen", "cycle:6", "--count", "1", "--out", str(corpus)])
        capsys.readouterr()
        assert main(["bench", str(corpus), "--kinds", "count-ne",
                     "--repeats", repeats]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "repeats must be at least 1" in err

    def test_dense_cycle_count_exit_2(self, tmp_path):
        # this G(30, 0.7) has 3.6e10 walks of up to 7 edges; a G(30, 1/2)
        # with 2.9e9 took 23 s to count on a 2-vCPU host
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        g = random_graph(30, 0.7, random.Random(0))
        (corpus / "dense.txt").write_text(g.to_text(), encoding="ascii")
        assert_error_under_memory_limit(
            ["bench", str(corpus), "--kinds", "cycle-count:8", "--repeats", "1"],
            2, "descriptor error: 8-cycle search: ", timeout=30)

    def test_cycle_search_bound_exit_2(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus"
        main(["gen", "cycle:6", "--out", str(corpus)])
        capsys.readouterr()
        monkeypatch.setattr("unionsub.graphs.MAX_CYCLE_STEPS", 10)
        assert main(["bench", str(corpus), "--kinds", "cycle-count:6", "--repeats", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("descriptor error: 6-cycle search: ") and err.count("\n") == 1

    def test_cycle_count_length_defaults_to_6(self, monkeypatch):
        from unionsub.graphs import cycle_graph

        lengths = []
        count = cli.cycle_count
        monkeypatch.setattr(cli, "cycle_count", lambda g, k: lengths.append(k) or count(g, k))
        graphs = [cycle_graph(6), cycle_graph(8)]
        report = run_bench(graphs, ["cycle-count", "cycle-count:6"], repeats=1)
        assert list(report["kinds"]) == ["cycle-count", "cycle-count:6"]
        assert [stats["edges"] for stats in report["kinds"].values()] == [14, 14]
        assert lengths == [6] * 4

    @pytest.mark.parametrize("kind, message", [
        ("cycle-count:9", "cycle length must lie in 3..8"),
        ("cycle-count:x", "invalid parameter in 'cycle-count:x'"),
        ("cycle-count:", "invalid parameter in 'cycle-count:'"),
        ("cycle-count: 6", "invalid parameter in 'cycle-count: 6'"),
    ])
    def test_bad_cycle_length_exit_2(self, kind, message, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["gen", "cycle:6", "--out", str(corpus)])
        capsys.readouterr()
        assert main(["bench", str(corpus), "--kinds", kind, "--repeats", "1"]) == 2
        assert capsys.readouterr().err == f"descriptor error: {message}\n"

    def test_empty_kinds_exit_2(self, tmp_path, capsys):
        # an empty list names one empty kind; it does not fall back to the defaults
        corpus = tmp_path / "corpus"
        main(["gen", "cycle:6", "--out", str(corpus)])
        capsys.readouterr()
        assert main(["bench", str(corpus), "--kinds", "", "--repeats", "1"]) == 2
        assert capsys.readouterr().err == "descriptor error: unknown descriptor kind ''\n"

    def test_cycle_length_checked_before_any_timing(self, tmp_path, capsys, monkeypatch):
        # cycle-count:9 is refused while the kinds are parsed, so the curvature
        # kind before it makes no table
        corpus = tmp_path / "corpus"
        main(["gen", "cycle:6", "--out", str(corpus)])
        capsys.readouterr()

        def fail(*args):
            raise AssertionError("a table was made")

        monkeypatch.setattr(cli, "coefficient_table", fail)
        assert main(["bench", str(corpus), "--kinds", "curvature,cycle-count:9"]) == 2
        assert capsys.readouterr().err == "descriptor error: cycle length must lie in 3..8\n"

    @pytest.mark.parametrize("command", ["coeffs", "distinguish"])
    def test_cycle_count_is_bench_only(self, command, k3_file, capsys):
        argv = [command, k3_file] + [k3_file] * (command == "distinguish")
        assert main([*argv, "--kind", "cycle-count"]) == 2
        assert capsys.readouterr().err == (
            "descriptor error: unknown descriptor kind 'cycle-count'\n")

    def test_every_kind_parsed_before_any_timing(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus"
        main(["gen", "cycle:6", "--out", str(corpus)])
        capsys.readouterr()
        timed = []
        monkeypatch.setattr(cli, "_time_kind", lambda *args: timed.append(args) or 0.0)
        assert main(["bench", str(corpus), "--kinds", "count-ne,bogus"]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not timed

    def test_fallback_kind_writes_nothing_to_stderr(self, tmp_path):
        # every node of a laplacian:matrix-sum table falls back to uniform
        # weights; bench times it and does not report the warning
        corpus = tmp_path / "corpus"
        main(["gen", "er:10-14:3.0", "--count", "3", "--seed", "1", "--out", str(corpus)])
        src = str(Path(__file__).resolve().parent.parent / "src")
        run = subprocess.run(
            [sys.executable, "-m", "unionsub.cli", "bench", str(corpus),
             "--kinds", "laplacian:matrix-sum", "--repeats", "1"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))},
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert list(json.loads(run.stdout)["kinds"]) == ["laplacian:matrix-sum"]

    def test_only_the_fallback_warning_is_hidden(self, monkeypatch):
        def call(g):
            coefficient_table(g, Descriptor("laplacian", encoding=Encoding.MATRIX_SUM))
            return np.float64(1.0) / 0.0

        monkeypatch.setattr(cli, "_bench_call", lambda kind_text: call)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_bench([cycle_graph(5)], ["any"], repeats=1)
        assert [str(w.message) for w in caught] == ["divide by zero encountered in scalar divide"]

    def test_corpus_without_edges_exit_1(self, tmp_path, capsys, monkeypatch):
        from unionsub import cli

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.txt").write_text("0 0\n", encoding="ascii")
        (corpus / "b.txt").write_text("3 0\n", encoding="ascii")
        timed = []
        monkeypatch.setattr(cli, "_time_kind", lambda *args: timed.append(args) or 0.0)
        assert main(["bench", str(corpus), "--kinds", "count-ne"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no edges" in err
        assert not timed


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["coeffs", "bench", "gen", "train"])
    def test_exit_1_with_one_line(self, command, k3_file, tmp_path, capsys):
        data = tmp_path / "data"
        main(["gen", "four-cycle-pair:4", "--count", "4", "--seed", "5", "--out", str(data)])
        existing = tmp_path / "existing"
        existing.write_text("", encoding="ascii")
        missing = str(tmp_path / "missing" / "out")
        argv = {
            "coeffs": ["coeffs", k3_file, "--out", missing],
            "bench": ["bench", str(data), "--kinds", "count-ne", "--repeats", "1",
                      "--out", missing],
            "gen": ["gen", "cycle:5", "--out", str(existing)],
            "train": ["train", str(data), "--epochs", "1", "--out", str(existing)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""


USAGE_ERRORS = {
    "coeffs": (["g.txt", "--bogus", "x"], ["g.txt", "--format", "xml"], []),
    "distinguish": (["a.txt", "b.txt", "--bogus"], ["a.txt", "b.txt", "--kind"], ["a.txt"]),
    "gen": (["cycle:5", "--out", "d", "--bogus"], ["cycle:5", "--out", "d", "--count", "x"],
            ["cycle:5"]),
    "bench": (["c", "--enc", "svd-sum"], ["c", "--repeats", "x"], []),
    "train": (["d", "--bogus"], ["d", "--epochs", "abc"], []),
}


class TestUsageErrors:
    """An unknown flag, a bad value or a missing argument exits 1 with one line."""

    @pytest.mark.parametrize("argv", [[], ["nosuch"]] + [
        [command, *args] for command, cases in USAGE_ERRORS.items() for args in cases
    ])
    def test_exit_1_with_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("unionsub") and captured.err.count("\n") == 1
        assert ": error: " in captured.err and captured.out == ""

    def test_abbreviated_flags_exit_1(self, capsys):
        # a prefix of a flag is no flag, on the parser and every subparser
        for argv in (["bench", "corp", "--kind", "count-ne", "--rep", "1"], ["--he"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert err.startswith("unionsub: error: ") and err.count("\n") == 1
        assert cli.build_parser().allow_abbrev is False

    @pytest.mark.parametrize("command", [[], *([command] for command in USAGE_ERRORS)])
    def test_help_exit_0(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: unionsub")

    def test_readme_commands_parse(self, monkeypatch):
        # every `unionsub ...` line of the README's CLI block parses, so a
        # documented flag cannot be deleted or renamed unnoticed; the parsers
        # take no abbreviations here, so a flag renamed to a longer one fails
        class Exact(cli._Parser):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, allow_abbrev=False, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Exact)
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
        commands = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [words[1:] for words in commands if words[:1] == ["unionsub"]]
        assert {words[0] for words in commands} == set(USAGE_ERRORS)
        parser = cli.build_parser()
        for words in commands:
            parser.parse_args(words)


class TestTrainCommand:
    @pytest.mark.parametrize("below", ["", "run"])
    def test_out_file_rejected_before_training(self, below, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        main(["gen", "four-cycle-pair:4", "--count", "4", "--seed", "5", "--out", str(data)])
        existing = tmp_path / "existing"
        existing.write_text("", encoding="ascii")

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train_classifier", no_training)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(["train", str(data), "--out", str(existing / below)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before
        assert existing.read_text(encoding="ascii") == ""

    def test_output_holds_across_blas_thread_counts(self, tmp_path):
        # BLAS may split a product's sums by thread, so checkpoint floats can
        # differ in the last bits between thread counts (the README states
        # byte-identity per thread count); the printed log must not change
        data = tmp_path / "data"
        main(["gen", "four-cycle-pair:4", "--count", "200", "--seed", "3", "--out", str(data)])
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            subprocess.run(
                [sys.executable, "-m", "unionsub.cli", "train", str(data),
                 "--model", "union-gin", "--epochs", "30", "--hidden", "64",
                 "--batch-size", "200", "--seed", "0", "--out", str(out)],
                check=True, capture_output=True, timeout=300,
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            )
            checkpoint = json.loads((out / "checkpoint.json").read_text())
            runs.append(((out / "training_log.csv").read_bytes(), checkpoint))
        (log_1, ckpt_1), (log_2, ckpt_2) = runs
        assert log_1 == log_2
        assert ckpt_1["model"] == ckpt_2["model"]
        assert [a["shape"] for a in ckpt_1["arrays"]] == [a["shape"] for a in ckpt_2["arrays"]]
        for a, b in zip(ckpt_1["arrays"], ckpt_2["arrays"]):
            np.testing.assert_allclose(a["data"], b["data"], rtol=1e-12, atol=0)

    def test_epochs_zero_no_crash(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["gen", "four-cycle-pair:4", "--count", "8", "--seed", "5",
              "--out", str(data)])
        out = tmp_path / "run"
        assert main(
            ["train", str(data), "--model", "gcn", "--epochs", "0",
             "--seed", "1", "--out", str(out)]
        ) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert 0.0 <= metrics["test_acc"] <= 1.0
        assert (out / "checkpoint.json").exists()
        log = (out / "training_log.csv").read_text().strip().split("\n")
        assert log[0] == "epoch,train_loss,val_acc"

    def test_graph_without_nodes_exit_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["gen", "four-cycle-pair:4", "--count", "8", "--seed", "5",
              "--out", str(data)])
        (data / "graph_0003.txt").write_text("0 0\n", encoding="ascii")
        assert main(["train", str(data), "--epochs", "1", "--out",
                     str(tmp_path / "run")]) == 1
        assert "no nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, message", [
        ("--batch-size", "0", "batch size must be at least 1"),
        ("--batch-size", "-3", "batch size must be at least 1"),
        ("--hidden", "0", "hidden width must be at least 1"),
        ("--epochs", "-3", "epochs must be at least 0"),
    ])
    def test_bad_numeric_option_exit_1(self, option, value, message, tmp_path, capsys):
        data = tmp_path / "data"
        main(["gen", "four-cycle-pair:4", "--count", "8", "--seed", "5",
              "--out", str(data)])
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(["train", str(data), "--epochs", "1", option, value,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not out.exists()

    def test_huge_hidden_exit_1_under_memory_limit(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "run"
        main(["gen", "four-cycle-pair:4", "--count", "8", "--seed", "5",
              "--out", str(data)])
        argv = ["train", str(data), "--epochs", "1", "--hidden", "200000", "--out", str(out)]
        assert_error_under_memory_limit(argv, 1, "error: hidden width")
        assert not out.exists()

    def test_huge_forward_batch_exit_1_under_memory_limit(self, tmp_path):
        # the 2-graph test split is one accuracy chunk of 119,996 pair and
        # node rows; at width 2,048 a buffer of its rows takes 1.97 GB
        data, out = tmp_path / "data", tmp_path / "run"
        write_dataset(data, [path_graph(20_000)] * 3, [0, 1, 0])
        argv = ["train", str(data), "--model", "gcn", "--hidden", "2048", "--epochs", "1",
                "--out", str(out)]
        assert_error_under_memory_limit(argv, 1, "error: the largest forward batch has")
        assert not out.exists()

    def test_batch_size_default_is_the_library_default(self):
        from unionsub.cli import build_parser
        from unionsub.neural import DEFAULT_BATCH_SIZE, train_classifier

        args = build_parser().parse_args(["train", "data"])
        default = inspect.signature(train_classifier).parameters["batch_size"].default
        assert args.batch_size == default == DEFAULT_BATCH_SIZE

    def test_defaults_train_the_benchmark_model(self, monkeypatch):
        # train's default model, width and batch size are the ones the
        # benchmark's train-cycle workload trains
        from unionsub.neural import DEFAULT_BATCH_SIZE, ModelSpec

        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up while the module runs
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        args = cli.build_parser().parse_args(["train", "d"])
        assert ModelSpec.parse(args.model, hidden=args.hidden) == workloads.MODEL
        assert args.batch_size == DEFAULT_BATCH_SIZE

    @staticmethod
    def train_small(tmp_path, capsys, model, epochs):
        """Train on a 12-graph dataset; returns (metrics, checkpoint, log lines)."""
        data = tmp_path / "data"
        main(["gen", "four-cycle-pair:4", "--count", "12", "--seed", "6",
              "--out", str(data)])
        out = tmp_path / "run"
        assert main(
            ["train", str(data), "--model", model, "--epochs", str(epochs),
             "--seed", "1", "--hidden", "8", "--out", str(out)]
        ) == 0
        metrics = json.loads(capsys.readouterr().out)
        ckpt = json.loads((out / "checkpoint.json").read_text())
        lines = (out / "training_log.csv").read_text().strip().split("\n")
        return metrics, ckpt, lines

    def test_short_training_writes_artifacts(self, tmp_path, capsys):
        metrics, ckpt, lines = self.train_small(tmp_path, capsys, "union-gcn", 2)
        assert metrics["epochs"] == 2
        assert ckpt["model"]["base"] == "gcn" and ckpt["model"]["use_coeffs"]
        assert len(lines) == 3

    def test_union_gin_training_writes_artifacts(self, tmp_path, capsys):
        metrics, ckpt, lines = self.train_small(tmp_path, capsys, "union-gin", 1)
        assert metrics["model"] == "union-gin" and metrics["epochs"] == 1
        assert ckpt["model"]["base"] == "gin" and ckpt["model"]["use_coeffs"]
        assert len(lines) == 2
