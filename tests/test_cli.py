import concurrent.futures

import numpy as np
import pytest

import sqwsim.evolve
from sqwsim.cli import main
from sqwsim.graph import GridSpec, make_grid_of_cliques, write_cover, write_graph
from sqwsim.search import default_step_budget


# A finite step budget whose series (8 PB of float64) cannot be allocated.
HUGE_STEPS = "1000000000000000"
HUGE_STEPS_ERROR = f"error: step budget {HUGE_STEPS} is too large to record its series\n"


@pytest.fixture
def grid_files(tmp_path):
    tg = make_grid_of_cliques(GridSpec(3, 1))
    graph = tmp_path / "grid.graph"
    cover = tmp_path / "grid.cover"
    graph.write_text(write_graph(tg.graph))
    cover.write_text(write_cover(tg))
    return graph, cover


class TestValidateCommand:
    def test_valid_cover(self, grid_files, capsys):
        graph, cover = grid_files
        rc = main(["validate", "--graph", str(graph), "--cover", str(cover)])
        assert rc == 0
        assert "cover valid: yes" in capsys.readouterr().out

    def test_invalid_cover_exit_1(self, grid_files, capsys):
        graph, cover = grid_files
        lines = cover.read_text().splitlines()
        cover.write_text("\n".join(lines[1:]) + "\n")  # drop one cell polygon
        rc = main(["validate", "--graph", str(graph), "--cover", str(cover)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "uncovered" in out

    def test_parse_error_exit_2(self, grid_files, capsys):
        graph, cover = grid_files
        cover.write_text("0 0 bad\n")
        rc = main(["validate", "--graph", str(graph), "--cover", str(cover)])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_overlapping_cover_names_its_line(self, grid_files, capsys):
        graph, cover = grid_files
        cover.write_text("0 0 1\n0 1 2\n")
        assert main(["validate", "--graph", str(graph), "--cover", str(cover)]) == 2
        assert capsys.readouterr().err == "error: line 2: vertex 1 already covered in tessellation 0\n"

    def test_vertex_count_beyond_int64_keys_exits_2(self, grid_files, capsys):
        graph, cover = grid_files
        graph.write_text("5000000000 1\n4000000000 4000000001\n")
        assert main(["validate", "--graph", str(graph), "--cover", str(cover)]) == 2
        assert capsys.readouterr().err == (
            "error: line 1: at most 3037000499 vertices are supported, got 5000000000\n")

    def test_missing_file_exit_2(self, tmp_path):
        rc = main(["validate", "--graph", str(tmp_path / "no.graph"), "--cover", str(tmp_path / "no.cover")])
        assert rc == 2


class TestSearchCommand:
    def test_writes_manifest_and_rows(self, tmp_path):
        out = tmp_path / "search.csv"
        rc = main(["search", "--n", "6", "--out", str(out), "--seed", "3"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# sqwsim ")
        assert "# command: search" in lines
        assert "# master_seed: 3" in lines
        header_at = lines.index("step,mean_success,ci_halfwidth")
        first = lines[header_at + 1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(1 / 36)
        assert any(line.startswith("# t_peak:") for line in lines)

    def test_repeat_is_byte_identical(self, tmp_path):
        args = ["search", "--n", "6", "--noise", "polygons", "--p", "0.05", "--runs", "3", "--seed", "11"]
        outputs = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "2"), ("d", "3")):
            path = tmp_path / f"{tag}.csv"
            assert main(args + ["--workers", workers, "--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert all(out == outputs[0] for out in outputs)

    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("SQW_SEED", "21")
        assert main(["search", "--n", "6", "--out", str(a)]) == 0
        monkeypatch.delenv("SQW_SEED")
        assert main(["search", "--n", "6", "--seed", "21", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flag_beats_env_seed(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("SQW_SEED", "5")
        assert main(["search", "--n", "6", "--seed", "9", "--out", str(a)]) == 0
        monkeypatch.setenv("SQW_SEED", "9")
        assert main(["search", "--n", "6", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_env_seed_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SQW_SEED", "zebra")
        rc = main(["search", "--n", "6", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_p_without_noise_kind_exit_2(self, tmp_path, capsys):
        rc = main(["search", "--n", "6", "--p", "0.1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "--noise" in capsys.readouterr().err

    def test_bad_probability_exit_2(self, tmp_path):
        rc = main(["search", "--n", "6", "--noise", "vertices", "--p", "1.5", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_huge_step_budget_exits_2(self, tmp_path, capsys, workers):
        rc = main(["search", "--n", "4", "--steps", HUGE_STEPS, "--noise", "vertices", "--p", "0.1",
                   "--runs", "2", "--workers", workers, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err == HUGE_STEPS_ERROR
        assert not (tmp_path / "x.csv").exists()

    def test_out_of_range_scope_exits_2_at_p_0(self, tmp_path, capsys):
        rc = main(["search", "--n", "4", "--noise", "polygons", "--p", "0", "--scope", "5",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err == "error: scope index 5 out of range for 2 tessellations\n"


class TestEvolveCommand:
    def test_outputs_parse_and_match_run_count(self, tmp_path):
        dist = tmp_path / "dist.csv"
        std = tmp_path / "std.csv"
        rc = main([
            "evolve", "--n", "8", "--steps", "6", "--noise", "vertices", "--p", "0.1",
            "--runs", "3", "--seed", "4", "--out-dist", str(dist), "--out-std", str(std),
        ])
        assert rc == 0
        rows = [l for l in dist.read_text().splitlines() if not l.startswith("#")]
        mat = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert mat.shape == (8, 8)
        assert mat.sum() == pytest.approx(1.0, abs=1e-9)
        data = [l for l in std.read_text().splitlines() if not l.startswith("#")]
        assert data[0] == "step,mean_sigma,ci_halfwidth,classical_sigma"
        assert len(data) == 8  # header + steps 0..6
        seeds_line = next(l for l in std.read_text().splitlines() if l.startswith("# run_seeds:"))
        assert len(seeds_line.split(":")[1].split(",")) == 3

    def test_drift_inside_the_walk_exits_3(self, tmp_path, monkeypatch, capsys):
        reflect = sqwsim.evolve._reflect

        def leaky_reflect(*args, **kwargs):
            out = reflect(*args, **kwargs)
            out *= 1.0 + 1e-9
            return out

        monkeypatch.setattr(sqwsim.evolve, "_reflect", leaky_reflect)
        rc = main(["evolve", "--n", "4", "--steps", "3", "--workers", "1",
                   "--out-dist", str(tmp_path / "d.csv"), "--out-std", str(tmp_path / "s.csv")])
        assert rc == 3
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_huge_step_budget_exits_2(self, tmp_path, capsys, workers):
        rc = main(["evolve", "--n", "4", "--steps", HUGE_STEPS, "--noise", "vertices", "--p", "0.1",
                   "--runs", "2", "--workers", workers,
                   "--out-dist", str(tmp_path / "d.csv"), "--out-std", str(tmp_path / "s.csv")])
        assert rc == 2
        assert capsys.readouterr().err == HUGE_STEPS_ERROR

    def test_byte_identical_repeat(self, tmp_path):
        args = ["evolve", "--n", "6", "--steps", "5", "--noise", "polygons", "--p", "0.2",
                "--split", "one_vs_rest", "--runs", "3", "--seed", "8"]
        files = []
        for tag, workers in (("w", "1"), ("x", "1"), ("y", "2"), ("z", "3")):
            d, s = tmp_path / f"d{tag}.csv", tmp_path / f"s{tag}.csv"
            assert main(args + ["--workers", workers, "--out-dist", str(d), "--out-std", str(s)]) == 0
            files.append((d.read_bytes(), s.read_bytes()))
        assert all(f == files[0] for f in files)


class TestSweepCommand:
    def test_singleton_sweep_matches_search(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--n-list", "6", "--p-list", "0", "--runs", "1", "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "n,q,p,mean_p_peak,ci_halfwidth,t_peak,running_time"
        n, q, p, mean_peak, ci, t_peak, rt = rows[1].split(",")
        assert (n, q, p) == ("6", "1", "0")
        from sqwsim.search import SearchConfig, peak_metrics, run_search

        series = run_search(SearchConfig(spec=GridSpec(6, 1)))[0].probabilities
        summary = peak_metrics(series)
        assert float(mean_peak) == pytest.approx(summary.p_peak, abs=1e-15)
        assert int(t_peak) == summary.t_peak
        assert float(rt) == pytest.approx(summary.running_time, abs=1e-12)

    def test_rows_cover_the_grid_of_parameters(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--n-list", "4,6", "--q-list", "1,2", "--p-list", "0,0.1",
                   "--noise", "polygons", "--runs", "2", "--seed", "1", "--out", str(out)])
        assert rc == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 1 + 8
        combos = {
            (int(r.split(",")[0]), int(r.split(",")[1]), float(r.split(",")[2])) for r in rows[1:]
        }
        assert (4, 2, 0.1) in combos
        assert (6, 1, 0.0) in combos

    def test_nonzero_p_requires_kind(self, tmp_path):
        rc = main(["sweep", "--n-list", "4", "--p-list", "0,0.1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize(
        "n_list,p_list,message",
        [
            ("4,x", "0", "error: --n-list must be comma-separated integers, got '4,x'\n"),
            ("4", "0,x", "error: --p-list must be comma-separated numbers, got '0,x'\n"),
        ],
    )
    def test_bad_list_entry_exits_2(self, tmp_path, capsys, n_list, p_list, message):
        rc = main(["sweep", "--n-list", n_list, "--p-list", p_list, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("factor, shown", [("inf", "inf"), ("nan", "nan"), ("1e308", "1e+308")])
    def test_non_finite_step_budget_exits_2(self, tmp_path, capsys, factor, shown):
        rc = main(["sweep", "--n-list", "4", "--p-list", "0", "--steps-factor", factor,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: step budget factor must be positive and give a finite budget, got {shown}\n")
        assert not (tmp_path / "x.csv").exists()

    def test_huge_step_budget_exits_2(self, tmp_path, capsys):
        rc = main(["sweep", "--n-list", "4", "--p-list", "0", "--steps-factor", "1e15",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        steps = default_step_budget(GridSpec(4, 1), 1e15)
        assert capsys.readouterr().err == f"error: step budget {steps} is too large to record its series\n"
        assert not (tmp_path / "x.csv").exists()

    def test_one_pool_per_sweep_and_equal_bytes_at_any_worker_count(self, tmp_path, monkeypatch):
        # four noisy combos and four noiseless ones share one pool
        pools = []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        args = ["sweep", "--n-list", "4,5", "--q-list", "1,2", "--p-list", "0,0.1", "--noise", "polygons",
                "--split", "one_vs_rest", "--runs", "3", "--seed", "5"]
        outputs, built = {}, {}
        for workers in ("1", "2", "3"):
            pools.clear()
            out = tmp_path / f"w{workers}.csv"
            assert main(args + ["--workers", workers, "--out", str(out)]) == 0
            outputs[workers], built[workers] = out.read_bytes(), list(pools)
        assert built == {"1": [], "2": [2], "3": [3]}
        assert outputs["2"] == outputs["1"] and outputs["3"] == outputs["1"]

    def test_scope_without_polygon_noise_exits_2(self, tmp_path, capsys):
        rc = main(["sweep", "--n-list", "4", "--p-list", "0", "--scope", "0", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err == "error: --scope requires --noise polygons\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--n", "1000000", "--steps", "3", "--out-dist", "d.csv", "--out-std", "s.csv"],
        ["search", "--n", "1000000", "--out", "s.csv"],
        ["sweep", "--n-list", "1000000", "--p-list", "0", "--out", "w.csv"],
    ],
    ids=["evolve", "search", "sweep"],
)
def test_grid_too_large_for_memory_exits_2(tmp_path, monkeypatch, capsys, argv):
    # the 4e12-vertex cover's first array (7.28 TiB) is refused at once
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


class TestParserErrors:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_bad_choice_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["search", "--n", "6", "--noise", "gremlins", "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2
