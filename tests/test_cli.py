import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from multisecretary import cli, dp, evaluate, make_policy, new_distribution
from multisecretary.cli import main, round_half_up
from multisecretary.distribution import MAX_SUPPORT, kleinberg_distribution
from multisecretary.errors import BadEpsilon
from multisecretary.evaluate import CSV_HEADER, TAIL_TOL
from multisecretary.policies import BreakpointPolicy
from multisecretary.simulate import cutoff_time, run_episode
from oracles import capped_budget_means


@pytest.fixture()
def dist_file(tmp_path):
    path = tmp_path / "u5.json"
    path.write_text(
        json.dumps({"support": [2.00, 1.55, 1.10, 0.65, 0.20], "pmf": [0.2] * 5})
    )
    return str(path)


def assert_one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestValidate:
    def test_human_output(self, dist_file, capsys):
        assert main(["validate", "--dist", dist_file]) == 0
        out = capsys.readouterr().out
        assert "epsilon = 0.1" in out
        assert "j0" in out

    def test_json_output(self, dist_file, capsys):
        assert main(["validate", "--dist", dist_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["thresholds"][1] == pytest.approx(0.3, abs=1e-12)
        assert payload["thresholds"][-1] is None  # +inf sentinel
        assert payload["epsilon"] == pytest.approx(0.1, abs=1e-15)

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"support": [1.0')
        assert main(["validate", "--dist", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_distribution_exits_2(self, tmp_path):
        bad = tmp_path / "inc.json"
        bad.write_text('{"support": [1.0, 2.0], "pmf": [0.5, 0.5]}')
        assert main(["validate", "--dist", str(bad)]) == 2

    @pytest.mark.parametrize("field,text", [
        ("support", '{"support": ["x", 1], "pmf": [0.5, 0.5]}'),
        ("pmf", '{"support": [2, 1], "pmf": [0.5, {}]}'),
    ])
    def test_non_numeric_entry_exits_2_once(self, tmp_path, capsys, field, text):
        # a non-numeric entry once ended in a ValueError traceback, exit 1
        bad = tmp_path / "word.json"
        bad.write_text(text)
        assert main(["validate", "--dist", str(bad)]) == 2
        assert field in assert_one_error_line(capsys)
        assert main(["sweep-k", "--dist", str(bad), "--n", "10", "--k-range", "2:4:2",
                     "--policies", "br", "--out", str(tmp_path / "s.csv")]) == 2
        assert field in assert_one_error_line(capsys)

    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["sweep-k", "--n", "10", "--k-range", "2:4:2", "--policies", "br", "--out", "{out}"],
    ], ids=["validate", "sweep-k"])
    def test_repeated_and_unknown_keys_exit_2_once(self, tmp_path, capsys, argv):
        # the first "support" was once dropped and "note" ignored: exit 0
        bad = tmp_path / "keys.json"
        bad.write_text('{"support": [9.0], "support": [2.0, 1.55, 1.1, 0.65, 0.2], '
                       '"pmf": [0.2, 0.2, 0.2, 0.2, 0.2], "note": "u5"}')
        argv = [str(tmp_path / "s.csv") if a == "{out}" else a for a in argv]
        assert main(argv + ["--dist", str(bad)]) == 2
        assert "keys: 'support', 'note'\n" in assert_one_error_line(capsys)
        assert [f.name for f in tmp_path.iterdir()] == ["keys.json"]

    def test_strings_and_booleans_exit_2_once(self, tmp_path, capsys):
        # "2" and true once passed as numbers: exit 0 with m = 2
        bad = tmp_path / "strings.json"
        bad.write_text('{"support": ["2", true], "pmf": ["0.5", 0.5]}')
        assert main(["validate", "--dist", str(bad)]) == 2
        assert "support must be a list of numbers" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", ["validate", "sweep-k"])
    @pytest.mark.parametrize("support,pmf,message", [
        ([1e-320, 5e-324], [0.5, 0.5], "support values must be at least"),
        ([2.0, 1.0], [1.0, 1e-320], "masses must be at least"),
    ])
    def test_subnormal_values_and_masses_exit_2_once(self, tmp_path, capsys, command, support,
                                                     pmf, message):
        # both files once validated; on the first, br and dp reported v_on above v_off
        bad = tmp_path / "sub.json"
        bad.write_text(json.dumps({"support": support, "pmf": pmf}))
        argv = [] if command == "validate" else ["--n", "10", "--k-range", "2:2:1", "--policies",
                                                 "br,dp", "--out", str(tmp_path / "s.csv")]
        assert main([command, "--dist", str(bad), *argv]) == 2
        assert message in assert_one_error_line(capsys)
        assert [f.name for f in tmp_path.iterdir()] == ["sub.json"]

    def test_non_utf8_file_exits_2_once(self, tmp_path, capsys):
        # the decode error once escaped main: a UnicodeDecodeError traceback, exit 1
        bad = tmp_path / "bin.json"
        bad.write_bytes(b"\xff\xfe\x00bad")
        assert main(["validate", "--dist", str(bad)]) == 2
        assert "not UTF-8" in assert_one_error_line(capsys)
        assert main(["sweep-k", "--dist", str(bad), "--n", "10", "--k-range", "2:4:2",
                     "--policies", "br", "--out", str(tmp_path / "s.csv")]) == 2
        assert "not UTF-8" in assert_one_error_line(capsys)
        assert [f.name for f in tmp_path.iterdir()] == ["bin.json"]


class TestSweepK:
    def test_exact_sweep_and_manifest(self, dist_file, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep-k", "--dist", dist_file, "--n", "80", "--k-range", "0:80:20",
            "--policies", "br,dp", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_rows(out)
        assert header.startswith("policy,n,k,method")
        assert len(rows) == 10
        zero_rows = [r for r in rows if r[2] in ("0", "80")]
        for r in zero_rows:
            assert abs(float(r[6])) <= 1e-9
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["command"] == "sweep-k"
        assert len(manifest["dist_sha"]) == 64
        assert manifest["rng"] == "philox"

    def test_reruns_are_byte_identical(self, dist_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep-k", "--dist", dist_file, "--n", "60", "--k-range", "10:50:20",
                "--policies", "br,ai", "--seed", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_mc_mode_reruns_identical(self, dist_file, tmp_path):
        out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        args = ["sweep-k", "--dist", dist_file, "--n", "40", "--k-range", "10:10:5",
                "--policies", "br", "--mc", "--reps", "300", "--seed", "5"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_step_larger_than_range_single_point(self, dist_file, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["sweep-k", "--dist", dist_file, "--n", "30", "--k-range",
                     "10:12:50", "--policies", "br", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 1 and rows[0][2] == "10"

    def test_matrix_policy_from_file(self, dist_file, tmp_path):
        mat = tmp_path / "mat.csv"
        np.savetxt(mat, np.vstack([np.ones(30), np.zeros((4, 30))]), delimiter=",")
        out = tmp_path / "m.csv"
        rc = main(["sweep-k", "--dist", dist_file, "--n", "30", "--k-range", "5:5:1",
                   "--policies", f"matrix:{mat}", "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out)
        assert rows[0][0] == "matrix"

    def test_two_matrix_policies_exit_2(self, dist_file, tmp_path, capsys):
        # every matrix: policy writes rows named matrix, so two once wrote
        # rows that could not be told apart
        mat = tmp_path / "m.csv"
        np.savetxt(mat, np.full((5, 20), 0.5), delimiter=",")
        out = tmp_path / "sk.csv"
        rc = main(["sweep-k", "--dist", dist_file, "--n", "20", "--k-range", "6:6:1",
                   "--policies", f"matrix:{mat},matrix:{tmp_path}/./m.csv", "--out", str(out)])
        assert rc == 2
        assert "would both write" in assert_one_error_line(capsys)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["m.csv", "u5.json"]

    def test_partial_failure_exits_1(self, dist_file, tmp_path, capsys):
        # horizon mismatch makes the matrix cell fail while br succeeds
        mat = tmp_path / "mat.csv"
        np.savetxt(mat, np.ones((5, 10)), delimiter=",")
        out = tmp_path / "part.csv"
        rc = main(["sweep-k", "--dist", dist_file, "--n", "30", "--k-range", "5:5:1",
                   "--policies", f"br,matrix:{mat}", "--out", str(out)])
        assert rc == 1
        assert "failed" in capsys.readouterr().err
        _, rows = read_rows(out)
        assert len(rows) == 1 and rows[0][0] == "br"

    def test_non_integer_range_exits_2(self, dist_file, tmp_path, capsys):
        assert main(["sweep-k", "--dist", dist_file, "--n", "30", "--k-range", "1:x:2",
                     "--policies", "br", "--out", str(tmp_path / "x.csv")]) == 2
        assert_one_error_line(capsys)

    def test_unknown_policy_exits_2_once(self, dist_file, tmp_path, capsys):
        assert main(["sweep-k", "--dist", dist_file, "--n", "30", "--k-range", "0:30:10",
                     "--policies", "br,greedy", "--out", str(tmp_path / "x.csv")]) == 2
        assert "greedy" in assert_one_error_line(capsys)

    def test_mc_zero_reps_exits_2_once(self, dist_file, tmp_path, capsys):
        # 2**32 + 1 reps once failed every cell with exit 1 and wrote a CSV
        for reps in ("0", str(2**32 + 1)):
            for argv in (["sweep-k", "--n", "30", "--k-range", "0:30:10"],
                         ["sweep-n", "--n-list", "30", "--ratio", "0.3"]):
                assert main(argv + ["--dist", dist_file, "--policies", "br,ai", "--mc",
                                    "--reps", reps, "--out", str(tmp_path / "x.csv")]) == 2
                assert "reps" in assert_one_error_line(capsys)
                assert [f.name for f in tmp_path.iterdir()] == ["u5.json"]

    def test_exact_zero_reps_exits_2_once(self, dist_file, tmp_path, capsys):
        # an exact sweep once took --reps 0 and exited 0
        for reps in ("0", str(2**32 + 1)):
            for argv in (["sweep-k", "--n", "20", "--k-range", "0:20:10"],
                         ["sweep-n", "--n-list", "20", "--ratio", "0.3"]):
                assert main(argv + ["--dist", dist_file, "--policies", "br", "--reps", reps,
                                    "--out", str(tmp_path / "x.csv")]) == 2
                assert "reps" in assert_one_error_line(capsys)
                assert [f.name for f in tmp_path.iterdir()] == ["u5.json"]

    def test_unreadable_matrix_file_fails_its_cell(self, dist_file, tmp_path, capsys):
        mat = tmp_path / "bad.csv"
        mat.write_text("1,0,x\n")
        out = tmp_path / "x.csv"
        assert main(["sweep-k", "--dist", dist_file, "--n", "30", "--k-range", "5:5:1",
                     "--policies", f"br,matrix:{mat}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bad.csv" in err and "not a numeric CSV" in err
        _, rows = read_rows(out)
        assert [r[0] for r in rows] == ["br"]

    def test_mc_fails_infeasible_cells(self, dist_file, tmp_path, capsys):
        # the sample-path engine once wrote rows at k > n
        out = tmp_path / "x.csv"
        rc = main(["sweep-k", "--dist", dist_file, "--n", "5", "--k-range", "4:6:1",
                   "--policies", "br,ai", "--mc", "--reps", "10", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.count("not a feasible pair") == 2
        _, rows = read_rows(out)
        cells = sorted((r[0], r[2]) for r in rows)
        assert cells == [("ai", "4"), ("ai", "5"), ("br", "4"), ("br", "5")]

    @pytest.mark.parametrize("argv,message", [
        # the k list itself: a bare MemoryError carries no message
        (["sweep-k", "--n", "100", "--k-range", "0:1000000000000000:1", "--policies", "br"],
         "error: out of memory\n"),
        # br's breakpoint table: numpy names the allocation
        (["paths", "--n", "1000000000000000", "--k", "3", "--policies", "br", "--seeds", "1"],
         "error: Unable to allocate"),
    ])
    def test_input_too_large_for_memory_exits_2_once(self, dist_file, tmp_path, capsys, argv,
                                                     message):
        # both once ended in a MemoryError traceback with exit 1
        assert main(argv + ["--dist", dist_file, "--out", str(tmp_path / "x.csv")]) == 2
        assert assert_one_error_line(capsys).startswith(message)
        assert [f.name for f in tmp_path.iterdir()] == ["u5.json"]

    @pytest.mark.parametrize("mode", [[], ["--mc", "--reps", "100"]])
    def test_overflowing_cells_fail_and_write_no_inf_or_nan(self, tmp_path, capsys, mode):
        # a value near the float maximum once wrote rows such as
        # ai,10,4,exact,nan,inf,nan,0,0 with exit 0
        dist = tmp_path / "big.json"
        dist.write_text(json.dumps({"support": [1e308, 1.0], "pmf": [0.5, 0.5]}))
        out = tmp_path / "big.csv"
        assert main(["sweep-k", "--dist", str(dist), "--n", "10", "--k-range", "2:4:2",
                     "--policies", "br,dp,ai,index,take-top", "--out", str(out), *mode]) == 1
        text = out.read_text().lower()
        assert "inf" not in text and "nan" not in text
        err = capsys.readouterr().err
        assert "cell policy=ai n=10 k=4 failed: cell values are not finite: v_on" in err

    @pytest.mark.parametrize("mode", [[], ["--mc", "--reps", "100"]])
    def test_overflowing_cells_print_one_line_each(self, tmp_path, mode):
        # numpy's overflow warnings and their source lines once came before the cell lines
        dist = tmp_path / "big.json"
        dist.write_text(json.dumps({"support": [1e308, 1.0], "pmf": [0.5, 0.5]}))
        proc = subprocess.run(
            [sys.executable, "-m", "multisecretary.cli", "sweep-k", "--dist", str(dist),
             "--n", "10", "--k-range", "2:4:2", "--policies", "br,dp,ai,index,take-top",
             "--out", str(tmp_path / "big.csv"), *mode],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 10 and all(line.startswith("cell policy=") for line in lines)


class TestSweepN:
    def test_single_n_one_record_per_policy(self, dist_file, tmp_path):
        out = tmp_path / "n.csv"
        assert main(["sweep-n", "--dist", dist_file, "--n-list", "100", "--ratio",
                     "0.3", "--policies", "br,dp,ai", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 3
        assert all(r[2] == "30" for r in rows)

    def test_zero_ratio_zero_regret(self, dist_file, tmp_path):
        out = tmp_path / "z.csv"
        assert main(["sweep-n", "--dist", dist_file, "--n-list", "50,100", "--ratio",
                     "0", "--policies", "br", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert all(abs(float(r[6])) <= 1e-9 for r in rows)

    def test_bad_n_list_exits_2(self, dist_file, tmp_path, capsys):
        assert main(["sweep-n", "--dist", dist_file, "--n-list", "100,x", "--ratio",
                     "0.3", "--policies", "br", "--out", str(tmp_path / "x.csv")]) == 2
        assert "100,x" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("ratio", ["nan", "inf", "1e308", "-1e308"])
    def test_non_finite_ratio_exits_2(self, dist_file, tmp_path, capsys, ratio):
        # these once ended in a traceback from round_half_up, the last two
        # because ratio * n overflows to infinity
        assert main(["sweep-n", "--dist", dist_file, "--n-list", "100", f"--ratio={ratio}",
                     "--policies", "br", "--out", str(tmp_path / "x.csv")]) == 2
        assert "ratio" in assert_one_error_line(capsys)
        assert [f.name for f in tmp_path.iterdir()] == ["u5.json"]

    def test_ratio_above_one_fails_its_cells(self, dist_file, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sweep-n", "--dist", dist_file, "--n-list", "10", "--ratio", "1.5",
                     "--policies", "br,ai", "--mc", "--reps", "10", "--out", str(out)]) == 1
        assert capsys.readouterr().err.count("not a feasible pair") == 2
        assert read_rows(out) == (CSV_HEADER, [])

    @pytest.mark.parametrize("mode", [[], ["--mc", "--reps", "10"]], ids=["exact", "mc"])
    @pytest.mark.parametrize("name", ["br", "dp", "ai", "index", "take-top"])
    def test_zero_horizon_fails_every_rule_alike(self, dist_file, tmp_path, capsys, name, mode):
        # take-top once failed with a message of its own, "horizon must be >= 1, got 0",
        # and an exact sweep once wrote rows for br, dp and ai at n = 0
        out = tmp_path / "x.csv"
        assert main(["sweep-n", "--dist", dist_file, "--n-list", "0", "--ratio", "0.3",
                     "--policies", name, "--out", str(out)] + mode) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"cell policy={name} n=0 k=0 failed: (n=0, k=0) is not a feasible pair"]
        assert read_rows(out) == (CSV_HEADER, [])

    def test_rounding_half_up(self):
        assert round_half_up(2.5) == 3
        assert round_half_up(2.49) == 2


class TestKleinberg:
    def test_distribution_validity_window(self):
        d = kleinberg_distribution(0.01)
        np.testing.assert_allclose(d.pmf, [0.46, 0.02, 0.52], atol=1e-12)
        with pytest.raises(BadEpsilon):
            kleinberg_distribution(0.2)
        with pytest.raises(BadEpsilon):
            kleinberg_distribution(0.125)

    def test_single_epsilon_two_rows(self, tmp_path):
        out = tmp_path / "k.csv"
        assert main(["kleinberg", "--epsilons", "0.05", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 2
        assert {r[0] for r in rows} == {"br", "dp"}
        assert all(r[1] == "400" and r[2] == "200" for r in rows)

    def test_bad_epsilon_exits_2(self, tmp_path):
        assert main(["kleinberg", "--epsilons", "0.2", "--out", str(tmp_path / "x.csv")]) == 2

    def test_unparsable_epsilon_exits_2(self, tmp_path, capsys):
        assert main(["kleinberg", "--epsilons", "0.05,abc",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("bad", ["1e-170", "0.2"])
    def test_every_epsilon_checked_before_any_sweep(self, tmp_path, capsys, monkeypatch, bad):
        # an epsilon after 0.01 was once checked only after the n=10,000
        # cells of 0.01 had been evaluated
        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep ran before every epsilon was checked")

        monkeypatch.setattr(cli, "sweep", no_sweep)
        assert main(["kleinberg", "--epsilons", f"0.01,{bad}",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "epsilon" in assert_one_error_line(capsys)
        assert list(tmp_path.iterdir()) == []

    def test_epsilons_with_one_horizon_exit_2(self, tmp_path, capsys):
        # both once gave n=100, k=50: two br,100,50 rows with different v_on
        assert main(["kleinberg", "--epsilons", "0.05,0.1,0.1000001", "--policies", "br",
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = assert_one_error_line(capsys)
        assert "0.1 and 0.1000001" in err and "n=100" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("eps", ["1e-170", "1e-160"])
    def test_epsilon_without_finite_horizon_exits_2(self, tmp_path, capsys, eps):
        # eps**2 underflows to 0 (ZeroDivisionError) or 1/eps**2 overflows to
        # inf (OverflowError): both once ended in a traceback
        assert main(["kleinberg", "--epsilons", f"0.05,{eps}",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "epsilon" in assert_one_error_line(capsys)
        assert list(tmp_path.iterdir()) == []


class TestPaths:
    def test_shared_seed_aligns_abilities(self, dist_file, tmp_path):
        out = tmp_path / "paths.csv"
        assert main(["paths", "--dist", dist_file, "--n", "200", "--k", "60",
                     "--policies", "br,dp", "--seeds", "11", "--out", str(out)]) == 0
        _, br_rows = read_rows(tmp_path / "paths_br_seed11.csv")
        _, dp_rows = read_rows(tmp_path / "paths_dp_seed11.csv")
        assert [r[1] for r in br_rows] == [r[1] for r in dp_rows]
        assert br_rows[0][0] == "1" and len(br_rows) == 200

    @pytest.mark.parametrize("out,written", [
        ("./paths", "paths_br_seed3.csv"),
        ("res.d/paths", "res.d/paths_br_seed3.csv"),
        ("res.d/p.txt", "res.d/p_br_seed3.txt"),
    ])
    def test_out_suffix_is_the_file_names(self, dist_file, tmp_path, monkeypatch, out, written):
        # a dot outside the file name was once taken for its suffix
        monkeypatch.chdir(tmp_path)
        (tmp_path / "res.d").mkdir()
        assert main(["paths", "--dist", dist_file, "--n", "20", "--k", "6",
                     "--policies", "br", "--seeds", "3", "--out", out]) == 0
        header, rows = read_rows(tmp_path / written)
        assert header == "t,ability_index,decision,K_t,R_t" and len(rows) == 20
        assert (tmp_path / (out + ".manifest.json")).exists()

    def test_distinct_seeds_distinct_files(self, dist_file, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["paths", "--dist", dist_file, "--n", "50", "--k", "15",
                     "--policies", "br", "--seeds", "1,2", "--out", str(out)]) == 0
        a = (tmp_path / "p_br_seed1.csv").read_text()
        b = (tmp_path / "p_br_seed2.csv").read_text()
        assert a != b

    def test_a_failing_policy_writes_no_file(self, dist_file, tmp_path, capsys):
        # br's file was once written before the bad matrix file was read
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n")
        assert main(["paths", "--dist", dist_file, "--n", "10", "--k", "3", "--policies",
                     f"br,matrix:{bad}", "--seeds", "1", "--out", str(tmp_path / "p.csv")]) == 2
        assert "not a numeric CSV" in assert_one_error_line(capsys)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["bad.csv", "u5.json"]

    def test_matrix_file_is_named_by_its_policy(self, dist_file, tmp_path):
        # the spec's path once went into the file name, slashes and all
        good = tmp_path / "sub" / "good.csv"
        good.parent.mkdir()
        np.savetxt(good, np.full((5, 10), 0.5), delimiter=",")
        assert main(["paths", "--dist", dist_file, "--n", "10", "--k", "3", "--policies",
                     f"br,matrix:{good}", "--seeds", "1", "--out", str(tmp_path / "p.csv")]) == 0
        header, rows = read_rows(tmp_path / "p_matrix_seed1.csv")
        assert header == "t,ability_index,decision,K_t,R_t" and len(rows) == 10
        assert (tmp_path / "p_br_seed1.csv").exists()

    def test_two_policies_with_one_name_exit_2(self, dist_file, tmp_path, capsys):
        paths = []
        for name in ("a.csv", "b.csv"):
            paths.append(tmp_path / name)
            np.savetxt(paths[-1], np.full((5, 10), 0.5), delimiter=",")
        assert main(["paths", "--dist", dist_file, "--n", "10", "--k", "3", "--policies",
                     f"br,matrix:{paths[0]},matrix:{paths[1]}", "--seeds", "1",
                     "--out", str(tmp_path / "p.csv")]) == 2
        assert "would both write" in assert_one_error_line(capsys)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["a.csv", "b.csv", "u5.json"]


class TestRatioMeanAndDiagnostics:
    def test_ratio_mean_rows(self, dist_file, tmp_path):
        out = tmp_path / "rm.csv"
        assert main(["ratio-mean", "--dist", dist_file, "--n", "60", "--k", "18",
                     "--policies", "br,dp", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == "policy,t,mean_ratio,mean_budget"
        assert len(rows) == 120
        manifest = json.loads((tmp_path / "rm.csv.manifest.json").read_text())
        assert manifest["seed"] is None
        assert manifest["grid"] == {"n": 60, "k": 18, "policies": ["br", "dp"]}

    def test_csv_matches_the_capped_mean_within_its_bound(self, dist_file, tmp_path):
        # index and take-top select at one rate s, so E[K_t] = k - E[min(Bin(t, s), k)];
        # each written value is low by at most k * TAIL_TOL, then rounded to 12 digits
        n, k = 300, 90
        out = tmp_path / "rm.csv"
        assert main(["ratio-mean", "--dist", dist_file, "--n", str(n), "--k", str(k),
                     "--policies", "take-top,index", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        d = new_distribution([2.00, 1.55, 1.10, 0.65, 0.20], [0.2] * 5)
        for i, name in enumerate(["index", "take-top"]):
            block = rows[i * n : (i + 1) * n]
            assert [r[0] for r in block] == [name] * n
            assert [int(r[1]) for r in block] == list(range(n))
            want = capped_budget_means(make_policy(name, d, n, k), n, k)
            got = np.array([[float(r[2]), float(r[3])] for r in block])
            for col, exact in ((0, want / (n - np.arange(n))), (1, want)):
                assert np.all(np.abs(got[:, col] - exact) <= k * TAIL_TOL + 5e-12 * exact), col

    def test_every_policy_checked_before_the_first_pass(
        self, dist_file, tmp_path, capsys, monkeypatch
    ):
        # dp's whole pass once ran before matrix:bad.csv was read
        calls = []
        monkeypatch.setattr(cli, "ratio_mean_curve", lambda *args: calls.append(args))
        mat = tmp_path / "bad.csv"
        mat.write_text("1,0,x\n")
        out = tmp_path / "rm.csv"
        assert main(["ratio-mean", "--dist", dist_file, "--n", "30", "--k", "9", "--policies",
                     f"dp,matrix:{mat}", "--out", str(out)]) == 2
        assert "bad.csv" in assert_one_error_line(capsys)
        assert calls == [] and not out.exists()

    def test_ratio_mean_rows_are_named_by_policy(self, dist_file, tmp_path):
        # a matrix: policy's rows once read matrix:<file>, where the other
        # commands write matrix
        mat = tmp_path / "m.csv"
        np.savetxt(mat, np.full((5, 12), 0.5), delimiter=",")
        out = tmp_path / "rm.csv"
        assert main(["ratio-mean", "--dist", dist_file, "--n", "12", "--k", "4", "--policies",
                     f"br,matrix:{mat}", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [r[0] for r in rows] == ["br"] * 12 + ["matrix"] * 12

    def test_diagnostics_at_largest_support(self, tmp_path):
        # the cutoff marker j = m + 1 once overflowed int16 at m = 32767
        m = MAX_SUPPORT
        dist = tmp_path / "big.json"
        dist.write_text(json.dumps({"support": list(range(m, 0, -1)), "pmf": [1.0 / m] * m}))
        out = tmp_path / "diag.csv"
        assert main(["diagnostics", "--dist", str(dist), "--n", "10", "--k", "3",
                     "--delta", "1e-6", "--reps", "5", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [r[2] for r in rows] == [str(m + 1)] * 5

    def test_diagnostics_output(self, dist_file, tmp_path):
        out = tmp_path / "diag.csv"
        assert main(["diagnostics", "--dist", dist_file, "--n", "300", "--k", "90",
                     "--delta", "0.05", "--reps", "40", "--seed", "2",
                     "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == "rep,tau0,j_tau0,tau,n_minus_tau"
        assert len(rows) == 40
        assert all(int(r[3]) + int(r[4]) == 300 for r in rows)

    @pytest.mark.parametrize("argv", [
        ["diagnostics", "--n", "0", "--k", "0", "--delta", "0.05", "--reps", "10"],
        ["diagnostics", "--n", "10", "--k", "20", "--delta", "0.05", "--reps", "10"],
        ["ratio-mean", "--n", "10", "--k", "-3", "--policies", "br,ai"],
        ["ratio-mean", "--n", "0", "--k", "0", "--policies", "br"],
    ])
    def test_infeasible_pair_exits_2_once(self, dist_file, tmp_path, capsys, argv):
        # these once ended in an argmax traceback or wrote a CSV
        assert main(argv + ["--dist", dist_file, "--out", str(tmp_path / "x.csv")]) == 2
        assert "not a feasible pair" in assert_one_error_line(capsys)

    def test_failed_ratio_mean_writes_no_csv(self, dist_file, tmp_path, capsys):
        # the header used to be written before the pair check ran
        out = tmp_path / "rm.csv"
        assert main(["ratio-mean", "--dist", dist_file, "--n", "10", "--k", "-3",
                     "--policies", "ai", "--out", str(out)]) == 2
        assert "not a feasible pair" in assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["diagnostics", "--policy", "matrix:{mat}", "--n", "3", "--k", "1", "--delta", "0.05",
         "--reps", "10"],
        ["ratio-mean", "--policies", "br,matrix:{mat}", "--n", "3", "--k", "1"],
    ])
    def test_unreadable_matrix_file_exits_2_once(self, dist_file, tmp_path, capsys, argv):
        # np.loadtxt's ValueError once ended in a traceback
        mat = tmp_path / "bad.csv"
        mat.write_text("1,0,x\n")
        out = tmp_path / "x.csv"
        argv = [a.format(mat=mat) for a in argv]
        assert main(argv + ["--dist", dist_file, "--out", str(out)]) == 2
        assert "bad.csv" in assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["diagnostics", "--policy", "matrix:", "--n", "3", "--k", "1", "--delta", "0.05",
         "--reps", "10"],
        ["paths", "--policies", "matrix:", "--n", "3", "--k", "1", "--seeds", "1"],
    ])
    def test_matrix_naming_no_file_exits_2_once(self, dist_file, tmp_path, capsys, argv):
        # an empty path once printed "error:  not found."
        assert main(argv + ["--dist", dist_file, "--out", str(tmp_path / "x.csv")]) == 2
        assert "matrix: policy names no file" in assert_one_error_line(capsys)
        assert [f.name for f in tmp_path.iterdir()] == ["u5.json"]

    def test_delta_at_least_epsilon_exits_2(self, dist_file, tmp_path):
        assert main(["diagnostics", "--dist", dist_file, "--n", "300", "--k", "90",
                     "--delta", "0.1", "--reps", "10",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_delta_checked_before_policy_is_built(self, dist_file, tmp_path, capsys, monkeypatch):
        # delta was once checked only after make_policy, so a bad delta with
        # --policy dp solved the whole DP (2 s at n=40,000) before it exited
        def no_solve(*args, **kwargs):
            raise AssertionError("the DP was solved before delta was checked")

        monkeypatch.setattr(dp, "solve", no_solve)
        out = tmp_path / "x.csv"
        assert main(["diagnostics", "--dist", dist_file, "--policy", "dp", "--n", "40000",
                     "--k", "12000", "--delta", "0.5", "--reps", "10", "--out", str(out)]) == 2
        assert "delta" in assert_one_error_line(capsys)
        assert not out.exists()


class TestPinnedCsvs:
    # sha256 of each CSV the sample-path commands write on u5 at n=300, k=90:
    # a change to how replications are drawn or stepped changes them.  Every
    # value is derived from integers, so the bytes do not depend on the platform
    DIGESTS = {
        "p_ai_seed1.csv": "a99a5e7fcade7907d14518e44909af179294c097eb9abd32594fd67f0c0eb435",
        "p_ai_seed2.csv": "d83103f18f9c3f7f7ce392f29c9f1227aad9c8df77abf82b1359a37abb7199ca",
        "p_br_seed1.csv": "6b5c6cb55f3ea0a24020f29d65686a7fe5c87dc3c93ea414b31cbe924ea2acbe",
        "p_br_seed2.csv": "33b0d53d432d05ce7ad3097905908ca054d0d3c8a441e7ab12bdabc9e9ca8fa8",
        "p_dp_seed1.csv": "cf695c68d00d2354f799eb2056f1d4f04393aca7dbf805c0215fce4bfa38d6f6",
        "p_dp_seed2.csv": "022e203fc194c132c4ba09688801efd35f89931e64895ea39b0ad05da4723ecc",
        "p_index_seed1.csv": "7ea6d1fb2d49b52c79e6e09d0f7e80a1ecf6efeb88f863902087b575d7b774fd",
        "p_index_seed2.csv": "e8f7794cff522f2334710dbc019c71c62563f08dd19f9abc2ede36223361bdcf",
        "diag.csv": "457ec8e5bb65afee70f63a97011dfde68148c4f9f2f382fb13b12efcc06a0b37",
    }

    def test_sample_path_csvs_match_digests(self, dist_file, tmp_path):
        cell = ["--dist", dist_file, "--n", "300", "--k", "90"]
        assert main(["paths", *cell, "--policies", "br,dp,ai,index", "--seeds", "1,2",
                     "--out", str(tmp_path / "p.csv")]) == 0
        assert main(["diagnostics", *cell, "--delta", "0.05", "--reps", "3000",
                     "--seed", "4", "--out", str(tmp_path / "diag.csv")]) == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in self.DIGESTS}
        assert got == self.DIGESTS

    def test_diagnostics_steps_no_period_past_the_cutoff(self, dist_file, tmp_path, monkeypatch):
        # the orbit scan reads no budget past the cutoff t_cut = 300 - 41, so
        # each of the three blocks takes t_cut decide_batch calls, not n, and
        # the CSV keeps its bytes
        left, decide = [], BreakpointPolicy.decide_batch

        def spy(self, periods_left, budgets, abilities, u):
            left.append(periods_left)
            return decide(self, periods_left, budgets, abilities, u)

        monkeypatch.setattr(BreakpointPolicy, "decide_batch", spy)
        out = tmp_path / "diag.csv"
        assert main(["diagnostics", "--dist", dist_file, "--n", "300", "--k", "90", "--delta", "0.05",
                     "--reps", "3000", "--seed", "4", "--out", str(out)]) == 0
        t_cut = cutoff_time(300, 0.05)
        assert left == list(range(300, 300 - t_cut, -1)) * 3
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS["diag.csv"]


class TestSeeds:
    @pytest.mark.parametrize("argv", [
        ["paths", "--n", "10", "--k", "3", "--policies", "br", "--seeds", "1,-1"],
        ["sweep-n", "--n-list", "10", "--ratio", "0.3", "--policies", "br", "--mc",
         "--reps", "5", "--seed", "-1"],
        ["diagnostics", "--n", "100", "--k", "30", "--delta", "0.05", "--reps", "5",
         "--seed", "-2"],
        ["sweep-k", "--n", "10", "--k-range", "1:5:2", "--policies", "br,ai", "--mc",
         "--reps", "5", "--seed", "-1"],
    ])
    def test_negative_seed_exits_2_before_writing(self, dist_file, tmp_path, capsys, argv):
        # numpy once raised "expected non-negative integer": a traceback, or
        # every sweep cell failed with it and the command exited 1
        assert main(argv + ["--dist", dist_file, "--out", str(tmp_path / "x.csv")]) == 2
        assert "seeds must be >= 0" in assert_one_error_line(capsys)
        assert [f.name for f in tmp_path.iterdir()] == ["u5.json"]


class TestEmptyLists:
    @pytest.mark.parametrize("argv", [
        ["paths", "--dist", "{dist}", "--n", "10", "--k", "3", "--policies", "br",
         "--seeds", ","],
        ["sweep-n", "--dist", "{dist}", "--n-list", ",", "--ratio", "0.3", "--policies", "br"],
        ["kleinberg", "--epsilons", ","],
    ], ids=["paths", "sweep-n", "kleinberg"])
    def test_empty_list_exits_2_before_writing(self, dist_file, tmp_path, capsys, argv):
        # these once wrote a manifest or a header-only CSV and exited 0
        argv = [dist_file if a == "{dist}" else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert "','" in assert_one_error_line(capsys)
        assert [f.name for f in tmp_path.iterdir()] == ["u5.json"]


class TestSharedFlags:
    WRITERS = [
        ["sweep-k", "--dist", "{dist}", "--n", "10", "--k-range", "2:4:2", "--policies", "br"],
        ["sweep-n", "--dist", "{dist}", "--n-list", "10", "--ratio", "0.3", "--policies", "br",
         "--mc", "--reps", "5"],
        ["kleinberg", "--epsilons", "0.1", "--policies", "br"],
        ["paths", "--dist", "{dist}", "--n", "10", "--k", "3", "--policies", "br", "--seeds", "1"],
        ["ratio-mean", "--dist", "{dist}", "--n", "10", "--k", "3", "--policies", "br"],
        ["diagnostics", "--dist", "{dist}", "--n", "100", "--k", "30", "--delta", "0.05",
         "--reps", "5"],
    ]

    @pytest.mark.parametrize("argv", WRITERS, ids=[argv[0] for argv in WRITERS])
    @pytest.mark.parametrize("out,error", [
        ("nodir/x.csv", "[Errno 2] No such file or directory"),
        ("adir", "[Errno 21] Is a directory"),
    ], ids=["missing-dir", "dir"])
    def test_unwritable_out_exits_2_before_any_work(self, dist_file, tmp_path, monkeypatch,
                                                    capsys, argv, out, error):
        # each once did all its work, then failed to open --out
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        built = []

        def spy(name, *args):
            built.append(name)
            return make_policy(name, *args)

        for module in (evaluate, cli):
            monkeypatch.setattr(module, "make_policy", spy)
        argv = [dist_file if a == "{dist}" else a for a in argv]
        assert main(argv + ["--out", out]) == 2
        assert assert_one_error_line(capsys) == f"error: {error}: {out!r}\n"
        assert built == []
        assert sorted(f.name for f in tmp_path.iterdir()) == ["adir", "u5.json"]
        assert not any((tmp_path / "adir").iterdir())

    @pytest.mark.parametrize("argv,error", [
        (["sweep-k", "--dist", "{dist}", "--n", "10", "--k-range", "5:1:1", "--policies", "br",
          "--reps", "0"], "reps must be in [1, 2**32], got 0"),
        (["sweep-n", "--dist", "{dist}", "--n-list", "x", "--ratio", "0.3", "--policies",
          "greedy"], "unknown policy 'greedy'"),
        (["diagnostics", "--dist", "missing.json", "--n", "100", "--k", "30", "--delta", "0.05",
          "--reps", "0"], "reps must be in [1, 2**32], got 0"),
    ], ids=["sweep-k-reps", "sweep-n-policies", "diagnostics-reps"])
    def test_a_shared_flag_is_checked_before_a_command_flag(self, dist_file, tmp_path,
                                                            monkeypatch, capsys, argv, error):
        # each once named its command flag, since only the command checked the shared one
        monkeypatch.chdir(tmp_path)
        argv = [dist_file if a == "{dist}" else a for a in argv]
        assert main(argv + ["--out", "x.csv"]) == 2
        assert error in assert_one_error_line(capsys)
        assert [f.name for f in tmp_path.iterdir()] == ["u5.json"]


class TestRepeatedEntries:
    @pytest.mark.parametrize("repeated,single", [
        (["sweep-k", "--dist", "{dist}", "--n", "30", "--k-range", "5:25:10", "--policies",
          "br,ai,br"], "br,ai"),
        (["sweep-k", "--dist", "{dist}", "--n", "30", "--k-range", "5:25:10", "--policies",
          "br,br", "--mc", "--reps", "300", "--seed", "4"], "br"),
        (["sweep-n", "--dist", "{dist}", "--n-list", "10,20,10", "--ratio", "0.3",
          "--policies", "dp"], "10,20"),
        (["kleinberg", "--epsilons", "0.1,0.1", "--policies", "br"], "0.1"),
    ], ids=["sweep-k", "sweep-k-mc", "sweep-n", "kleinberg"])
    def test_each_row_written_once(self, dist_file, tmp_path, repeated, single):
        # each of these once evaluated and wrote every repeated cell twice
        argv = [dist_file if a == "{dist}" else a for a in repeated]
        assert main(argv + ["--out", str(tmp_path / "rep.csv")]) == 0
        flag = {"sweep-n": "--n-list", "kleinberg": "--epsilons"}.get(argv[0], "--policies")
        argv[argv.index(flag) + 1] = single
        assert main(argv + ["--out", str(tmp_path / "one.csv")]) == 0
        assert (tmp_path / "rep.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    def test_paths_writes_each_file_once(self, dist_file, tmp_path, monkeypatch):
        # --seeds 1,1 once played and wrote the same file twice
        played = []

        def counted(policy, n, k, seed, rep=0):
            played.append((policy.name, seed))
            return run_episode(policy, n, k, seed, rep)

        monkeypatch.setattr(cli, "run_episode", counted)
        assert main(["paths", "--dist", dist_file, "--n", "20", "--k", "6", "--policies",
                     "br,dp,br", "--seeds", "1,2,1", "--out", str(tmp_path / "p.csv")]) == 0
        assert played == [("br", 1), ("br", 2), ("dp", 1), ("dp", 2)]
        manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
        assert manifest["seed"] == [1, 2] and manifest["grid"]["policies"] == ["br", "dp"]


class TestOneCsvWriter:
    @pytest.mark.parametrize("argv,files", [
        (["sweep-k", "--dist", "{dist}", "--n", "10", "--k-range", "2:4:2", "--policies", "br,ai"],
         1),
        (["kleinberg", "--epsilons", "0.1,0.05", "--policies", "br"], 1),
        (["paths", "--dist", "{dist}", "--n", "10", "--k", "3", "--policies", "br,ai",
          "--seeds", "1,2"], 4),
        (["ratio-mean", "--dist", "{dist}", "--n", "10", "--k", "3", "--policies", "br,ai"], 1),
        (["diagnostics", "--dist", "{dist}", "--n", "100", "--k", "30", "--delta", "0.05",
          "--reps", "5"], 1),
    ], ids=["sweep-k", "kleinberg", "paths", "ratio-mean", "diagnostics"])
    def test_every_csv_goes_through_write_csv(self, dist_file, tmp_path, monkeypatch, argv,
                                              files):
        written, write_csv = [], evaluate.write_csv

        def spy(path, header, rows):
            written.append(str(path))
            write_csv(path, header, rows)

        for module in (evaluate, cli):
            monkeypatch.setattr(module, "write_csv", spy)
        argv = [dist_file if a == "{dist}" else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 0
        csvs = sorted(tmp_path.glob("*.csv"))
        assert sorted(written) == [str(p) for p in csvs] and len(csvs) == files
        assert not any(b"\r" in p.read_bytes() for p in csvs)


class TestManifests:
    KEYS = {"command", "dist_sha", "seed", "grid", "version", "rng", "wall_time_s"}

    @pytest.mark.parametrize("argv,seed", [
        (["sweep-k", "--dist", "{dist}", "--n", "10", "--k-range", "2:4:2", "--policies", "br"],
         None),
        # an exact sweep reads no seed, so it records none, whatever --seed says
        (["sweep-k", "--dist", "{dist}", "--n", "10", "--k-range", "2:4:2", "--policies", "br",
          "--seed", "5"], None),
        (["sweep-n", "--dist", "{dist}", "--n-list", "10", "--ratio", "0.3", "--policies", "ai",
          "--seed", "5"], None),
        (["sweep-k", "--dist", "{dist}", "--n", "10", "--k-range", "2:4:2", "--policies", "br",
          "--mc", "--reps", "5", "--seed", "5"], 5),
        (["sweep-n", "--dist", "{dist}", "--n-list", "10", "--ratio", "0.3", "--policies", "ai",
          "--mc", "--reps", "5", "--seed", "4"], 4),
        (["kleinberg", "--epsilons", "0.1", "--policies", "br"], None),
        (["paths", "--dist", "{dist}", "--n", "10", "--k", "3", "--policies", "br",
          "--seeds", "2,1"], [2, 1]),
        (["ratio-mean", "--dist", "{dist}", "--n", "10", "--k", "3", "--policies", "br"], None),
        (["diagnostics", "--dist", "{dist}", "--n", "100", "--k", "30", "--delta", "0.05",
          "--reps", "5"], 0),
    ], ids=["sweep-k", "sweep-k-exact-seed", "sweep-n-exact-seed", "sweep-k-mc", "sweep-n-mc",
            "kleinberg", "paths", "ratio-mean", "diagnostics"])
    def test_every_command_writes_its_manifest(self, dist_file, tmp_path, argv, seed):
        argv = [dist_file if a == "{dist}" else a for a in argv]
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        assert set(manifest) == self.KEYS
        assert manifest["command"] == argv[0] and manifest["seed"] == seed
        assert (manifest["dist_sha"] is None) == (argv[0] == "kleinberg")

    def test_validate_writes_no_file(self, dist_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "--dist", dist_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["m"] == 5
        assert [f.name for f in tmp_path.iterdir()] == ["u5.json"]

    @pytest.mark.parametrize("argv,flag", [
        (["kleinberg", "--epsilons", "0.1"], "--seed 1"),
        (["ratio-mean", "--dist", "{dist}", "--n", "10", "--k", "3", "--policies", "br"],
         "--seed 1"),
        (["ratio-mean", "--dist", "{dist}", "--n", "10", "--k", "3", "--policies", "br"],
         "--reps 5"),
    ], ids=["kleinberg-seed", "ratio-mean-seed", "ratio-mean-reps"])
    def test_unread_flag_exits_2(self, dist_file, tmp_path, capsys, argv, flag):
        # kleinberg and ratio-mean are exact: a --seed or --reps they took
        # would go unread
        argv = [dist_file if a == "{dist}" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + flag.split() + ["--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["u5.json"]


class TestEntryPoint:
    def test_module_invocation(self, dist_file):
        proc = subprocess.run(
            [sys.executable, "-m", "multisecretary.cli", "validate", "--dist", dist_file],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "epsilon" in proc.stdout

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # the package needs only numpy; scipy.stats alone would add about 66 MiB and 0.85 s
        code = "import sys, multisecretary.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_exact_commands_run_without_scipy(self, dist_file, tmp_path):
        # with scipy unimportable, the exact commands and the offline
        # expectation still run: scipy is a test dependency only
        code = f"""
import sys
sys.modules["scipy"] = None
import multisecretary as ms
from multisecretary.cli import main
out = {str(tmp_path)!r}
runs = [
    ["sweep-k", "--dist", {dist_file!r}, "--n", "60", "--k-range", "0:60:20",
     "--policies", "br,dp,ai,index", "--out", out + "/k.csv"],
    ["sweep-n", "--dist", {dist_file!r}, "--n-list", "40,80", "--ratio", "0.3",
     "--policies", "br,dp", "--out", out + "/n.csv"],
    ["kleinberg", "--epsilons", "0.1", "--policies", "br", "--out", out + "/kb.csv"],
    ["ratio-mean", "--dist", {dist_file!r}, "--n", "60", "--k", "18",
     "--policies", "br,ai,index", "--out", out + "/rm.csv"],
]
codes = [main(argv) for argv in runs]
d = ms.new_distribution([2.0, 1.0], [0.5, 0.5])
value = ms.offline_expectation(d, 10, 3).value
print(codes, value > 0, "scipy" in sys.modules and sys.modules["scipy"] is not None)
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0, 0] True False"
        for name in ("k", "n", "kb"):
            assert (tmp_path / f"{name}.csv").read_text().startswith(CSV_HEADER)
        assert (tmp_path / "rm.csv").read_text().count("\n") == 1 + 3 * 60
