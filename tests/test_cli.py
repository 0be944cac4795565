import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from multisecretary import cli
from multisecretary.cli import kleinberg_distribution, main, round_half_up
from multisecretary.errors import BadEpsilon
from multisecretary.evaluate import CSV_HEADER


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

    def test_strings_and_booleans_exit_2_once(self, tmp_path, capsys):
        # "2" and true once passed as numbers: exit 0 with m = 2
        bad = tmp_path / "strings.json"
        bad.write_text('{"support": ["2", true], "pmf": ["0.5", 0.5]}')
        assert main(["validate", "--dist", str(bad)]) == 2
        assert "support must be a list of numbers" in assert_one_error_line(capsys)


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


class TestRatioMeanAndDiagnostics:
    def test_ratio_mean_rows(self, dist_file, tmp_path):
        out = tmp_path / "rm.csv"
        assert main(["ratio-mean", "--dist", dist_file, "--n", "60", "--k", "18",
                     "--policies", "br,dp", "--reps", "50", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == "policy,t,mean_ratio,mean_budget"
        assert len(rows) == 120

    def test_zero_reps_exits_2(self, dist_file, tmp_path):
        assert main(["ratio-mean", "--dist", dist_file, "--n", "60", "--k", "18",
                     "--policies", "br", "--reps", "0",
                     "--out", str(tmp_path / "x.csv")]) == 2

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
        ["ratio-mean", "--n", "10", "--k", "-3", "--policies", "br,ai", "--reps", "10"],
    ])
    def test_infeasible_pair_exits_2_once(self, dist_file, tmp_path, capsys, argv):
        # these once ended in an argmax traceback or wrote a CSV
        assert main(argv + ["--dist", dist_file, "--out", str(tmp_path / "x.csv")]) == 2
        assert "not a feasible pair" in assert_one_error_line(capsys)

    def test_failed_ratio_mean_writes_no_csv(self, dist_file, tmp_path, capsys):
        # the header used to be written before the pair check ran
        out = tmp_path / "rm.csv"
        assert main(["ratio-mean", "--dist", dist_file, "--n", "10", "--k", "-3",
                     "--policies", "ai", "--reps", "10", "--out", str(out)]) == 2
        assert "not a feasible pair" in assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["diagnostics", "--policy", "matrix:{mat}", "--n", "3", "--k", "1", "--delta", "0.05",
         "--reps", "10"],
        ["ratio-mean", "--policies", "br,matrix:{mat}", "--n", "3", "--k", "1", "--reps", "10"],
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

    def test_delta_at_least_epsilon_exits_2(self, dist_file, tmp_path):
        assert main(["diagnostics", "--dist", dist_file, "--n", "300", "--k", "90",
                     "--delta", "0.1", "--reps", "10",
                     "--out", str(tmp_path / "x.csv")]) == 2


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
        "rm.csv": "89f2d755d701a0ac077a48e1d4b24effddaff3250fd9e736d8bfccc5a4a6f7c5",
        "diag.csv": "457ec8e5bb65afee70f63a97011dfde68148c4f9f2f382fb13b12efcc06a0b37",
    }

    def test_sample_path_csvs_match_digests(self, dist_file, tmp_path):
        cell = ["--dist", dist_file, "--n", "300", "--k", "90"]
        assert main(["paths", *cell, "--policies", "br,dp,ai,index", "--seeds", "1,2",
                     "--out", str(tmp_path / "p.csv")]) == 0
        assert main(["ratio-mean", *cell, "--policies", "br,dp,ai", "--reps", "1500",
                     "--seed", "3", "--out", str(tmp_path / "rm.csv")]) == 0
        assert main(["diagnostics", *cell, "--delta", "0.05", "--reps", "3000",
                     "--seed", "4", "--out", str(tmp_path / "diag.csv")]) == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in self.DIGESTS}
        assert got == self.DIGESTS


class TestSeeds:
    @pytest.mark.parametrize("argv", [
        ["paths", "--n", "10", "--k", "3", "--policies", "br", "--seeds", "1,-1"],
        ["ratio-mean", "--n", "10", "--k", "3", "--policies", "br", "--reps", "5",
         "--seed", "-1"],
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


class TestEntryPoint:
    def test_module_invocation(self, dist_file):
        proc = subprocess.run(
            [sys.executable, "-m", "multisecretary.cli", "validate", "--dist", dist_file],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "epsilon" in proc.stdout

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # only the offline expectation needs scipy.stats, which is slow to load
        code = "import sys, multisecretary.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
