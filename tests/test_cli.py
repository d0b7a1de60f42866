import hashlib
import json

import numpy as np
import pytest

from dmc_gawar import cli
from dmc_gawar.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from dmc_gawar.data import save_csv
from dmc_gawar.synthetic import make_planted


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    ds = make_planted(12, 16, 24, 3, 2.0, seed=6)
    path = tmp_path_factory.mktemp("cli") / "toy.csv"
    save_csv(ds.matrix, ds.labels, path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


FAST = (
    "--keep-fraction", "0.5", "--q", "8", "--n-var", "3", "--n-pop", "6",
    "--stagnation-limit", "4", "--n-splits", "3", "--seed", "1",
)
MISSING = "[Errno 2] No such file or directory"
IS_A_DIRECTORY = "[Errno 21] Is a directory"


class TestSubcommands:
    def test_rank(self, capsys, data_csv):
        code, report = run_cli(capsys, "rank", data_csv, "--keep-fraction", "0.25")
        assert code == EXIT_OK
        assert report["n_retained"] == 6
        assert len(report["retained"]) == 6
        scores = [r["score"] for r in report["retained"]]
        assert scores == sorted(scores)

    def test_cluster(self, capsys, data_csv):
        code, report = run_cli(
            capsys, "cluster", data_csv, "--keep-fraction", "0.5", "--q", "4", "--seed", "3"
        )
        assert code == EXIT_OK
        assert report["q"] == 4
        assert len(report["space"]) == 4
        assert len(report["assignments"]) == report["n_retained"]

    def test_optimize(self, capsys, data_csv, tmp_path):
        conv = tmp_path / "conv.csv"
        code, report = run_cli(
            capsys, "optimize", data_csv, *FAST, "--convergence", str(conv)
        )
        assert code == EXIT_OK
        assert len(report["selected"]) == 3
        assert set(report["selected"]) <= set(report["space"])
        header = conv.read_text().splitlines()[0]
        assert header == "iteration,best_fitness,p_c,p_m,n_c,n_m,adapted,full_mutation,nfe_cumulative"

    def test_evaluate_all_features(self, capsys, data_csv):
        code, report = run_cli(capsys, "evaluate", data_csv, "--n-splits", "3")
        assert code == EXIT_OK
        assert report["features"] == list(range(24))
        assert len(report["per_split"]) == 3
        assert report["mean_overall"] == pytest.approx(
            np.mean([s["overall"] for s in report["per_split"]])
        )

    def test_evaluate_subset(self, capsys, data_csv):
        code, report = run_cli(
            capsys, "evaluate", data_csv, "--features", "0,3,5", "--n-splits", "3"
        )
        assert code == EXIT_OK
        assert report["features"] == [0, 3, 5]

    def test_evaluate_adjacent_floats(self, capsys, tmp_path):
        # the two values' midpoint rounds onto the upper one; the classes
        # must still be split, not recursed on until RecursionError
        below, above = repr(1 + 2**-52), repr(1 + 2**-51)
        rows = [f"{below},0.0,neg" if i % 2 == 0 else f"{above},0.0,pos" for i in range(20)]
        path = tmp_path / "adjacent.csv"
        path.write_text("\n".join(["f0,f1,label", *rows]) + "\n")
        code, report = run_cli(capsys, "evaluate", str(path), "--n-splits", "3")
        assert code == EXIT_OK
        assert report["mean_overall"] == 1.0

    def test_evaluate_deep_tree(self, capsys, tmp_path):
        # nearly a cut between every pair of training rows: a tree far
        # deeper than the interpreter's recursion limit
        rows = [f"{i}.0,{'pos' if i % 2 else 'neg'}" for i in range(2400)]
        path = tmp_path / "deep.csv"
        path.write_text("\n".join(["f0,label", *rows]) + "\n")
        code, report = run_cli(
            capsys, "evaluate", str(path), "--n-splits", "1", "--test-fraction", "0.01"
        )
        assert code == EXIT_OK
        assert report["features"] == [0]

    def test_pipeline(self, capsys, data_csv):
        code, report = run_cli(capsys, "pipeline", data_csv, *FAST)
        assert code == EXIT_OK
        assert {"before", "after", "improvement", "selected", "nfe"} <= set(report)

    def test_experiment(self, capsys, data_csv):
        code, report = run_cli(capsys, "experiment", data_csv, *FAST, "--n-runs", "2")
        assert code == EXIT_OK
        assert report["n_runs"] == 2
        assert len(report["runs"]) == 2

    def test_baseline(self, capsys, data_csv):
        code, report = run_cli(
            capsys, "baseline", data_csv,
            "--keep-fraction", "0.5", "--q", "8", "--n-var", "3",
            "--n-splits", "3", "--seed", "1", "--n-runs", "2",
        )
        assert code == EXIT_OK
        assert len(report["runs"]) == 2


class TestGoldenBytes:
    """Every subcommand's stdout, byte for byte, pinned by SHA-256."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("rank", "--keep-fraction", "0.5", "--seed", "1"),
             "e88e1f8494f852e308130eb27d8790fc857e733f14364ce49a4f30d2ad73ad85"),
            (("cluster", "--keep-fraction", "0.5", "--q", "8", "--seed", "1"),
             "a4502e6ca3b2b23c2286991990152a8303f6247ef66c11fc51d2b62f2c9ae667"),
            (("optimize", *FAST),
             "964d0a97ed63a22ce57520e4e7c366cf6c0a0643fdf7cf38989f1e9fc1f4bb88"),
            (("evaluate", "--n-splits", "3", "--seed", "1"),
             "9bd31df202f0c96173c32ab50ba7a9704032d98ee315079844bc073ec3912242"),
            (("evaluate", "--features", "0,3,5", "--n-splits", "3", "--seed", "1"),
             "a20228bc056d076e918b2360c6b97c62264c03b5aeebbcd64f3ce84d3b80b8e2"),
            (("pipeline", *FAST),
             "ee259c4911524a551d35d2fe638803c264a04d0c4cac3e74841769a514f00f9f"),
            (("experiment", *FAST, "--n-runs", "2"),
             "d2a6ac031b50cc477e3820969adb22a30516ce60cce54949c80898a2bc4d7dc0"),
            (("baseline", "--keep-fraction", "0.5", "--q", "8", "--n-var", "3",
              "--n-splits", "3", "--seed", "1", "--n-runs", "2"),
             "44007e7ee275978a267ae0eebfb474982619521a46e2f20f44db1f2f0b66dc0c"),
        ],
        ids=["rank", "cluster", "optimize", "evaluate-all", "evaluate-subset",
             "pipeline", "experiment", "baseline"],
    )
    def test_stdout_digest(self, capsys, data_csv, argv, digest):
        command, *flags = argv
        assert main([command, data_csv, *flags]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


    @pytest.mark.parametrize(
        "argv",
        [("optimize", *FAST), ("pipeline", *FAST), ("experiment", *FAST, "--n-runs", "2")],
        ids=["optimize", "pipeline", "experiment"],
    )
    def test_convergence_csv_digest(self, capsys, data_csv, tmp_path, argv):
        # the three searches run the same seed-1 GA, so they log the same rows
        command, *flags = argv
        conv = tmp_path / "conv.csv"
        assert main([command, data_csv, *flags, "--convergence", str(conv)]) == EXIT_OK
        capsys.readouterr()
        assert hashlib.sha256(conv.read_bytes()).hexdigest() == (
            "38051d1cd1474b0617bf9b4e44acaef38d96d8480751a643c0c87d8cd6b8858f"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("rank", "--keep-fraction", "0.5", "--seed", "1"),
            ("cluster", "--keep-fraction", "0.5", "--q", "8", "--seed", "1"),
            ("optimize", *FAST),
            ("evaluate", "--features", "0,3,5", "--n-splits", "3", "--seed", "1"),
            ("pipeline", *FAST),
            ("experiment", *FAST, "--n-runs", "2"),
            ("baseline", "--keep-fraction", "0.5", "--q", "8", "--n-var", "3",
             "--n-splits", "3", "--seed", "1", "--n-runs", "2"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_output_file_equals_stdout(self, capsys, data_csv, tmp_path, argv):
        command, *flags = argv
        assert main([command, data_csv, *flags]) == EXIT_OK
        printed = capsys.readouterr().out.encode()
        out = tmp_path / "report.json"
        assert main([command, data_csv, *flags, "--output", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_win(self, capsys, data_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"keep_fraction": 0.25, "seed": 9, "method": "mc"}))
        code, report = run_cli(capsys, "rank", data_csv, "--config", str(config))
        assert code == EXIT_OK
        assert report["method"] == "mc"
        assert report["n_retained"] == 6

        code, report = run_cli(
            capsys, "rank", data_csv, "--config", str(config), "--keep-fraction", "0.5"
        )
        assert code == EXIT_OK
        assert report["n_retained"] == 12  # flag overrides the file

    def test_unknown_config_key(self, capsys, data_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"population": 30}))
        code, _ = run_cli(capsys, "rank", data_csv, "--config", str(config))
        assert code == EXIT_USAGE

    def test_malformed_config(self, capsys, data_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        code, _ = run_cli(capsys, "rank", data_csv, "--config", str(config))
        assert code == EXIT_USAGE

    def test_config_holding_a_list_is_usage_error(self, capsys, data_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps([{"seed": 3}]))
        code = main(["rank", data_csv, "--config", str(config)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == "dmc-gawar: invalid option: config file must hold a JSON object\n"


class TestExitCodes:
    def test_missing_data_file(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "rank", str(tmp_path / "absent.csv"))
        assert code == EXIT_DATA

    def test_malformed_data_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,l\n1,a\noops,b\n3,a\n4,b\n")
        code, _ = run_cli(capsys, "rank", str(bad))
        assert code == EXIT_DATA

    def test_bad_option_value(self, capsys, data_csv):
        code, _ = run_cli(capsys, "rank", data_csv, "--keep-fraction", "3.0")
        assert code == EXIT_USAGE

    def test_bad_feature_list(self, capsys, data_csv):
        code, _ = run_cli(capsys, "evaluate", data_csv, "--features", "0,99")
        assert code == EXIT_USAGE
        code, _ = run_cli(capsys, "evaluate", data_csv, "--features", "1,1")
        assert code == EXIT_USAGE

    def test_unparsable_feature_list_is_usage_error(self, capsys, data_csv):
        code = main(["evaluate", data_csv, "--features", "1,x"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == "dmc-gawar: invalid option: cannot parse feature list '1,x'\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                "a,a,label\n1,2,x\n3,4,y\n5,6,x\n7,8,y\n",
                "header repeats the feature column 'a'",
                id="repeated-feature-column",
            ),
            pytest.param("label\nx\ny\nx\ny\n", "header holds no feature column", id="label-only"),
            pytest.param(
                "", "row 1, column 1: cannot parse '<empty file>' as a number", id="empty-file"
            ),
            pytest.param(
                "f0,f1,label\n1,2,x\n3,4,x\n5,6,y\n",
                "each class needs at least 2 samples",
                id="class-with-one-sample",
            ),
        ],
    )
    def test_malformed_file_message(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code = main(["rank", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_DATA
        assert captured.out == ""
        assert captured.err == f"dmc-gawar: data error: {message}\n"

    def test_blank_line_inside_the_file_is_skipped(self, capsys, tmp_path):
        rows = ["f0,f1,label", "1,2,x", "3,4,y", "5,6,x", "7,8,y"]
        reports = []
        for lines in (rows, rows[:3] + [""] + rows[3:]):
            path = tmp_path / "data.csv"
            path.write_text("\n".join(lines) + "\n")
            code, report = run_cli(capsys, "rank", str(path))
            assert code == EXIT_OK
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["n_retained"] >= 1

    def test_empty_feature_list_is_usage_error(self, capsys, data_csv):
        code, _ = run_cli(capsys, "evaluate", data_csv, "--features", "")
        assert code == EXIT_USAGE
        code, _ = run_cli(capsys, "evaluate", data_csv, "--features", ",,")
        assert code == EXIT_USAGE

    def test_unknown_subcommand_exits_one(self, capsys, data_csv):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate", data_csv])
        assert info.value.code == EXIT_USAGE

    def test_unknown_flag_exits_one(self, capsys, data_csv):
        with pytest.raises(SystemExit) as info:
            main(["rank", data_csv, "--bogus"])
        assert info.value.code == EXIT_USAGE

    def test_zero_restarts_is_usage_error(self, capsys, data_csv):
        code = main(["cluster", data_csv, "--n-restarts", "0"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err == "dmc-gawar: invalid option: n_restarts must be at least 1\n"

    def test_zero_iterations_is_usage_error(self, capsys, data_csv):
        code = main(["optimize", data_csv, *FAST, "--max-iterations", "0"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == "dmc-gawar: invalid option: max_iterations must be at least 1\n"

    def test_negative_stagnation_limit_in_config_is_usage_error(self, capsys, data_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"stagnation_limit": -1}))
        code = main(["pipeline", data_csv, "--config", str(config)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == "dmc-gawar: invalid option: stagnation_limit must be at least 1\n"

    def test_unexpected_exception_is_one_line_internal_error(self, capsys, data_csv, monkeypatch):
        def failing_handler(args):
            raise KeyError("boom")

        monkeypatch.setattr(cli, "_cmd_cluster", failing_handler)
        code = main(["cluster", data_csv])
        err = capsys.readouterr().err
        assert code == EXIT_INTERNAL
        assert err == "dmc-gawar: internal error: KeyError: 'boom'\n"

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({"q": "7"}, "q must be an integer, got '7'"),
            ({"n_pop": True}, "n_pop must be an integer, got True"),
            ({"keep_fraction": "0.5"}, "keep_fraction must be a number, got '0.5'"),
            ({"seed": -1}, "seed must be at least 0"),
        ],
    )
    def test_bad_config_values_are_usage_errors(self, capsys, data_csv, tmp_path, entries, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(entries))
        code = main(["cluster", data_csv, "--config", str(config)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err == f"dmc-gawar: invalid option: {message}\n"

    @pytest.mark.parametrize(
        "command", ["rank", "cluster", "optimize", "evaluate", "pipeline", "experiment", "baseline"]
    )
    def test_negative_seed_flag_is_usage_error(self, capsys, data_csv, command):
        code = main([command, data_csv, "--seed", "-1000"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == "dmc-gawar: invalid option: seed must be at least 0\n"

    def test_unknown_label_column_is_data_error(self, capsys, data_csv):
        code = main(["rank", data_csv, "--label-column", "nope"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err == "dmc-gawar: data error: label column 'nope' not found in header\n"

    def test_output_into_missing_directory_is_data_error(self, capsys, data_csv, tmp_path):
        target = tmp_path / "absent" / "report.json"
        code = main(["rank", data_csv, "--output", str(target)])
        captured = capsys.readouterr()
        assert code == EXIT_DATA
        assert captured.out == ""
        assert captured.err == (
            f"dmc-gawar: data error: [Errno 2] No such file or directory: '{target}'\n"
        )

    @pytest.mark.parametrize(
        "option, name, error",
        [
            pytest.param("--output", "absent/r.json", MISSING, id="--output-r.json"),
            pytest.param("--convergence", "absent/c.csv", MISSING, id="--convergence-c.csv"),
            pytest.param("--output", "", IS_A_DIRECTORY, id="--output-directory"),
            pytest.param("--convergence", "", IS_A_DIRECTORY, id="--convergence-directory"),
        ],
    )
    @pytest.mark.parametrize(
        "command, handler", [("pipeline", "run_pipeline"), ("experiment", "run_experiment")]
    )
    def test_missing_output_directory_fails_before_the_work(
        self, capsys, data_csv, tmp_path, monkeypatch, command, handler, option, name, error
    ):
        calls = []

        def never(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("the run started")

        monkeypatch.setattr(cli, handler, never)
        target = tmp_path / name  # with no name, the existing directory itself
        code = main([command, data_csv, *FAST, option, str(target)])
        captured = capsys.readouterr()
        assert code == EXIT_DATA
        assert captured.out == ""
        assert captured.err == f"dmc-gawar: data error: {error}: '{target}'\n"
        assert calls == []

    @pytest.mark.parametrize("command", ["experiment", "baseline"])
    def test_zero_runs_is_usage_error(self, capsys, data_csv, command):
        code = main([command, data_csv, "--n-runs", "0"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == "dmc-gawar: invalid option: n_runs must be at least 1\n"

    def test_one_feature_search_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        rows = [f"{i * 0.5},{'pos' if i % 2 else 'neg'}" for i in range(12)]
        path.write_text("\n".join(["f0,label", *rows]) + "\n")
        for command in ("optimize", "pipeline", "experiment"):
            code = main([command, str(path)])
            err = capsys.readouterr().err
            assert code == EXIT_DATA, command
            assert err == (
                "dmc-gawar: data error: the subset search needs at least 2 features, "
                "the data has 1\n"
            )
        for command in ("rank", "cluster", "evaluate", "baseline"):
            code, _ = run_cli(capsys, command, str(path))
            assert code == EXIT_OK, command

    def test_output_file(self, capsys, data_csv, tmp_path):
        out = tmp_path / "report.json"
        code = main(["rank", data_csv, "--keep-fraction", "0.25", "--output", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        report = json.loads(out.read_text())
        assert report["n_retained"] == 6

    def test_output_bytes_stable(self, capsys, data_csv, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["pipeline", data_csv, *FAST, "--output", str(first)]) == EXIT_OK
        assert main(["pipeline", data_csv, *FAST, "--output", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
