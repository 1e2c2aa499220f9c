"""End-to-end CLI behavior: subcommands, outputs, exit codes, config file."""

import codecs
import csv
import re
from dataclasses import fields

import numpy as np
import pytest

from ammivi import analysis, cli, gibbs, simulate, vi
from ammivi.cli import main
from ammivi.model import load_csv, load_theta_csv

DUP_CSV = "genotype,environment,yield\nA,x,1\nA,x,2\nB,x,3\n"
# genotypes A, B grown only in x, y and C, D only in z, w: a disconnected table
SPLIT_CSV = "genotype,environment,yield\n" + "".join(
    f"{g},{e},{k}\n" for k, (g, e) in enumerate(
        [("A", "x"), ("A", "y"), ("B", "x"), ("B", "y"),
         ("C", "z"), ("C", "w"), ("D", "z"), ("D", "w")]))
# columns holding names; every other non-empty cell a subcommand writes is a number
LABEL_COLUMNS = {"genotype", "environment", "parameter", "key", "init", "scenario"}
# the VI fit's convergence line that fit-vi, predict and compare print
CONVERGENCE_LINE = re.compile(r"^converged=(True|False) n_iter=\d+ elbo=-?\d+\.\d{4}$",
                              re.MULTILINE)
# predict's draw count, worker threads and seconds, printed after the convergence line
PREDICT_LINE = re.compile(r"^predict draws=(\d+) threads=(\d+) seconds=\d+\.\d{3}$")
# the Gibbs draws' largest split R-hat that compare prints with 2 or more chains
MAX_RHAT_LINE = re.compile(r"^gibbs max_rhat=\d+\.\d{4} parameter=(mu|sigma2|(g|e|lambda)\[\d+\])$",
                           re.MULTILINE)


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", "recovery-lambda20",
                 "--output-dir", str(out)]) == 0
    assert_numeric_csvs(out, 2)
    return out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def param_keys(path, drop=()):
    """The (parameter, index1, index2) key of each row of a parameter table."""
    return [tuple(row[:3]) for row in read_rows(path)[1:] if row[0] not in drop]


def without(prefix):
    return lambda lines: [line for line in lines if not line.startswith(prefix)]


def renamed(prefix, new):
    return lambda lines: [new + line[len(prefix):] if line.startswith(prefix) else line
                          for line in lines]


# edits of a valid Q=2 theta.csv on a 25 x 12 grid that --init-file must reject
BAD_THETA = {
    "no-mu": without("mu,"),
    "header-only": lambda lines: lines[:1],
    "gamma-row-missing": without("gamma,3,2,"),
    "g-row-missing": without("g,4,"),
    "gamma-row-out-of-range": lambda lines: lines + ["gamma,30,1,0.5"],
    "repeated-entry": lambda lines: lines + [line for line in lines if line.startswith("e,2,")],
    "index-below-1": renamed("g,1,", "g,0,"),
    "wrong-index-count": renamed("g,1,,", "g,1,1,"),
    "index2-without-index1": renamed("e,1,,", "e,,1,"),
    "non-finite": lambda lines: without("sigma2,")(lines) + ["sigma2,,,nan"],
    "non-numeric": renamed("e,1,,", "e,1,,x"),
    "short-row": lambda lines: lines + ["g,1"],
    "unknown-parameter": lambda lines: lines + ["tau,,,1.0"],
}


def forbid_calls(monkeypatch, *targets):
    """Make each (module, name) fail the test if it is called."""
    def fail(*args, **kwargs):
        raise AssertionError("a fit started before the inputs were checked")
    for module, name in targets:
        monkeypatch.setattr(module, name, fail)


def assert_numeric_csvs(directory, n_files):
    """The directory holds n_files CSVs whose value cells all parse with float()."""
    paths = sorted(directory.glob("*.csv"))
    assert len(paths) == n_files
    for path in paths:
        header, *body = read_rows(path)
        numeric = [k for k, name in enumerate(header) if name not in LABEL_COLUMNS]
        for row in body:
            assert len(row) == len(header), path
            for k in numeric:
                if row[k]:
                    float(row[k])


class TestSimulate:
    def test_scenario_outputs(self, sim_dir):
        assert (sim_dir / "data.csv").exists()
        assert (sim_dir / "truth.csv").exists()
        assert len(read_rows(sim_dir / "data.csv")) == 1 + 300

    def test_custom_dimensions(self, tmp_path):
        out = tmp_path / "c"
        assert main(["simulate", "--i", "6", "--j", "4", "--lambda", "8,3",
                     "--seed", "2", "--output-dir", str(out)]) == 0
        assert len(read_rows(out / "data.csv")) == 25
        assert_numeric_csvs(out, 2)

    def test_missing_required_args(self, tmp_path):
        assert main(["simulate", "--output-dir", str(tmp_path)]) == 2


class TestFits:
    def test_fit_freq(self, sim_dir, tmp_path):
        out = tmp_path / "freq"
        assert main(["fit-freq", "--input", str(sim_dir / "data.csv"),
                     "--q", "1", "--output-dir", str(out)]) == 0
        params = {row[0] for row in read_rows(out / "theta.csv")[1:]}
        assert params == {"mu", "g", "e", "lambda", "gamma", "delta", "sigma2"}
        assert_numeric_csvs(out, 1)

    def test_fit_vi_outputs_and_convergence(self, sim_dir, tmp_path):
        out = tmp_path / "vi"
        assert main(["fit-vi", "--input", str(sim_dir / "data.csv"),
                     "--q", "1", "--output-dir", str(out)]) == 0
        for name in ("theta.csv", "vi_state.csv", "elbo_trace.csv",
                     "fit_summary.csv"):
            assert (out / name).exists()
        summary = dict(read_rows(out / "fit_summary.csv")[1:])
        assert summary["converged"] == "1"
        assert_numeric_csvs(out, 4)

    def test_fit_vi_reproducible(self, sim_dir, tmp_path):
        args = ["fit-vi", "--input", str(sim_dir / "data.csv"), "--q", "1",
                "--init", "random", "--seed", "7"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--output-dir", str(out1)]) == 0
        assert main(args + ["--output-dir", str(out2)]) == 0
        assert (out1 / "theta.csv").read_bytes() == (out2 / "theta.csv").read_bytes()
        assert (out1 / "elbo_trace.csv").read_bytes() == (out2 / "elbo_trace.csv").read_bytes()

    def test_fit_vi_init_file(self, sim_dir, tmp_path):
        freq_out = tmp_path / "f"
        main(["fit-freq", "--input", str(sim_dir / "data.csv"), "--q", "1",
              "--output-dir", str(freq_out)])
        out = tmp_path / "vif"
        assert main(["fit-vi", "--input", str(sim_dir / "data.csv"), "--q", "1",
                     "--init", "file", "--init-file", str(freq_out / "theta.csv"),
                     "--output-dir", str(out)]) == 0
        assert_numeric_csvs(out, 4)

    def test_fit_vi_reads_its_own_theta(self, sim_dir, tmp_path):
        args = ["fit-vi", "--input", str(sim_dir / "data.csv"), "--q", "1"]
        first, second = tmp_path / "v1", tmp_path / "v2"
        assert main(args + ["--output-dir", str(first)]) == 0
        assert main(args + ["--init", "file", "--init-file", str(first / "theta.csv"),
                            "--output-dir", str(second)]) == 0

    def test_init_file_flag_required(self, sim_dir, tmp_path):
        assert main(["fit-vi", "--input", str(sim_dir / "data.csv"),
                     "--init", "file", "--output-dir", str(tmp_path)]) == 2

    def test_fit_vi_mcmc_short_on_sparse_grid(self, tmp_path):
        # criterion 7's layout: 810 of 85 x 17 cells observed
        sim = tmp_path / "sparse"
        assert main(["simulate", "--i", "85", "--j", "17", "--lambda", "25,12",
                     "--missing", str(1 - 810 / (85 * 17)), "--seed", "3",
                     "--output-dir", str(sim)]) == 0
        assert len(read_rows(sim / "data.csv")) == 1 + 810
        out = tmp_path / "vi"
        assert main(["fit-vi", "--input", str(sim / "data.csv"), "--q", "2",
                     "--init", "mcmc-short", "--output-dir", str(out)]) == 0
        assert_numeric_csvs(out, 4)

    def test_fit_mcmc_outputs(self, sim_dir, tmp_path):
        out = tmp_path / "mcmc"
        assert main(["fit-mcmc", "--input", str(sim_dir / "data.csv"),
                     "--q", "1", "--chains", "2", "--iters", "60",
                     "--burn", "20", "--save-draws",
                     "--output-dir", str(out)]) == 0
        for name in ("mcmc_summary.csv", "theta.csv", "rhat.csv",
                     "draws_scalar.csv"):
            assert (out / name).exists()
        scalar_rows = read_rows(out / "draws_scalar.csv")[1:]
        assert len(scalar_rows) == 2 * (60 - 20)
        assert [(row[0], row[1]) for row in scalar_rows] == [
            (str(c), str(t)) for c in (1, 2) for t in range(21, 61)]
        assert_numeric_csvs(out, 4)
        summary_names = {row[0] for row in read_rows(out / "mcmc_summary.csv")[1:]}
        rhat_names = {row[0] for row in read_rows(out / "rhat.csv")[1:]}
        assert rhat_names <= summary_names
        assert param_keys(out / "mcmc_summary.csv") == param_keys(
            out / "theta.csv", drop={"gamma", "delta"})

    def test_fit_vi_q2_state_rows_follow_theta(self, sim_dir, tmp_path):
        out = tmp_path / "vi2"
        assert main(["fit-vi", "--input", str(sim_dir / "data.csv"), "--q", "2",
                     "--max-iter", "5", "--output-dir", str(out)]) == 0
        assert param_keys(out / "vi_state.csv") == (
            param_keys(out / "theta.csv", drop={"sigma2"})
            + [("tau_shape", "", ""), ("tau_rate", "", "")])


class TestPredictAndCompare:
    def test_predict_outputs(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "pred"
        assert main(["predict", "--input", str(sim_dir / "data.csv"),
                     "--q", "1", "--draws", "200",
                     "--output-dir", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = next(k for k, line in enumerate(lines) if CONVERGENCE_LINE.match(line))
        timing = PREDICT_LINE.match(lines[at + 1])
        assert timing and timing[1] == "200"
        assert 1 <= int(timing[2]) <= analysis._worker_count()
        for tag in ("q05", "q50", "q95", "observed"):
            assert (out / f"predict_{tag}.csv").exists()
        assert_numeric_csvs(out, 4)

    def test_compare_outputs(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--input", str(sim_dir / "data.csv"),
                     "--q", "1", "--chains", "2", "--iters", "60",
                     "--burn", "20", "--output-dir", str(out)]) == 0
        printed = capsys.readouterr().out
        assert CONVERGENCE_LINE.search(printed)
        line = MAX_RHAT_LINE.search(printed)
        assert line
        # fit-mcmc runs the same chains and writes the R-hat table the line reads from
        assert main(["fit-mcmc", "--input", str(sim_dir / "data.csv"),
                     "--q", "1", "--chains", "2", "--iters", "60",
                     "--burn", "20", "--output-dir", str(tmp_path / "mcmc")]) == 0
        name, index, value = max(read_rows(tmp_path / "mcmc" / "rhat.csv")[1:],
                                 key=lambda row: float(row[2]))
        label = f"{name}[{index}]" if index else name
        assert line.group(0) == f"gibbs max_rhat={float(value):.4f} parameter={label}"
        assert (out / "compare.csv").exists()
        assert (out / "compare.txt").exists()
        assert_numeric_csvs(out, 1)

    def test_compare_bad_sizes_rejected_before_fitting(self, sim_dir, tmp_path,
                                                       monkeypatch):
        # gibbs_fit itself runs: its size check is the one under test
        forbid_calls(monkeypatch, (vi, "fit"), (gibbs, "frequentist_fit"))
        out = tmp_path / "cmp"
        assert main(["compare", "--input", str(sim_dir / "data.csv"),
                     "--iters", "300", "--burn", "300",
                     "--output-dir", str(out)]) == 2
        assert not out.exists()

    def test_compare_too_short_for_rhat_rejected_before_sampling(self, sim_dir, tmp_path,
                                                                 monkeypatch, capsys):
        # fit-mcmc's R-hat size rule: 2 chains need 4 kept iterations each
        forbid_calls(monkeypatch, (vi, "fit"), (gibbs, "gibbs_fit"))
        out = tmp_path / "cmp"
        assert main(["compare", "--input", str(sim_dir / "data.csv"),
                     "--chains", "2", "--iters", "5", "--burn", "2",
                     "--output-dir", str(out)]) == 2
        assert "R-hat" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_init_file_q_mismatch_exit_code(self, sim_dir, tmp_path):
        freq_out = tmp_path / "f"
        assert main(["fit-freq", "--input", str(sim_dir / "data.csv"), "--q", "1",
                     "--output-dir", str(freq_out)]) == 0
        out = tmp_path / "vi"
        assert main(["fit-vi", "--input", str(sim_dir / "data.csv"), "--q", "2",
                     "--init", "file", "--init-file", str(freq_out / "theta.csv"),
                     "--output-dir", str(out)]) == 5
        assert not out.exists()

    @pytest.mark.parametrize("edit", BAD_THETA.values(), ids=BAD_THETA.keys())
    def test_bad_init_file_rejected(self, sim_dir, tmp_path, capsys, edit):
        freq_out = tmp_path / "f"
        assert main(["fit-freq", "--input", str(sim_dir / "data.csv"), "--q", "2",
                     "--output-dir", str(freq_out)]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(edit((freq_out / "theta.csv").read_text().splitlines())))
        out = tmp_path / "vi"
        assert main(["fit-vi", "--input", str(sim_dir / "data.csv"), "--q", "2",
                     "--init", "file", "--init-file", str(bad),
                     "--output-dir", str(out)]) == 2
        assert not out.exists()
        assert str(bad) in capsys.readouterr().err

    def test_duplicate_cell_validation(self, tmp_path):
        bad = tmp_path / "dup.csv"
        bad.write_text(DUP_CSV)
        assert main(["fit-vi", "--input", str(bad),
                     "--output-dir", str(tmp_path)]) == 2

    def test_disconnected_table_validation(self, tmp_path, capsys):
        bad = tmp_path / "split.csv"
        bad.write_text(SPLIT_CSV)
        assert main(["fit-freq", "--input", str(bad), "--q", "0",
                     "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "disconnected table" in err
        assert "Traceback" not in err

    def test_missing_input_io(self, tmp_path):
        assert main(["fit-vi", "--input", str(tmp_path / "nope.csv"),
                     "--output-dir", str(tmp_path)]) == 3

    def test_bad_hyper_flag(self, sim_dir, tmp_path):
        assert main(["fit-vi", "--input", str(sim_dir / "data.csv"),
                     "--hyper", "bogus=1",
                     "--output-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flag", [["--hyper", "b=inf"], ["--hyper", "a=nan"],
                                      ["--tol", "nan"]], ids=["b-inf", "a-nan", "tol-nan"])
    def test_non_finite_setting_rejected_before_fitting(self, sim_dir, tmp_path, monkeypatch,
                                                        flag):
        forbid_calls(monkeypatch, (cli, "frequentist_fit"), (vi, "fit"))
        out = tmp_path / "vi"
        assert main(["fit-vi", "--input", str(sim_dir / "data.csv"), *flag,
                     "--output-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command_line", [
        "fit-freq --seed 1", "fit-freq --tol 1e-3", "fit-freq --max-iter 5",
        "fit-freq --hyper a=1", "fit-mcmc --tol 1e-3", "fit-mcmc --max-iter 5",
        "init-study --q 2", "init-study --hyper a=1"])
    def test_flag_the_subcommand_does_not_read(self, sim_dir, tmp_path, monkeypatch, capsys,
                                               command_line):
        forbid_calls(monkeypatch, (cli, "frequentist_fit"), (vi, "fit"), (gibbs, "gibbs_fit"))
        command, *flag = command_line.split()
        data = [] if command == "init-study" else ["--input", str(sim_dir / "data.csv")]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, *data, *flag, "--output-dir", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    # each as (command line, config file line, message on stderr)
    @pytest.mark.parametrize("command_line, config_line, message", [
        ("fit-vi --init-file /nonexistent.csv", "", "--init-file"),
        ("predict --init-file /nonexistent.csv", "", "--init-file"),
        ("fit-vi", "init-file = /nonexistent.csv", "--init-file"),
        ("simulate --scenario recovery-q2 --i 5 --j 4", "", "--scenario takes none"),
        ("simulate --scenario recovery-q2 --missing 0.1", "", "--scenario takes none"),
        ("simulate --scenario recovery-q2", "sigma2-y = 2", "--scenario takes none"),
        ("simulate --scenario bogus", "", "known: init-study, "),
        ("init-study --scenario bogus", "", "known: init-study, "),
        ("init-study --n-seeds 0", "", "--n-seeds"),
        ("benchmark --group small --q-list 1,3", "", "has Q in [1, 2]"),
    ], ids=["init-file-fit-vi", "init-file-predict", "init-file-config-line",
            "scenario-with-dims", "scenario-with-missing", "scenario-with-config-line",
            "simulate-unknown-scenario", "init-study-unknown-scenario", "init-study-no-seeds",
            "benchmark-unknown-q"])
    def test_ignored_or_unknown_setting_rejected_before_any_work(
            self, sim_dir, tmp_path, monkeypatch, capsys, command_line, config_line, message):
        forbid_calls(monkeypatch, (cli, "frequentist_fit"), (vi, "fit"), (gibbs, "gibbs_fit"),
                     (simulate, "simulate"))
        command, *flags = command_line.split()
        data = ["--input", str(sim_dir / "data.csv")] if command in ("fit-vi", "predict") else []
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_line + "\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), command, *data, *flags,
                     "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("sizes", [["--chains", "0"], ["--iters", "0", "--burn", "0"],
                                       ["--burn", "-1"], ["--iters", "20", "--burn", "20"],
                                       ["--chains", "2", "--iters", "5", "--burn", "2"]],
                             ids=["no-chains", "no-iters", "negative-burn", "burn-all",
                                  "too-short-for-rhat"])
    def test_bad_mcmc_sizes_rejected_before_sampling(self, sim_dir, tmp_path, sizes):
        out = tmp_path / "mcmc"
        assert main(["fit-mcmc", "--input", str(sim_dir / "data.csv"),
                     "--iters", "20", "--burn", "5", *sizes,
                     "--output-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, target", [
        ("fit-mcmc", (gibbs, "gibbs_fit")), ("predict", (analysis, "predict"))])
    def test_memory_error_exit_code(self, sim_dir, tmp_path, monkeypatch, capsys,
                                    command, target):
        # stands in for a size numpy refuses to allocate (say --iters 10000000000000)
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 PiB")

        monkeypatch.setattr(*target, out_of_memory)
        out = tmp_path / "out"
        assert main([command, "--input", str(sim_dir / "data.csv"),
                     "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: not enough memory: Unable to allocate" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_zero_predict_draws(self, sim_dir, tmp_path, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("vi.fit ran before --draws was checked")

        monkeypatch.setattr(vi, "fit", no_fit)
        for draws in ("0", "-3"):
            out = tmp_path / f"pred{draws}"
            assert main(["predict", "--input", str(sim_dir / "data.csv"), "--draws", draws,
                         "--output-dir", str(out)]) == 2
            assert not out.exists()


class TestByteOrderMark:
    @pytest.mark.parametrize("reader, text", [
        (load_csv, "genotype,environment,yield\nA,x,1.5\nA,y,2\nB,x,3\nB,y,4.25\n"),
        (load_theta_csv, "parameter,index1,index2,value\nmu,,,1.0\ng,1,,0.5\ng,2,,-0.5\n"
                         "e,1,,0.1\ne,2,,-0.1\nsigma2,,,2.0\n"),
        (cli._read_config_file, "q = 1\nmax-iter = 5\nhyper = a=0.5\n"),
    ], ids=["data", "theta", "config"])
    def test_bom_file_reads_like_plain_file(self, tmp_path, reader, text):
        plain, marked = tmp_path / "plain", tmp_path / "bom"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        a, b = reader(plain), reader(marked)
        if isinstance(a, dict):
            assert a == b
        else:
            for f in fields(a):
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, sim_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 1\nmax-iter = 5  # deliberately few sweeps\n")
        out = tmp_path / "cfg_out"
        assert main(["--config", str(cfg), "fit-vi",
                     "--input", str(sim_dir / "data.csv"),
                     "--output-dir", str(out)]) == 0
        summary = dict(read_rows(out / "fit_summary.csv")[1:])
        assert int(summary["n_iter"]) == 5

        out2 = tmp_path / "cfg_out2"
        assert main(["--config", str(cfg), "fit-vi",
                     "--input", str(sim_dir / "data.csv"),
                     "--max-iter", "8", "--output-dir", str(out2)]) == 0
        summary2 = dict(read_rows(out2 / "fit_summary.csv")[1:])
        assert int(summary2["n_iter"]) == 8

    def test_equals_form_is_read(self, sim_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-iter = 5\n")
        out = tmp_path / "cfg_out"
        assert main([f"--config={cfg}", "fit-vi", "--input", str(sim_dir / "data.csv"),
                     "--output-dir", str(out)]) == 0
        assert dict(read_rows(out / "fit_summary.csv")[1:])["n_iter"] == "5"

    def test_unknown_config_key_rejected(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        args = ["--config", str(cfg), "fit-vi", "--input", str(sim_dir / "data.csv")]
        cfg.write_text("max_iters = 3\n")
        out = tmp_path / "typo"
        assert main(args + ["--output-dir", str(out)]) == 2
        assert "max_iters" in capsys.readouterr().err
        assert not out.exists()
        # a key of another subcommand (predict's --draws) is allowed
        cfg.write_text("draws = 10\nmax-iter = 5\n")
        out = tmp_path / "shared"
        assert main(args + ["--output-dir", str(out)]) == 0
        assert dict(read_rows(out / "fit_summary.csv")[1:])["n_iter"] == "5"

    @pytest.mark.parametrize("line, command, dest, value", [
        ("smoke = false", "benchmark --group small", "smoke", False),
        ("smoke = yes", "benchmark --group small", "smoke", True),
        ("include-noise = no", "predict --input x", "include_noise", False),
        ("include_noise = 1", "predict --input x", "include_noise", True),
        ("save-draws = 0", "fit-mcmc --input x", "save_draws", False),
        ("save_draws = true", "fit-mcmc --input x", "save_draws", True),
        ("lambda = 25,12", "simulate --i 5 --j 4", "lam", "25,12"),
    ])
    def test_key_is_read_as_the_flag_it_names(self, tmp_path, line, command, dest, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        args = cli.build_parser(cli._read_config_file(cfg)).parse_args(command.split())
        assert getattr(args, dest) == value

    def test_repeated_key_rejected(self, sim_dir, tmp_path, capsys):
        # `-` and `_` spell the same key; hyper lines stay repeatable
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-iter = 5\nhyper = a=0.5\n# note\nhyper = b=0.5\nmax_iter = 8\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "fit-vi", "--input", str(sim_dir / "data.csv"),
                     "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:5: config key max_iter repeats line 1" in err
        assert not out.exists()

    def test_attribute_name_that_is_no_flag_rejected(self, tmp_path):
        # simulate --lambda sets args.lam, but a key names the flag, not the attribute
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lam = 25,12\n")
        with pytest.raises(cli.ValidationError, match="no subcommand defines: lam$"):
            cli.build_parser(cli._read_config_file(cfg))

    def test_switch_value_that_is_not_a_truth_value_rejected(self, sim_dir, tmp_path,
                                                             monkeypatch, capsys):
        forbid_calls(monkeypatch, (cli, "frequentist_fit"), (vi, "fit"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("include-noise = maybe\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "predict", "--input", str(sim_dir / "data.csv"),
                     "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "include_noise" in err and "maybe" in err and "Traceback" not in err
        assert not out.exists()

    def test_hyper_line_acts_like_a_flag(self, sim_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hyper = sigma2_g=5\nhyper = a=0.5\n")

        def theta(tag, *args, config=False):
            out = tmp_path / tag
            assert main([*(["--config", str(cfg)] if config else []), "fit-vi",
                         "--input", str(sim_dir / "data.csv"), "--max-iter", "5", *args,
                         "--output-dir", str(out)]) == 0
            return (out / "theta.csv").read_bytes()

        flags = theta("flags", "--hyper", "sigma2_g=5", "--hyper", "a=0.5")
        assert theta("cfg", config=True) == flags
        assert theta("cfg-override", "--hyper", "sigma2_g=7", config=True) == theta(
            "flags-override", "--hyper", "a=0.5", "--hyper", "sigma2_g=7")
        assert theta("defaults") != flags

    def test_fit_keys_shared_across_subcommands(self, sim_dir, tmp_path):
        # fit-vi reads all three keys; fit-mcmc reads hyper and ignores the sweep limits
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-iter = 5\ntol = 1e-3\nhyper = sigma2_g=50\n")
        data = ["--input", str(sim_dir / "data.csv")]
        chains = ["--chains", "1", "--iters", "30", "--burn", "10"]
        runs = {"vi-cfg": ["--config", str(cfg), "fit-vi", *data],
                "vi-flags": ["fit-vi", *data, "--max-iter", "5", "--tol", "1e-3",
                             "--hyper", "sigma2_g=50"],
                "mcmc-cfg": ["--config", str(cfg), "fit-mcmc", *data, *chains],
                "mcmc-flags": ["fit-mcmc", *data, *chains, "--hyper", "sigma2_g=50"]}
        theta = {}
        for tag, args in runs.items():
            assert main([*args, "--output-dir", str(tmp_path / tag)]) == 0
            theta[tag] = (tmp_path / tag / "theta.csv").read_bytes()
        assert theta["vi-cfg"] == theta["vi-flags"]
        assert theta["mcmc-cfg"] == theta["mcmc-flags"]

    def test_missing_config_io(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg"), "simulate",
                     "--i", "4", "--j", "4", "--lambda", "5",
                     "--output-dir", str(tmp_path)]) == 3

    def test_missing_config_equals_form_io(self, tmp_path):
        assert main([f"--config={tmp_path / 'nope.cfg'}", "simulate",
                     "--i", "4", "--j", "4", "--lambda", "5",
                     "--output-dir", str(tmp_path)]) == 3

    def test_bad_config_line_validation(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no equals sign here\n")
        assert main(["--config", str(cfg), "simulate", "--i", "4", "--j", "4",
                     "--output-dir", str(tmp_path)]) == 2

    def test_config_without_value(self):
        with pytest.raises(SystemExit) as exc:
            main(["--config"])
        assert exc.value.code == 2


class TestStudies:
    def test_init_study_trace(self, tmp_path):
        out = tmp_path / "study"
        assert main(["init-study", "--scenario", "init-study", "--n-seeds", "1",
                     "--max-iter", "40", "--output-dir", str(out)]) == 0
        rows = read_rows(out / "init_study.csv")
        assert rows[0] == ["seed", "init", "iteration", "rmse_observed",
                           "rmse_truth"]
        inits = {row[1] for row in rows[1:]}
        assert inits == {"random", "freq", "mcmc-short"}
        assert all(float(row[3]) > 0 for row in rows[1:])
        assert_numeric_csvs(out, 1)

    def test_benchmark_smoke(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["benchmark", "--group", "small", "--q-list", "1",
                     "--smoke", "--output-dir", str(out)]) == 0
        rows = read_rows(out / "benchmark_small.csv")
        assert len(rows) == 1 + 4
        header = rows[0]
        assert header[:5] == ["scenario", "I", "J", "Q", "n"]
        ns = sorted(int(r[4]) for r in rows[1:])
        assert ns == [100, 250, 500, 1000]
        assert all(float(r[7]) > 0 for r in rows[1:])
        assert_numeric_csvs(out, 1)
