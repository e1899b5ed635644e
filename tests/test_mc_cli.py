import numpy as np
import pytest

from hfnoise import (InvalidConfig, SimConfig, StudySpec, TickSeries,
                     block_estimates, cli, load_csv, mc, write_csv)
from hfnoise.cli import main
from hfnoise.mc import (ROC_LEVELS, density_table, roc_points, run_paired_roc,
                        run_study, scenario_config)
from hfnoise.simulate import config_from_file

FAST = dict(days=1, avg_dt_seconds=30.0)  # ~780 ticks/day, quick reps


def fast_spec(**kw):
    base = dict(reps=4, scenario="custom",
                config=SimConfig(**FAST), tests=("N",), base_seed=5)
    base.update(kw)
    return StudySpec(**base)


@pytest.fixture
def sim_calls(monkeypatch):
    """Calls reaching the simulator, which is replaced by a recorder."""
    calls = []
    monkeypatch.setattr(mc, "simulate_observed",
                        lambda *a, **k: calls.append(a))
    return calls


class TestStudySpec:
    def test_validation(self):
        with pytest.raises(InvalidConfig):
            StudySpec(reps=0)
        with pytest.raises(InvalidConfig):
            StudySpec(reps=2, alpha_level=1.5)
        with pytest.raises(InvalidConfig):
            StudySpec(reps=2, scenario="nope")
        with pytest.raises(InvalidConfig):
            StudySpec(reps=2, scenario="custom")

    @pytest.mark.parametrize("tests, message", [
        (("X",), "unknown test kind 'X'"),
        (("N", "Vbar", "Y"), "unknown test kind 'Y'"),
        ("Vbar", "got the string 'Vbar'"),
    ])
    def test_unknown_test_kind_rejected_before_simulating(self, sim_calls,
                                                          tests, message):
        with pytest.raises(InvalidConfig, match=message):
            run_study(StudySpec(reps=2, tests=tests))
        assert sim_calls == []

    def test_scenario_config(self):
        spec = StudySpec(reps=1, scenario="ushape_5d")
        cfg = scenario_config(spec)
        assert cfg.noise_kind == "ushape"
        assert cfg.days == 5
        assert cfg.avg_dt_seconds == 5.0


class TestRunStudy:
    def test_single_rep(self):
        r = run_study(fast_spec(reps=1))
        assert len(r.stats["N"]) == 1
        assert np.isfinite(r.stats["N"]).all()
        assert r.iv.shape == (1,)

    def test_rows_in_rep_order_and_deterministic(self):
        a = run_study(fast_spec(reps=6))
        b = run_study(fast_spec(reps=6))
        assert np.array_equal(a.stats["N"], b.stats["N"])
        assert np.array_equal(a.tsrv, b.tsrv)

    def test_thread_count_never_changes_numbers(self):
        a = run_study(fast_spec(reps=6, threads=1))
        b = run_study(fast_spec(reps=6, threads=2))
        assert np.array_equal(a.stats["N"], b.stats["N"])
        assert np.array_equal(a.pvals["N"], b.pvals["N"])
        assert np.array_equal(a.wtsrv, b.wtsrv)

    @pytest.mark.parametrize("reps,threads,chunk", ((4, 2, 1), (40, 2, 5)))
    def test_pool_chunks_from_reps_and_threads(self, monkeypatch, reps,
                                               threads, chunk):
        seen = {}

        class Pool:
            def __init__(self, max_workers):
                seen["workers"] = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                seen["chunksize"] = chunksize
                return map(fn, items)

        monkeypatch.setattr(mc, "ProcessPoolExecutor", Pool)
        r = run_study(fast_spec(reps=reps, threads=threads))
        assert seen == {"workers": threads, "chunksize": chunk}
        assert len(r.stats["N"]) == reps

    def test_rejection_rate(self):
        r = run_study(fast_spec(reps=4))
        rate = r.rejection_rate("N")
        assert 0.0 <= rate <= 1.0


class TestAggregation:
    def test_density_table_normalized(self, rng):
        stats = rng.standard_normal(4000)
        table = density_table(stats, bins=41)
        width = table[1, 0] - table[0, 0]
        assert table[:, 1].sum() * width == pytest.approx(1.0, abs=0.02)
        assert table[:, 2].max() == pytest.approx(0.3989, abs=1e-3)

    def test_roc_points(self, rng):
        null = rng.standard_normal(2000)
        alt = rng.standard_normal(2000) + 3.0
        roc = roc_points(null, alt)
        assert roc.shape == (len(ROC_LEVELS), 2)
        # power increases with the allowed level and beats the level
        assert (np.diff(roc[:, 1]) >= 0).all()
        assert roc[np.searchsorted(roc[:, 0], 0.05), 1] > 0.8

    def test_paired_roc_needs_a_matched_null(self, sim_calls):
        with pytest.raises(InvalidConfig, match="no matched null"):
            run_paired_roc(StudySpec(reps=2, scenario="null_1d"))
        assert sim_calls == []

    def test_paired_roc_uses_matched_null(self):
        spec = StudySpec(reps=3, scenario="ushape_1d", tests=("N",),
                         base_seed=2,
                         config=SimConfig(avg_dt_seconds=30.0))
        out = run_paired_roc(spec)
        assert out["alt"].spec.scenario == "ushape_1d"
        assert out["null"].spec.scenario == "null_1d"
        assert out["roc"]["N"].shape[1] == 2


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_simulate_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "sim")
        code = self.run("--seed", "7", "--out", out, "simulate",
                        "--days", "1", "--noise", "ushape",
                        "--avg-dt", "30")
        assert code == 0
        series = load_csv(out + ".csv")
        assert series.n > 500
        truth = dict(line.split("=") for line in
                     open(out + ".truth").read().splitlines())
        assert float(truth["iv"]) > 0
        assert float(truth["gg"]) > 0
        assert "n=" in capsys.readouterr().out

    def test_simulate_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        self.run("--seed", "3", "--out", a, "simulate", "--avg-dt", "30")
        self.run("--seed", "3", "--out", b, "simulate", "--avg-dt", "30")
        assert open(a + ".csv").read() == open(b + ".csv").read()

    def test_test_command(self, tmp_path, capsys):
        sim = str(tmp_path / "sim")
        self.run("--seed", "11", "--out", sim, "simulate", "--avg-dt", "10")
        out_csv = str(tmp_path / "reports.csv")
        code = self.run("--out", out_csv, "test", "--input", sim + ".csv",
                        "--tests", "N,Vbar")
        assert code == 0
        shown = capsys.readouterr().out
        assert "N" in shown and "Vbar" in shown
        header = next(l for l in shown.splitlines() if l.startswith("kind"))
        assert header.split()[5] == "log_p"
        rows = open(out_csv).read().splitlines()
        assert rows[0] == "kind,K,s,n,statistic,p_value,degenerate,log_p"
        assert len(rows) == 3

    def test_test_csv_log_p_where_p_underflows(self, tmp_path):
        # a strong U-curve in the noise level: the N statistic is past 38,
        # where p_value underflows to 0 and only log_p ranks the rejection
        n = 50000
        u = np.arange(n + 1) / n
        rng = np.random.default_rng(0)
        prices = 4.6 + 1e-3 * (1 + 40 * (u - 0.5) ** 2) \
            * rng.standard_normal(n + 1)
        src = str(tmp_path / "u.csv")
        write_csv(TickSeries(u / 252.0, prices), src)
        out_csv = str(tmp_path / "rep.csv")
        assert self.run("--out", out_csv, "test", "--input", src,
                        "--tests", "N") == 0
        header, row = open(out_csv).read().splitlines()
        assert header.split(",")[-1] == "log_p"
        fields = row.split(",")
        assert float(fields[5]) == 0.0
        assert np.isfinite(float(fields[-1])) and float(fields[-1]) < -700

    def test_test_command_power_smoke(self, tmp_path):
        # U-curve day at one-second sampling: the edge test rejects
        sim = str(tmp_path / "u")
        self.run("--seed", "21", "--out", sim, "simulate",
                 "--noise", "ushape")
        out_csv = str(tmp_path / "rep.csv")
        assert self.run("--out", out_csv, "test", "--input", sim + ".csv",
                        "--tests", "N") == 0
        row = open(out_csv).read().splitlines()[1].split(",")
        assert float(row[5]) < 0.05

    def test_mc_artifacts(self, tmp_path, capsys):
        out = str(tmp_path / "study")
        code = self.run("--seed", "5", "--out", out, "mc",
                        "--scenario", "custom", "--reps", "2",
                        "--tests", "N,Vbar",
                        "--set", "avg_dt_seconds=30",
                        "--config", "/dev/null")
        assert code == 0
        for name in ("stats.csv", "density_N.csv", "density_Vbar.csv",
                     "rejection.txt"):
            assert (tmp_path / "study" / name).exists()
        stats = (tmp_path / "study" / "stats.csv").read_text().splitlines()
        assert stats[0] == "rep,n,stat_N,p_N,stat_Vbar,p_Vbar"
        assert len(stats) == 3

    def test_mc_threads_identical_bytes(self, tmp_path):
        outs = []
        for threads, name in ((1, "t1"), (2, "t2")):
            out = str(tmp_path / name)
            self.run("--seed", "5", "--threads", str(threads), "--out", out,
                     "mc", "--scenario", "custom", "--reps", "4",
                     "--tests", "N", "--set", "avg_dt_seconds=30",
                     "--config", "/dev/null")
            outs.append((tmp_path / name / "stats.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_mc_roc_for_alternative_scenario(self, tmp_path):
        out = str(tmp_path / "roc")
        code = self.run("--seed", "5", "--out", out, "mc",
                        "--scenario", "ushape_1d", "--reps", "2",
                        "--tests", "N", "--set", "avg_dt_seconds=60",
                        "--config", "/dev/null")
        assert code == 0
        assert (tmp_path / "roc" / "roc_N.csv").exists()
        assert (tmp_path / "roc" / "null_stats.csv").exists()

    def test_mc_unknown_test_kind_exits_1(self, tmp_path, sim_calls, capsys):
        code = self.run("--out", str(tmp_path / "bad"), "mc", "--reps", "2",
                        "--tests", "X")
        assert code == 1
        assert "InvalidConfig" in capsys.readouterr().err
        assert sim_calls == []

    def test_test_unknown_kind_fails_before_any_test_runs(self, tmp_path,
                                                          monkeypatch,
                                                          capsys):
        src = str(tmp_path / "s.csv")
        write_csv(TickSeries(np.arange(500.0) / 252e4,
                             np.random.default_rng(0).standard_normal(500)),
                  src)
        calls = []
        monkeypatch.setattr(cli, "run_test", lambda *a, **k: calls.append(a))
        code = self.run("test", "--input", src, "--tests", "N,X")
        assert code == 1
        assert "unknown test kind 'X'" in capsys.readouterr().err
        assert calls == []

    def test_test_kinds_are_stripped(self, tmp_path, capsys):
        sim = str(tmp_path / "sim")
        self.run("--seed", "11", "--out", sim, "simulate", "--avg-dt", "10")
        capsys.readouterr()
        shown = []
        for name, kinds in (("a.csv", "N,V"), ("b.csv", "N, V")):
            out_csv = str(tmp_path / name)
            assert self.run("--out", out_csv, "test", "--input",
                            sim + ".csv", "--tests", kinds) == 0
            shown.append(capsys.readouterr().out)
        assert shown[0] == shown[1]
        assert len(shown[0].splitlines()) == 3
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_mc_kinds_are_stripped(self, tmp_path, capsys):
        outs = []
        for name, kinds in (("a", "N,V"), ("b", " N , V")):
            out = str(tmp_path / name)
            assert self.run("--seed", "5", "--out", out, "mc",
                            "--scenario", "custom", "--reps", "2",
                            "--tests", kinds, "--set", "avg_dt_seconds=30",
                            "--config", "/dev/null") == 0
            outs.append(capsys.readouterr().out.replace(out, ""))
            outs.append((tmp_path / name / "stats.csv").read_bytes())
        assert outs[0] == outs[2] and outs[1] == outs[3]
        assert outs[1].splitlines()[0] == b"rep,n,stat_N,p_N,stat_V,p_V"

    @pytest.mark.parametrize("argv", [["test", "--tests", "V", "--K", "0"],
                                      ["test", "--tests", "Vbar", "--K", "-3"],
                                      ["liquidity", "--K", "0"]])
    def test_nonpositive_K_fails_cleanly(self, tmp_path, capsys, argv):
        sim = str(tmp_path / "sim")
        self.run("--seed", "9", "--out", sim, "simulate", "--avg-dt", "5")
        capsys.readouterr()
        code = self.run(argv[0], "--input", sim + ".csv", *argv[1:])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidK: ") and err.count("\n") == 1

    @pytest.mark.parametrize("line", ["days=2", "days = 2",
                                      "  noise_kind =ushape ", "a1= 2e-4"])
    def test_set_item_parses_like_config_file_line(self, tmp_path, line):
        path = tmp_path / "one.cfg"
        path.write_text(line + "\n")
        from_set = cli._build_config(
            cli._parser().parse_args(["simulate", "--set", line]))
        from_file = cli._build_config(
            cli._parser().parse_args(["simulate", "--config", str(path)]))
        assert from_set == from_file == config_from_file(path)
        assert from_set != SimConfig()

    @pytest.mark.parametrize("line", ["bogus=1", " days  ", "dayz = 2"])
    def test_set_item_and_config_file_reject_alike(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(InvalidConfig):
            cli._build_config(
                cli._parser().parse_args(["simulate", "--set", line]))
        with pytest.raises(InvalidConfig):
            config_from_file(path)

    def test_liquidity_command(self, tmp_path, capsys):
        sim = str(tmp_path / "sim")
        self.run("--seed", "9", "--out", sim, "simulate", "--avg-dt", "5")
        code = self.run("liquidity", "--input", sim + ".csv")
        assert code == 0
        out = capsys.readouterr().out
        assert "gg_hat=" in out and "gamma_hat=" in out

    def test_regress_command(self, tmp_path, capsys):
        sim = str(tmp_path / "sim")
        self.run("--seed", "13", "--out", sim, "simulate", "--days", "2")
        code = self.run("regress", sim + ".csv", "--m", "11700")
        assert code == 0
        out = capsys.readouterr().out
        assert "beta_hat=" in out and "r_squared=" in out

    @pytest.fixture
    def two_days(self, tmp_path):
        sim = str(tmp_path / "sim")
        self.run("--seed", "13", "--out", sim, "simulate", "--days", "2",
                 "--avg-dt", "5")
        return sim + ".csv"

    def test_regress_default_m_is_the_derived_block(self, two_days, capsys):
        series = load_csv(two_days)
        m = cli._default_block_m(series)
        capsys.readouterr()
        assert self.run("regress", two_days) == 0
        derived = capsys.readouterr().out
        assert f"pairs={series.n // m}\n" in derived
        assert self.run("regress", two_days, "--m", str(m)) == 0
        assert capsys.readouterr().out == derived

    def test_regress_out_writes_the_block_estimates(self, two_days, tmp_path):
        out = tmp_path / "pairs.csv"
        assert self.run("--out", str(out), "regress", two_days,
                        "--m", "200") == 0
        assert out.read_text().splitlines()[0] == "t_start,sigma2_hat,g_hat"
        got = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        want = block_estimates(load_csv(two_days), 200)
        assert got.tobytes() == want.tobytes()

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = self.run("test", "--input", str(tmp_path / "nope.csv"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" == err[-1]

    def test_too_short_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("time,price\n0.0,1.0\n")
        code = self.run("test", "--input", str(path))
        assert code == 1
        assert "FewerThanTwoTicks" in capsys.readouterr().err

    def test_latin1_file_fails_with_its_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("time,price\n0.0,1.0\n1.0,2.0 \xa3\n"
                         .encode("latin-1"))
        code = self.run("test", "--input", str(path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: MalformedRow: line 3: not UTF-8")
