import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fockops import cli, commands
from fockops.berezin import berezin_log_profile
from fockops.criteria import Classification, ConsistencyReport, Verdict
from fockops.errors import (ConfigError, DegreeCap, InvalidIntegrand,
                            NonConvergence)
from fockops.operator_rep import build_matrix, singular_values
from fockops.quadrature import Tolerance
from fockops.symbols import Symbol, SymbolPair

VOLTERRA_Z = {"schema": "v1", "kind": "volterra", "symbol": [0.0, 1.0]}
CONTRACTION = {"schema": "v1", "kind": "weighted", "symbol": [1.0],
               "map": {"a": 0.5}}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def run_cli(tmp_path, command, data, *extra):
    config = write_config(tmp_path, data)
    return cli.entrypoint([command, "--config", str(config), *extra])


class TestBerezinCommand:
    def test_stdout_has_the_csv_header(self, tmp_path, capsys):
        data = dict(CONTRACTION, q=2.0,
                    grid={"w_max": 2.0, "radial_count": 4, "angular_count": 4})
        code = run_cli(tmp_path, "berezin", data)
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "w_re,w_im,value"
        assert len(lines) == 1 + 4 * 4

    def test_out_file_and_values(self, tmp_path):
        data = dict(CONTRACTION, power=2.0,
                    grid={"w_max": 1.0, "radial_count": 3, "angular_count": 4})
        out = tmp_path / "profile.csv"
        config = write_config(tmp_path, data)
        code = cli.entrypoint(["berezin", "--config", str(config),
                               "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        for row in rows:
            w_re, w_im, value = (float(c) for c in row.split(","))
            want = np.pi * np.exp(-0.75 * (w_re ** 2 + w_im ** 2))
            np.testing.assert_allclose(value, want, rtol=1e-6)

    @pytest.mark.parametrize("power", [1e300, 1e-300])
    def test_extreme_powers_give_numbers(self, tmp_path, capsys, power):
        data = dict(VOLTERRA_Z, power=power,
                    grid={"radial_count": 2, "angular_count": 4})
        assert run_cli(tmp_path, "berezin", data, "--no-cache") == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1 + 2 * 4
        assert "nan" not in out

    def test_power_or_q_is_required(self, tmp_path, capsys):
        assert run_cli(tmp_path, "berezin", dict(CONTRACTION)) == 2
        assert "power" in capsys.readouterr().err


class TestNormCommand:
    def test_monomial_norm_and_functional(self, tmp_path, capsys):
        data = {"schema": "v1", "symbol": [0.0, 1.0], "p": 2.0}
        code = run_cli(tmp_path, "norm", data)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "v1"
        np.testing.assert_allclose(payload["norm"], 1.0, rtol=1e-9)
        np.testing.assert_allclose(payload["derivative_functional"],
                                   0.578481111882093, rtol=1e-8)


class TestClassifyCommand:
    def test_reference_example(self, tmp_path, capsys):
        data = {"schema": "v1", "kind": "volterra", "symbol": [1.0, 3.0, 1.0],
                "map": {"a": 1.0, "b": 0.0}, "p": 2.0, "q": 2.0}
        code = run_cli(tmp_path, "classify", data)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bounded"] == "yes"
        assert payload["compact"] == "no"
        assert payload["command"] == "classify"

    def test_schatten_orders_on_the_diagonal(self, tmp_path, capsys):
        data = dict(VOLTERRA_Z, p=2.0, q=2.0, orders=[4.0])
        code = run_cli(tmp_path, "classify", data)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schatten"] == {"4": "yes"}

    def test_inconclusive_verdicts_exit_three(self, tmp_path, monkeypatch,
                                              capsys):
        stub = Classification(bounded=Verdict.INCONCLUSIVE,
                              compact=Verdict.INCONCLUSIVE)
        monkeypatch.setattr(commands, "classify_berezin",
                            lambda *args, **kwargs: stub)
        data = dict(VOLTERRA_Z, p=2.0, q=2.0)
        assert run_cli(tmp_path, "classify", data) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["bounded"] == "inconclusive"


    def test_a_sup_profile_that_does_not_settle_keeps_the_verdicts(
            self, tmp_path, capsys):
        data = dict(VOLTERRA_Z, p=2.0, q=2.0, alpha=1e-12)
        assert run_cli(tmp_path, "classify", data, "--no-cache") == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        payload = json.loads(captured.out)
        assert (payload["bounded"], payload["compact"]) == ("yes", "yes")
        assert payload["norm_estimate"] == "nan"
        assert "levels ran out" in payload["evidence"]["note"]


class TestSchattenCommand:
    def test_artifacts_and_agreement_with_direct_svd(self, tmp_path):
        data = dict(VOLTERRA_Z, size=24, orders=[2.0, 4.0])
        config = write_config(tmp_path, data)
        out = tmp_path / "summary.json"
        code = cli.entrypoint(["schatten", "--config", str(config),
                               "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["schatten"]) == {"2", "4"}

        side = tmp_path / "summary.singular.csv"
        lines = side.read_text().strip().splitlines()
        assert lines[0] == "k,sigma"
        got = np.array([float(line.split(",")[1]) for line in lines[1:]])
        pair = SymbolPair.volterra(Symbol.polynomial([0.0, 1.0]))
        want = singular_values(build_matrix(pair, 24))
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestSweepCommand:
    def test_explicit_pairs_agree(self, tmp_path, capsys):
        data = {"schema": "v1",
                "pairs": [dict(VOLTERRA_Z), dict(CONTRACTION)],
                "p": 2.0, "q": 2.0, "size": 32, "orders": [4.0]}
        code = run_cli(tmp_path, "sweep", data)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agreements"] == payload["comparisons"] > 0
        assert payload["mismatches"] == []
        assert len(payload["entries"]) == 2

    def test_overflowing_matrix_exits_three_with_the_report(self, tmp_path,
                                                            capsys):
        weyl = {"kind": "weighted",
                "symbol": {"prefactor": [1.0], "exponent": [-0.5, 1.0]},
                "map": {"a": 1.0, "b": -1.0}}
        data = {"schema": "v1",
                "pairs": [{"kind": "weighted", "symbol": [1.0],
                           "map": {"a": 0.5, "b": 0.2}}, weyl],
                "p": 2.0, "q": 2.0, "size": 256}
        assert run_cli(tmp_path, "sweep", data, "--no-cache") == 3
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert len(payload["entries"]) == 2
        first, second = payload["entries"]
        assert first["spectral"]["op_norm"] > 0
        assert second["spectral"] is None
        assert "overflow" in second["spectral_note"]
        assert "Traceback" not in err

    def test_seed_flag_overrides_the_family_seed(self, tmp_path, capsys):
        data = {"schema": "v1", "family": {"count": 2, "degree_max": 2},
                "p": 2.0, "q": 2.0, "size": 24, "orders": [4.0]}
        code = run_cli(tmp_path, "sweep", data, "--seed", "7")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 7
        assert payload["family"]["count"] == 2

    @pytest.mark.parametrize("field", [{"lead_floor": 1.5}, {"alpha": -1.0},
                                       {"degree_max": 200},
                                       {"lead_floor": 0.999999},
                                       {"lead_floor": -0.1},
                                       {"count": 201}])
    def test_bad_family_fields_exit_two(self, tmp_path, capsys, field):
        data = {"schema": "v1",
                "family": {"count": 2, "degree_max": 2, **field},
                "p": 2.0, "q": 2.0, "size": 16, "orders": [4.0]}
        assert run_cli(tmp_path, "sweep", data) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err

    def test_pairs_and_family_together_exit_two(self, tmp_path, capsys):
        data = {"schema": "v1", "pairs": [dict(VOLTERRA_Z)],
                "family": {"count": 2}, "p": 2.0, "q": 2.0}
        assert run_cli(tmp_path, "sweep", data) == 2
        assert "config error: config:" in capsys.readouterr().err

    def test_overflowing_hs_integral_still_writes_the_artifact(self,
                                                               tmp_path,
                                                               capsys):
        # the direct HS integrand of this pair exceeds the float range
        # inside its disk; its log-space sum is still finite
        gaussian = {"prefactor": [1.0], "exponent": [0.0, 0.0, 0.48]}
        data = {"schema": "v1",
                "pairs": [{"kind": "weighted", "symbol": gaussian,
                           "map": {"a": 0.05}}],
                "p": 2.0, "q": 2.0, "size": 16, "orders": [2.0]}
        assert run_cli(tmp_path, "sweep", data) in (0, 4)
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["entries"]) == 1
        assert len(payload["hs_ratios"]) == 1

    def test_disagreement_exits_four(self, tmp_path, monkeypatch, capsys):
        report = ConsistencyReport(
            comparisons=1, agreements=0,
            mismatches=[(0, "bounded", Verdict.YES, Verdict.NO)],
            spectral_disagreements=[],
            op_norm_ratios=[], hs_ratios=[], entries=[])
        monkeypatch.setattr(commands, "consistency_report",
                            lambda *args, **kwargs: report)
        data = {"schema": "v1", "pairs": [dict(VOLTERRA_Z)],
                "p": 2.0, "q": 2.0}
        assert run_cli(tmp_path, "sweep", data) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["mismatches"] == [[0, "bounded", "yes", "no"]]


class TestCrosscheckCommand:
    def test_monomial_routes_agree(self, tmp_path, capsys):
        code = run_cli(tmp_path, "crosscheck", dict(VOLTERRA_Z, size=16))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["deviation"] < 1e-6

    def test_weighted_kind_is_a_config_error(self, tmp_path, capsys):
        assert run_cli(tmp_path, "crosscheck", dict(CONTRACTION)) == 2


class TestCache:
    def berezin_config(self):
        return dict(CONTRACTION, q=2.0,
                    grid={"w_max": 2.0, "radial_count": 3, "angular_count": 4})

    def test_second_run_replays_artifacts(self, tmp_path, capsys):
        config = write_config(tmp_path, self.berezin_config())
        cache = tmp_path / "cache"
        out = tmp_path / "a.csv"
        argv = ["berezin", "--config", str(config), "--cache", str(cache),
                "--out", str(out)]
        assert cli.entrypoint(argv) == 0
        assert "cache hit" not in capsys.readouterr().err
        first = out.read_bytes()

        out2 = tmp_path / "b.csv"
        argv2 = ["berezin", "--config", str(config), "--cache", str(cache),
                 "--out", str(out2)]
        assert cli.entrypoint(argv2) == 0
        assert "cache hit" in capsys.readouterr().err
        assert out2.read_bytes() == first

    def test_no_cache_flag_bypasses(self, tmp_path, capsys):
        config = write_config(tmp_path, self.berezin_config())
        cache = tmp_path / "cache"
        argv = ["berezin", "--config", str(config), "--cache", str(cache)]
        assert cli.entrypoint(argv) == 0
        capsys.readouterr()
        assert cli.entrypoint(argv + ["--no-cache"]) == 0
        assert "cache hit" not in capsys.readouterr().err

    def test_code_change_misses_the_cache(self, tmp_path, monkeypatch,
                                          capsys):
        config = write_config(tmp_path, self.berezin_config())
        argv = ["berezin", "--config", str(config), "--cache",
                str(tmp_path / "cache")]
        assert cli.entrypoint(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "_code_fingerprint", lambda: "other code")
        assert cli.entrypoint(argv) == 0
        assert "cache hit" not in capsys.readouterr().err
        assert cli.entrypoint(argv) == 0
        assert "cache hit" in capsys.readouterr().err

    def test_fingerprint_follows_version_and_sources(self, tmp_path,
                                                     monkeypatch):
        before = cli._code_fingerprint()
        (tmp_path / "cli.py").write_text("# other sources\n")
        try:
            for name, value in (("__version__", "0.0.0-other"),
                                ("__file__", str(tmp_path / "cli.py"))):
                with monkeypatch.context() as patch:
                    patch.setattr(cli, name, value)
                    cli._code_fingerprint.cache_clear()
                    assert cli._code_fingerprint() != before
        finally:
            cli._code_fingerprint.cache_clear()
        assert cli._code_fingerprint() == before

    def test_failed_runs_are_not_cached(self, tmp_path, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise NonConvergence("stuck")

        monkeypatch.setattr(commands, "berezin_profile", explode)
        config = write_config(tmp_path, self.berezin_config())
        cache = tmp_path / "cache"
        argv = ["berezin", "--config", str(config), "--cache", str(cache)]
        assert cli.entrypoint(argv) == 3
        assert not list(cache.glob("*.meta.json")) if cache.exists() else True

        monkeypatch.undo()
        capsys.readouterr()
        assert cli.entrypoint(argv) == 0
        assert "cache hit" not in capsys.readouterr().err

    SMALL = {
        "berezin": dict(CONTRACTION, q=2.0, grid={
            "w_max": 2.0, "radial_count": 3, "angular_count": 4}),
        "norm": {"schema": "v1", "symbol": [0.0, 1.0], "p": 2.0},
        "classify": dict(VOLTERRA_Z, p=2.0, q=2.0, orders=[4.0], grid={
            "radial_count": 12, "angular_count": 8}),
        "schatten": dict(CONTRACTION, size=8, orders=[2.0]),
        "sweep": {"schema": "v1", "pairs": [dict(CONTRACTION)], "size": 8,
                  "orders": [2.0]},
        "crosscheck": dict(VOLTERRA_Z, size=8),
    }

    @pytest.mark.parametrize("command", sorted(SMALL))
    def test_miss_hit_and_no_cache_give_the_same_bytes(self, tmp_path,
                                                       capsys, command):
        config = write_config(tmp_path, self.SMALL[command])
        seen = []
        for mode in ("miss", "hit", "no-cache"):
            for target in ("stdout", "out"):
                flags = (["--no-cache"] if mode == "no-cache" else
                         ["--cache", str(tmp_path / f"cache-{target}")])
                out = tmp_path / f"{mode}-{target}" / "result.out"
                if target == "out":
                    flags += ["--out", str(out)]
                code = cli.entrypoint([command, "--config", str(config),
                                       *flags])
                stdout, err = capsys.readouterr()
                assert ("cache hit" in err) == (mode == "hit")
                files = ({p.name: p.read_bytes()
                          for p in out.parent.iterdir()}
                         if target == "out" else {"result.out": stdout})
                seen.append((code, target, files))
        code, _, from_stdout = seen[0]
        _, _, files = seen[1]
        assert code == 0
        assert seen[0::2] == [(code, "stdout", from_stdout)] * 3
        assert seen[1::2] == [(code, "out", files)] * 3
        assert files["result.out"] == from_stdout["result.out"].encode()
        if command == "schatten":
            assert set(files) == {"result.out", "result.singular.csv"}
        else:
            assert set(files) == {"result.out"}

    def test_invalid_config_is_never_stored(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(VOLTERRA_Z, p=-2.0, q=2.0))
        cache = tmp_path / "cache"
        argv = ["classify", "--config", str(config), "--cache", str(cache)]
        for _ in range(2):
            assert cli.entrypoint(argv) == 2
            assert "config error: p:" in capsys.readouterr().err
        assert not cache.exists() or not any(cache.iterdir())


SRC = str(Path(cli.__file__).resolve().parents[1])


def python(*args):
    """A fresh ``python args`` process on this source tree."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC))


class TestImportBudget:
    def test_cache_hit_imports_no_numerics(self, tmp_path):
        config = write_config(tmp_path, TestCache.SMALL["classify"])
        argv = ["classify", "--config", str(config), "--cache",
                str(tmp_path / "cache"), "--out", str(tmp_path / "r.json")]
        assert cli.entrypoint(argv) == 0
        proc = python("-c", "import sys\nfrom fockops import cli\n"
                      "code = cli.entrypoint(sys.argv[1:])\n"
                      "print(code, 'numpy' in sys.modules,"
                      " 'fockops.berezin' in sys.modules)", *argv)
        assert "cache hit" in proc.stderr
        assert proc.stdout.split() == ["0", "False", "False"]

    def test_traced_names_resolve_to_the_runners_bindings(self):
        for name in ("classify_berezin", "fock_norm", "spectral_summary",
                     "consistency_report", "berezin_profile"):
            assert getattr(cli, name) is getattr(commands, name)


class TestDeepConfigs:
    # 988 passes json.loads but not the cache key's json.dumps; 100000
    # fails json.loads itself
    @pytest.mark.parametrize("depth", [988, 100000])
    def test_deep_nesting_is_a_config_error(self, tmp_path, depth):
        config = tmp_path / "deep.json"
        config.write_text('{"kind": "volterra", "p": 2, "q": 2, "symbol": '
                          + "[" * depth + "]" * depth + "}")
        cache = tmp_path / "cache"
        proc = python("-m", "fockops.cli", "classify", "--config",
                      str(config), "--cache", str(cache))
        assert proc.returncode == 2
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not cache.exists() or not any(cache.iterdir())

    def test_run_rejects_a_config_too_deep_for_the_cache_key(self):
        deep = []
        for _ in range(100000):
            deep = [deep]
        with pytest.raises(ConfigError, match="nested too deeply"):
            cli.run("classify", {"symbol": deep})


def test_help_table_names_every_command():
    assert list(cli._HELP) == list(commands._COMMANDS)


class TestExitCodes:
    @pytest.mark.parametrize("error,code", [(InvalidIntegrand, 3),
                                            (DegreeCap, 2)])
    def test_library_errors_map_to_exit_codes(self, tmp_path, monkeypatch,
                                              capsys, error, code):
        def explode(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(commands, "berezin_profile", explode)
        data = dict(CONTRACTION, q=2.0)
        assert run_cli(tmp_path, "berezin", data) == code
        assert "boom" in capsys.readouterr().err

    def test_overflowing_matrix_exits_three(self, tmp_path, capsys):
        weyl = {"schema": "v1", "kind": "weighted",
                "symbol": {"prefactor": [1.0], "exponent": [-0.5, 1.0]},
                "map": {"a": 1.0, "b": -1.0}, "size": 256}
        assert run_cli(tmp_path, "schatten", weyl, "--no-cache") == 3
        err = capsys.readouterr().err
        assert "computation did not settle" in err
        assert "Traceback" not in err

    def test_unmeetable_norm_tolerance_exits_three(self, tmp_path, capsys):
        data = {"schema": "v1", "symbol": [1.0, 0.5], "p": 2.0,
                "tolerance": {"rel_tol": 1e-15, "abs_tol": 1e-300}}
        assert run_cli(tmp_path, "norm", data, "--no-cache") == 3
        err = capsys.readouterr().err
        assert "computation did not settle" in err
        assert "Traceback" not in err

    def test_unrepresentable_root_exits_three(self, tmp_path, capsys):
        # the 1e-300-th root of a mean above 1 overflows
        data = {"schema": "v1", "symbol": [1.0, 1.0], "p": 1e-300}
        assert run_cli(tmp_path, "norm", data, "--no-cache") == 3
        err = capsys.readouterr().err
        assert "computation did not settle" in err
        assert "Traceback" not in err


class TestTolerance:
    # |g'| = |z - 0.9| kinks near the grid at power 1, so the profile's
    # points keep refining while rel_tol asks for more digits.
    KINKED = {"schema": "v1", "kind": "volterra", "symbol": [0.0, -0.9, 0.5],
              "q": 1.0, "grid": {"w_max": 1.0, "r_min": 0.5,
                                 "radial_count": 2, "angular_count": 6}}
    CLASSIFY_Z = dict(VOLTERRA_Z, p=2.0, q=2.0)

    def output(self, tmp_path, capsys, command, data, tolerance):
        if tolerance is not None:
            data = dict(data, tolerance=tolerance)
        assert run_cli(tmp_path, command, data) == 0
        return capsys.readouterr().out

    def test_berezin_rel_tol_sets_the_log_accuracy(self, tmp_path, capsys):
        loose = self.output(tmp_path, capsys, "berezin", self.KINKED,
                            {"rel_tol": 0.5})
        tight = self.output(tmp_path, capsys, "berezin", self.KINKED,
                            {"rel_tol": 1e-6})
        assert tight != loose
        rows = np.array([[float(c) for c in row.split(",")]
                         for row in tight.strip().splitlines()[1:]])
        pair = SymbolPair.volterra(Symbol.polynomial([0.0, -0.9, 0.5]))
        want = berezin_log_profile(pair, 1.0, rows[:, 0] + 1j * rows[:, 1],
                                   tol=Tolerance(rel_tol=1e-8))
        assert np.max(np.abs(np.log(rows[:, 2]) - want)) <= 1e-6

    def test_classify_rel_tol_reaches_the_profile(self, tmp_path, capsys):
        loose = json.loads(self.output(tmp_path, capsys, "classify",
                                       self.CLASSIFY_Z, {"rel_tol": 0.5}))
        tight = json.loads(self.output(tmp_path, capsys, "classify",
                                       self.CLASSIFY_Z, {"rel_tol": 1e-9}))
        assert (tight["evidence"]["ring_maxima"]
                != loose["evidence"]["ring_maxima"])
        for key in ("bounded", "compact"):
            assert tight[key] == loose[key] == "yes"

    @pytest.mark.parametrize("command", ["berezin", "classify", "norm"])
    def test_absent_rel_tol_keeps_the_default_output(self, tmp_path, capsys,
                                                     command):
        data = {"berezin": self.KINKED, "classify": self.CLASSIFY_Z,
                "norm": {"schema": "v1", "symbol": [0.0, 1.0],
                         "p": 2.0}}[command]
        default = self.output(tmp_path, capsys, command, data, None)
        for tolerance in ({"max_refinements": 10}, {"abs_tol": 1e-12}):
            assert self.output(tmp_path, capsys, command, data,
                               tolerance) == default


class TestConfigValidation:
    @pytest.mark.parametrize("mangle", [
        lambda d: d.update(bogus=1),
        lambda d: d.update(alpha=True),
        lambda d: d.update(symbol=[]),
        lambda d: d.update(symbol=[0.0] * 66),
        lambda d: d.update(schema="v0"),
        lambda d: d.pop("kind"),
        lambda d: d.update(map={"b": 1.0}),
        lambda d: d.update(symbol={"exponent": [0.0, 0.0, 0.1, 0.0]}),
        lambda d: d.update(p=-2.0),
        lambda d: d.update(orders=[0]),
        lambda d: d.update(orders=[-1.0]),
        lambda d: d.update(grid={"w_max": -3.0}),
        lambda d: d.update(grid={"w_max": 0.0}),
        lambda d: d.update(grid={"r_min": -0.5}),
        lambda d: d.update(grid={"radial_count": 257}),
        lambda d: d.update(grid={"angular_count": 258}),
    ])
    def test_bad_configs_exit_two(self, tmp_path, capsys, mangle):
        data = dict(VOLTERRA_Z, p=2.0, q=2.0,
                    map={"a": 1.0, "b": 0.0})
        mangle(data)
        assert run_cli(tmp_path, "classify", data) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,size", [
        ("schatten", 1), ("schatten", 2049), ("sweep", 1), ("sweep", 100000),
        ("crosscheck", 3), ("crosscheck", 2049)])
    def test_size_out_of_range_exits_two(self, tmp_path, capsys, command,
                                         size):
        data = dict(VOLTERRA_Z, size=size)
        if command == "sweep":
            data = {"schema": "v1", "pairs": [dict(VOLTERRA_Z)], "size": size}
        assert run_cli(tmp_path, command, data) == 2
        assert "config error: size:" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [{"radial_count": 2},
                                      {"radial_count": 5},
                                      {"w_max": 0.1}])
    def test_coarse_grid_still_classifies(self, tmp_path, capsys, grid):
        # The far rings decide the verdicts, not the grid, so g = z
        # classifies with exit 0.
        data = dict(VOLTERRA_Z, p=2.0, q=2.0, grid=grid)
        assert run_cli(tmp_path, "classify", data) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert (payload["bounded"], payload["compact"]) == ("yes", "yes")
        assert "Traceback" not in captured.err

    def test_unreadable_config_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert cli.entrypoint(["classify", "--config", str(missing)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.entrypoint(["classify", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            cli.entrypoint(["bogus", "--config", "x"])
        assert info.value.code == 2

    def test_exponential_symbol_literal_parses(self, tmp_path, capsys):
        data = {"schema": "v1", "kind": "weighted",
                "symbol": {"prefactor": [1.0], "exponent": [0.0, 0.0, 0.1]},
                "map": {"a": 0.5}, "p": 2.0, "q": 2.0}
        assert run_cli(tmp_path, "classify", data) in (0, 3)
