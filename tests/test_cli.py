import csv
import json

import numpy as np
import pytest

from qinet import build_reduced_generator, enumerate_inventory_states, solve_theta_exact
from qinet.cli import load_config, main, read_theta_json
from qinet.errors import ConfigError, SolverError


def write_config(tmp_path, name="net.json", **overrides):
    doc = {
        "J": 2,
        "lambda": [1.0, 1.0],
        "mu": [{"head": [], "tail": 2.0}, {"head": [], "tail": 2.0}],
        "b": [1, 1],
        "nu": 1.0,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def no_work(*args, **kwargs):
    """Stands in for a solve or a simulation that must not start."""
    pytest.fail("work started before the command line was checked")


class TestLoadConfig:
    def test_valid(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.J == 2 and cfg.b == (1, 1)

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, extra=1)
        with pytest.raises(ConfigError, match="extra"):
            load_config(path)

    def test_missing_key(self, tmp_path):
        doc = {"J": 2, "lambda": [1, 1], "b": [1, 1], "nu": 1.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="mu"):
            load_config(str(path))

    def test_bad_mu_entry(self, tmp_path):
        path = write_config(
            tmp_path, mu=[{"head": [], "tail": 2.0, "c": 1}, {"head": [], "tail": 2.0}]
        )
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(path)

    def test_wrong_length(self, tmp_path):
        path = write_config(tmp_path, b=[1, 1, 1])
        with pytest.raises(ConfigError, match="length"):
            load_config(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("b = 1")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_beta_accepted(self, tmp_path):
        path = write_config(tmp_path, b=[2, 2], beta=0.5)
        assert load_config(path).transfer_beta == 0.5

    @pytest.mark.parametrize(
        "overrides",
        [
            {"b": [2.7, 3]},
            {"b": [True, 2]},
            {"nu": "abc"},
            {"mu": [{"head": [], "tail": None}, {"head": [], "tail": 2.0}]},
            {"mu": [{"head": ["fast"], "tail": 2.0}, {"head": [], "tail": 2.0}]},
            {"lambda": [float("inf"), 1.0]},
            {"b": [2, 2], "beta": float("nan")},
        ],
        ids=["b_float", "b_bool", "nu_string", "tail_null", "head_string", "lambda_inf", "beta_nan"],
    )
    def test_bad_values_rejected(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, **overrides)
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestSolve:
    def test_auto_picks_closed_form(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["solve", path]) == 0
        out = capsys.readouterr().out
        assert "method: closed" in out
        assert "0.4" in out

    def test_theta_column_values(self, tmp_path, capsys):
        path = write_config(tmp_path)
        main(["solve", path, "--method", "exact"])
        out = capsys.readouterr().out
        weights = [line.split()[-1] for line in out.splitlines() if line.startswith(" 0") or line.startswith(" 1")]
        assert [float(w) for w in weights] == pytest.approx([0.4, 0.2, 0.2, 0.2])

    def test_auto_picks_exact(self, tmp_path, capsys):
        # Two locations with base stocks above one: the recursion is a
        # cross-check only, auto takes the level elimination.
        path = write_config(tmp_path, b=[3, 2])
        assert main(["solve", path]) == 0
        assert "method: exact (auto: level-by-level elimination)" in capsys.readouterr().out

    def test_beta_zero_matches_no_beta(self, tmp_path):
        # A zero transfer rate is no transfer channel: same route, same bytes.
        docs = {}
        for name, extra in (("plain", {}), ("zero", {"beta": 0})):
            path = write_config(tmp_path, name=f"{name}.json", b=[4, 4], **extra)
            out = tmp_path / f"{name}.report.json"
            assert main(["solve", path, "--json", str(out)]) == 0
            assert main(["solve", path, "--method", "recursive"]) == 0
            docs[name] = json.loads(out.read_text())
        assert docs["zero"]["method"] == docs["plain"]["method"] == "exact"
        assert docs["zero"]["note"] == docs["plain"]["note"]
        assert docs["zero"]["theta"]["weights"] == docs["plain"]["theta"]["weights"]

    @pytest.mark.parametrize("b", [[3, 2], [2, 1]], ids=["recursive", "exact"])
    def test_heterogeneous_beta_zero_matches_no_beta(self, tmp_path, b):
        # A zero rate is no transfer channel, so heterogeneous locations
        # may carry one: same route, note and bytes as without beta.
        docs = {}
        for name, extra in (("plain", {}), ("zero", {"beta": 0})):
            path = write_config(tmp_path, name=f"{name}.json", b=b, **{"lambda": [1.3, 0.8]}, **extra)
            out = tmp_path / f"{name}.report.json"
            assert main(["solve", path, "--json", str(out)]) == 0
            docs[name] = json.loads(out.read_text())
        for key in ("method", "note"):
            assert docs["zero"][key] == docs["plain"][key]
        assert docs["zero"]["theta"]["weights"] == docs["plain"]["theta"]["weights"]

    @pytest.mark.parametrize("method, b", [("closed", [1, 1]), ("recursive", [3, 2]), ("exact", [3, 2])])
    def test_componentwise_residual_reported(self, tmp_path, capsys, method, b):
        path = write_config(tmp_path, b=b, **{"lambda": [1.3, 0.8]})
        out = tmp_path / "report.json"
        assert main(["solve", path, "--method", method, "--json", str(out)]) == 0
        value = json.loads(out.read_text())["componentwise_residual"]
        assert 0.0 <= value <= 1e-10 and f"componentwise residual: {value:.3e}" in capsys.readouterr().out

    def test_north_star_box(self, tmp_path, capsys):
        # 14,641 states: the level blocks take 36 MiB where one dense
        # matrix took 1.7 GB.
        path = write_config(tmp_path, **{"lambda": [1.3, 0.8]}, b=[120, 120], nu=1.2,
                            mu=[{"head": [], "tail": 6.0}] * 2)
        assert main(["solve", path]) == 0
        assert "method: exact" in capsys.readouterr().out
        assert main(["simulate", path, "--events", "20000"]) == 0
        assert "merged (1 run(s))" in capsys.readouterr().out

    def test_auto_falls_back_to_exact(self, tmp_path, capsys):
        path = write_config(tmp_path, b=[2, 1])
        assert main(["solve", path]) == 0
        assert "method: exact" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["solve", "verify", "simulate"])
    def test_box_too_large_for_dense_solve(self, tmp_path, capsys, command):
        path = write_config(tmp_path, J=3, **{"lambda": [1.0] * 3}, mu=[{"head": [], "tail": 2.0}] * 3,
                            b=[100, 100, 100])
        assert main([command, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a dense exact solve of 1030301 states needs") and err.count("\n") == 1

    def test_recursive_rejected_for_three_locations(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            J=3,
            **{"lambda": [1, 1, 1]},
            mu=[{"head": [], "tail": 2.0}] * 3,
            b=[2, 2, 2],
        )
        assert main(["solve", path, "--method", "recursive"]) == 1
        assert "exact" in capsys.readouterr().err

    def test_closed_rejected_for_big_stocks(self, tmp_path, capsys):
        path = write_config(tmp_path, b=[2, 1])
        assert main(["solve", path, "--method", "closed"]) == 1
        assert "exact" in capsys.readouterr().err

    def test_validation_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, nu=-1.0)
        assert main(["solve", path]) == 1

    def test_json_round_trip(self, tmp_path):
        path = write_config(tmp_path, b=[2, 2])
        out = tmp_path / "report.json"
        assert main(["solve", path, "--method", "exact", "--json", str(out)]) == 0
        cfg = load_config(path)
        expected = solve_theta_exact(build_reduced_generator(cfg))
        doc = json.loads(out.read_text())
        assert doc["theta"]["states"] == enumerate_inventory_states(cfg.b).tolist()
        reread = read_theta_json(str(out))
        assert np.array_equal(reread.grid, expected.grid)
        assert reread.provenance == "exact"
        assert doc["theta"]["normalized"] is True

    @pytest.mark.parametrize("flag", [False, None, 1, "true"])
    def test_json_not_normalized_rejected(self, tmp_path, flag):
        path = write_config(tmp_path, b=[2, 2])
        out = tmp_path / "report.json"
        assert main(["solve", path, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["theta"]["normalized"] = flag
        out.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="normalized"):
            read_theta_json(str(out))

    def test_json_weights_not_summing_to_one_rejected(self, tmp_path):
        path = write_config(tmp_path, b=[2, 2])
        out = tmp_path / "report.json"
        assert main(["solve", path, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["theta"]["weights"] = [2 * w for w in doc["theta"]["weights"]]
        out.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="sum to one"):
            read_theta_json(str(out))

    MALFORMED = {
        "no_states": "KeyError.*states",
        "unknown_provenance": "unknown provenance 'guesswork'",
        "string_weights": "ValueError.*could not convert string to float",
        "list_root": "TypeError.*list indices",
        "invalid_json": "JSONDecodeError",
    }

    @pytest.mark.parametrize(
        "damage",
        ["shuffled", "short", [1000, 1000, 1000, 0], [2.0, 3, 0], ["2", 3, 0], 7, *MALFORMED,
         [0, 11, 0]],
    )
    def test_json_non_canonical_states_rejected(self, tmp_path, damage):
        # Weights are placed by position, so rows out of canonical order
        # (even with their weights moved along) or missing rows must not load.
        # The box is read off the last row; an oversized, non-integer or
        # empty (b_1 = 0, with a matching row count) one must be refused
        # before any enumeration of that box.  A malformed file is a
        # ConfigError too, never a bare KeyError, ValueError or TypeError.
        path = write_config(tmp_path, b=[2, 3])
        out = tmp_path / "report.json"
        assert main(["solve", path, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        pairs = list(zip(doc["theta"]["states"], doc["theta"]["weights"]))
        if damage == "shuffled":
            pairs = pairs[::2] + pairs[1::2]
        elif damage == "short":
            pairs = pairs[:-1]
        elif not isinstance(damage, str):
            pairs[-1] = (damage, pairs[-1][1])
        doc["theta"]["states"] = [s for s, _ in pairs]
        doc["theta"]["weights"] = [w for _, w in pairs]
        if damage == "no_states":
            del doc["theta"]["states"]
        elif damage == "unknown_provenance":
            doc["theta"]["provenance"] = "guesswork"
        elif damage == "string_weights":
            doc["theta"]["weights"] = "heavy"
        text = json.dumps([doc] if damage == "list_root" else doc)
        out.write_text(text[:-1] if damage == "invalid_json" else text)
        match = self.MALFORMED.get(damage, "canonical") if isinstance(damage, str) else "canonical"
        with pytest.raises(ConfigError, match=match):
            read_theta_json(str(out))

    @pytest.mark.parametrize("flag", ["--json", "--csv"])
    def test_unwritable_output_path(self, tmp_path, capsys, flag):
        path = write_config(tmp_path)
        target = tmp_path / "missing" / "out"
        assert main(["solve", path, flag, str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err

    def test_csv_output(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "report.csv"
        main(["solve", path, "--csv", str(out)])
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["k1", "k2", "k_supplier", "weight"]
        assert rows[1][:3] == ["0", "0", "2"]
        assert float(rows[1][3]) == pytest.approx(0.4)
        flat = [r for r in rows if r]
        assert ["location", "level", "probability"] in flat
        assert ["check", "value"] in flat

    def test_ergodicity_in_report(self, tmp_path, capsys):
        path = write_config(
            tmp_path, **{"lambda": [3.0, 1.0]}
        )
        main(["solve", path])
        out = capsys.readouterr().out
        assert "NOT ergodic" in out
        assert "unstable" in out


class TestVerify:
    def test_homogeneous_all_pass(self, tmp_path, capsys):
        path = write_config(tmp_path, b=[2, 2])
        assert main(["verify", path, "--events", "150000"]) == 0
        out = capsys.readouterr().out
        assert "recursive_vs_exact_tv" in out
        assert "symmetry" in out
        assert "cut_homogeneous" in out
        assert "simulation_decoupling_tv" in out
        assert "all checks passed" in out

    def test_beta_zero_keeps_recursive_check(self, tmp_path, capsys):
        # Too few events for the simulation checks; only the route matters.
        path = write_config(tmp_path, b=[4, 4], beta=0)
        main(["verify", path, "--events", "20000"])
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("recursive_vs_exact_tv") and line.endswith("pass") for line in lines)

    def test_heterogeneous_families_reported(self, tmp_path, capsys):
        path = write_config(tmp_path, **{"lambda": [1.4, 0.7]}, b=[3, 2])
        assert main(["verify", path, "--events", "120000"]) == 0
        out = capsys.readouterr().out
        for family in ("cut_low", "cut_mid", "cut_full", "cut_second", "cut_geometric"):
            assert family in out

    def test_non_ergodic_skips_simulation(self, tmp_path, capsys):
        path = write_config(tmp_path, **{"lambda": [5.0, 1.0]})
        assert main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "notice" in out
        assert "simulation_theta_tv" not in out
        assert "exact_balance_residual" in out

    def test_property_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import qinet.cli as cli

        monkeypatch.setattr(cli, "TOL_SYMMETRY", -1.0)
        path = write_config(tmp_path, b=[2, 2])
        assert main(["verify", path, "--events", "60000"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_verify_json(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "verify.json"
        main(["verify", path, "--events", "80000", "--json", str(out)])
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert any(c["name"] == "closed_form_vs_exact_tv" for c in doc["checks"])

    def test_exact_componentwise_check(self, tmp_path):
        path = write_config(tmp_path, **{"lambda": [1.3, 0.8]}, b=[10, 6], nu=0.3,
                            mu=[{"head": [], "tail": 1.0}] * 2)  # not ergodic: no simulation
        out = tmp_path / "verify.json"
        assert main(["verify", path, "--json", str(out)]) == 0
        check = {c["name"]: c for c in json.loads(out.read_text())["checks"]}["exact_componentwise_residual"]
        assert check["tolerance"] == 1e-12 and check["passed"] and check["value"] <= 1e-12

    def test_failed_cross_check_route(self, tmp_path, capsys):
        # The float recursion cannot close its sweep at (20,20) with
        # nu = mean(lam); that fails its two checks, with exit 2, and the
        # exact reference and every other check still run.
        path = write_config(tmp_path, **{"lambda": [1.3, 0.8]}, b=[20, 20], nu=1.05,
                            mu=[{"head": [], "tail": 1.0}] * 2)  # not ergodic: no simulation
        out = tmp_path / "verify.json"
        assert main(["verify", path, "--json", str(out)]) == 2
        printed = capsys.readouterr().out
        assert "notice: recursive route failed: closing balance equation at (10, 0) cannot " in printed
        assert "recursive_vs_exact_tv                  n/a  (tol 1e-10)  FAIL" in printed

        def no_constants(name):
            raise AssertionError(f"non-strict JSON constant {name}")

        doc = json.loads(out.read_text(), parse_constant=no_constants)
        failed = {c["name"]: c["value"] for c in doc["checks"] if not c["passed"]}
        assert failed == {"recursive_vs_exact_tv": None, "recursive_balance_residual": None}
        assert doc["passed"] is False
        assert any(n.startswith("recursive route failed: ") for n in doc["notices"])

    def test_reference_failure_exits_3(self, tmp_path, monkeypatch):
        # Only a cross-check route's failure is a failed check; without the
        # exact reference there is nothing to check against.
        import qinet.cli as cli

        def boom(gen):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(cli, "solve_theta_exact", boom)
        assert main(["verify", write_config(tmp_path, b=[3, 2])]) == 3

    def test_north_star_box(self, tmp_path):
        path = write_config(tmp_path, **{"lambda": [1.3, 0.8]}, b=[120, 120], nu=1.2,
                            mu=[{"head": [], "tail": 6.0}] * 2)
        assert main(["verify", path, "--events", "20000"]) in (0, 2)

    def test_negative_seed_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["verify", path, "--events", "1000", "--seed", "-5"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -5\n"


    def test_location_order_runs_same_checks(self, tmp_path):
        # The library sorts the two locations itself, so listing the larger
        # base stock second loses no check and leaves no family empty.
        names, values = [], []
        for b, lam in (([12, 6], [1.0, 0.7]), ([6, 12], [0.7, 1.0])):
            path = write_config(tmp_path, **{"lambda": lam}, b=b, nu=2.5)
            out = tmp_path / "verify.json"
            main(["verify", path, "--events", "20000", "--json", str(out)])
            checks = json.loads(out.read_text())["checks"]
            names.append([c["name"] for c in checks])
            values.append({c["name"]: c["value"] for c in checks})
        assert names[0] == names[1]
        assert {"recursive_vs_exact_tv", "recursive_balance_residual"} <= set(names[1])
        assert values[1]["cut_low"] > 0.0 and values[1]["cut_geometric"] > 0.0

    @pytest.mark.parametrize(
        "options, message",
        [(["--seed", "-5", "--events", "0"], "seed must be >= 0, got -5"),
         (["--events", "0"], "events must be >= 1, got 0")],
    )
    def test_options_checked_on_non_ergodic_config(self, tmp_path, capsys, monkeypatch, options, message):
        import qinet.cli as cli

        monkeypatch.setattr(cli, "solve_theta_exact", no_work)
        path = write_config(tmp_path, **{"lambda": [5.0, 1.0]})
        assert main(["verify", path, *options]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [["solve", "{cfg}", "--method", "bogus"], ["verify", "{cfg}", "--seed", "abc"], ["solve"], [],
         ["simulate", "{cfg}", "--events", "many"]],
        ids=["bad-method", "bad-seed", "missing-config", "no-command", "bad-events"],
    )
    def test_usage_error_exits_1(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path)
        assert main([arg.format(cfg=cfg) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: qinet") and "error:" in captured.err

    def test_help_exits_0(self, capsys):
        assert main(["verify", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: qinet verify")


class TestOutputPaths:
    @pytest.mark.parametrize("command", ["solve", "verify", "simulate"])
    def test_checked_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        import qinet.cli as cli

        for name in ("simulate", "solve_theta_exact", "_solve_with"):
            monkeypatch.setattr(cli, name, no_work)
        target = tmp_path / "missing" / "x.json"
        assert main([command, write_config(tmp_path), "--json", str(target)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")

    @pytest.mark.parametrize("existing", [None, "old contents"])
    def test_failed_run_leaves_path_as_found(self, tmp_path, monkeypatch, existing):
        import qinet.cli as cli

        def boom(config, method):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(cli, "_solve_with", boom)
        out = tmp_path / "out.json"
        if existing is not None:
            out.write_text(existing)
        assert main(["solve", write_config(tmp_path), "--json", str(out), "--csv", str(out) + ".csv"]) == 3
        assert (out.read_text() if out.exists() else None) == existing
        assert not (tmp_path / "out.json.csv").exists()

    def test_existing_file_is_replaced(self, tmp_path):
        out = tmp_path / "out.json"
        out.write_text("x" * 100_000)
        assert main(["solve", write_config(tmp_path), "--json", str(out)]) == 0
        assert json.loads(out.read_text())["method"] == "closed"


class TestSimulate:
    def test_reports_tv(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["simulate", path, "--events", "80000", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "theta_tv" in out and "decoupling_tv" in out

    def test_replications_merge(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert (
            main(["simulate", path, "--events", "40000", "--replications", "3"]) == 0
        )
        assert "merged (3 run(s))" in capsys.readouterr().out

    def test_non_ergodic_refusal(self, tmp_path, capsys):
        path = write_config(tmp_path, **{"lambda": [2.0, 1.0]})
        assert main(["simulate", path]) == 1
        err = capsys.readouterr().err
        assert "not ergodic" in err
        assert "UNSTABLE" in err

    def test_zero_replications_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["simulate", path, "--events", "1000", "--replications", "0"]) == 1
        assert "replications" in capsys.readouterr().err

    def test_negative_n_obs_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["simulate", path, "--events", "1000", "--n-obs", "-1"]) == 1
        assert "n_obs" in capsys.readouterr().err

    def test_zero_n_obs_rejected(self, tmp_path, capsys):
        # One bucket clips every queue to 0: the TVs would compare nothing.
        path = write_config(tmp_path)
        assert main(["simulate", path, "--events", "1000", "--n-obs", "0"]) == 1
        assert capsys.readouterr().err == "error: n_obs must be >= 1, got 0\n"

    def test_negative_seed_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["simulate", path, "--events", "1000", "--seed", "-5"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -5\n"

    @pytest.mark.parametrize("J", [2, 3])
    def test_huge_n_obs(self, tmp_path, capsys, J):
        path = write_config(tmp_path, J=J, b=[1] * J, **{"lambda": [1.0] * J},
                            mu=[{"head": [], "tail": 2.0}] * J)
        assert main(["simulate", path, "--n-obs", "1000000000000", "--events", "2000"]) == 0
        assert f"queue{J}_tv" in capsys.readouterr().out

    def test_simulate_json(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "sim.json"
        main(["simulate", path, "--events", "50000", "--json", str(out)])
        doc = json.loads(out.read_text())
        assert "merged" in doc and "replications" in doc
        assert abs(sum(doc["theta"]["weights"]) - 1.0) < 1e-9


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    import qinet.cli as cli

    def boom(config, method):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(cli, "_solve_with", boom)
    path = write_config(tmp_path)
    assert main(["solve", path]) == 3
