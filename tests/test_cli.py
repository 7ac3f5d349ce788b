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

    def test_auto_picks_recursive(self, tmp_path, capsys):
        path = write_config(tmp_path, b=[3, 2])
        assert main(["solve", path]) == 0
        assert "method: recursive" in capsys.readouterr().out

    def test_auto_falls_back_to_exact(self, tmp_path, capsys):
        path = write_config(tmp_path, b=[2, 1])
        assert main(["solve", path]) == 0
        assert "method: exact" in capsys.readouterr().out

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
        assert doc["theta"]["states"] == [list(s.k) for s in enumerate_inventory_states(cfg.b)]
        reread = read_theta_json(str(out))
        assert np.array_equal(reread.grid, expected.grid)
        assert reread.provenance == "exact" and reread.normalized

    @pytest.mark.parametrize(
        "damage", ["shuffled", "short", [1000, 1000, 1000, 0], [2.0, 3, 0], ["2", 3, 0], 7]
    )
    def test_json_non_canonical_states_rejected(self, tmp_path, damage):
        # Weights are placed by position, so rows out of canonical order
        # (even with their weights moved along) or missing rows must not load.
        # The box is read off the last row; an oversized or non-integer one
        # must be refused before any enumeration of that box.
        path = write_config(tmp_path, b=[2, 3])
        out = tmp_path / "report.json"
        assert main(["solve", path, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        pairs = list(zip(doc["theta"]["states"], doc["theta"]["weights"]))
        if damage == "shuffled":
            pairs = pairs[::2] + pairs[1::2]
        elif damage == "short":
            pairs = pairs[:-1]
        else:
            pairs[-1] = (damage, pairs[-1][1])
        doc["theta"]["states"] = [s for s, _ in pairs]
        doc["theta"]["weights"] = [w for _, w in pairs]
        out.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="canonical"):
            read_theta_json(str(out))

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
