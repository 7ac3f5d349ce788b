import contextlib
import csv
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qinet import (ThetaMeasure, build_reduced_generator, enumerate_inventory_states, method_inapplicable,
                   solve_theta_exact, solve_theta_iad)
from qinet.cli import _pick_method, load_config, main
from qinet.errors import ConfigError, SolverError
from qinet.exact import IAD_MAX_SWEEPS

NORTHSTAR = Path(__file__).resolve().parents[1] / "northstar"


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


# perfbench's solve-grid box grid-20x20-r2 at seed 1, on which the float
# recursion closes every sweep but its measure fails the balance equations
# of its small weights (componentwise residual 1.7e-3).
GRID_20X20_R2 = {"lambda": [0.7703910799600172, 0.8991619542198879],
                 "mu": [{"head": [], "tail": 3.5966478168795515}] * 2, "b": [20, 20], "nu": 1.6695530341799052}


def no_work(*args, **kwargs):
    """Stands in for a solve or a simulation that must not start."""
    pytest.fail("work started before the command line was checked")


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools started, with four usable CPUs.

    Once the test is done, no worker is left running.
    """
    import concurrent.futures

    started = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    yield started
    assert multiprocessing.active_children() == []


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

    def test_off_balance_recursion_exits_3(self, tmp_path, capsys):
        path = write_config(tmp_path, **GRID_20X20_R2)
        assert main(["solve", path, "--method", "recursive"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "recursive measure is off balance: weight " in captured.err
        assert " at on-hand (19, 0) " in captured.err

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
        # 14,641 states: one dense matrix took 1.7 GB, every level block
        # at once would take 36 MiB, and the solve, one level's blocks at a
        # time, peaks at 11.6 MiB.  The table and the --json report carry
        # the solver's weights unchanged.
        path = write_config(tmp_path, **{"lambda": [1.3, 0.8]}, b=[120, 120], nu=1.2,
                            mu=[{"head": [], "tail": 6.0}] * 2)
        report = tmp_path / "report.json"
        assert main(["solve", path, "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "method: exact" in out
        expected = solve_theta_exact(build_reduced_generator(load_config(path))).weights
        assert np.array(json.loads(report.read_text())["theta"]["weights"]).tobytes() == expected.tobytes()
        table = out.split("k1  k2  k_sup  weight\n")[1].split("\n\n")[0]
        assert len(table.splitlines()) == 14641
        assert main(["simulate", path, "--events", "20000"]) == 0
        assert "merged (1 run(s))" in capsys.readouterr().out

    def test_auto_falls_back_to_exact(self, tmp_path, capsys):
        path = write_config(tmp_path, b=[2, 1])
        assert main(["solve", path]) == 0
        assert "method: exact" in capsys.readouterr().out

    @pytest.mark.parametrize("b, method", [([3] * 6, "iad"), ([6] * 4, "iad"), ([16] * 3, "iad"),
                                           ([12] * 3, "exact"), ([8] * 3, "exact"), ([40, 40], "exact")])
    def test_auto_takes_iad_above_the_level_size(self, tmp_path, b, method):
        # Largest levels 580, 231, 217 against 127, 61 and 41 states.  An
        # explicit exact route takes the same solver by the same rule.
        J = len(b)
        config = load_config(write_config(tmp_path, J=J, **{"lambda": [1.0] * J}, b=b,
                                          mu=[{"head": [], "tail": 4.0}] * J))
        assert _pick_method(config, "auto")[0] == _pick_method(config, "exact")[0] == method

    def test_auto_picks_iad(self, tmp_path, capsys):
        path = write_config(tmp_path, J=6, **{"lambda": [0.7, 1.3, 0.9, 1.1, 0.8, 1.2]}, b=[3] * 6, nu=2.0,
                            mu=[{"head": [], "tail": 5.2}] * 6)
        report = tmp_path / "report.json"
        assert main(["solve", path, "--json", str(report)]) == 0
        theta, sweeps, residual = solve_theta_iad(load_config(path))
        note = f"auto: a level holds more than 200 states; {sweeps} sweeps, residual {residual:.1e}"
        assert capsys.readouterr().out.startswith(f"method: iad ({note})\n")
        doc = json.loads(report.read_text())
        assert (doc["method"], doc["note"], doc["theta"]["provenance"]) == ("iad", note, "iad")
        assert np.array(doc["theta"]["weights"]).tobytes() == theta.weights.tobytes()
        assert doc["componentwise_residual"] <= 1e-12
        assert main(["solve", path, "--method", "exact"]) == 0
        note = f"exact: a level holds more than 200 states; {sweeps} sweeps, residual {residual:.1e}"
        assert capsys.readouterr().out.startswith(f"method: iad ({note})\n")

    def test_auto_solves_beyond_the_exact_cap(self, tmp_path, capsys):
        # (6,)^6: 117,649 states, for which the level solver would hold 8.46 GiB.
        path = write_config(tmp_path, J=6, **{"lambda": [0.7, 1.3, 0.9, 1.1, 0.8, 1.2]}, b=[6] * 6, nu=2.0,
                            mu=[{"head": [], "tail": 5.2}] * 6)
        reason = method_inapplicable(load_config(path), "exact")
        assert reason.startswith("a level-by-level exact solve of 117649 ")
        assert main(["solve", path]) == 0
        assert capsys.readouterr().out.startswith("method: iad (auto: a level holds more than 200 states; ")

    def test_auto_falls_back_when_iad_stalls(self, tmp_path, capsys):
        # Arrival rates 400 apart: the sweeps stall near 7e-3, and the level
        # solver answers, bit for bit as it does alone.
        lam = [24.1, 1.56, 0.0606]
        path = write_config(tmp_path, J=3, **{"lambda": lam}, b=[20] * 3, nu=sum(lam) / 3,
                            mu=[{"head": [], "tail": 4 * 24.1}] * 3)
        report = tmp_path / "report.json"
        assert main(["solve", path, "--json", str(report)]) == 0
        doc = json.loads(report.read_text())
        expected = solve_theta_exact(build_reduced_generator(load_config(path))).weights
        assert doc["method"] == "exact"
        assert np.array(doc["theta"]["weights"]).tobytes() == expected.tobytes()
        stall = re.fullmatch(r"auto: (iterative aggregation-disaggregation stopped after (\d+) sweeps at "
                             r"componentwise residual (\S+) \(tolerance 1e-13\)); level-by-level elimination",
                             doc["note"])
        assert int(stall[2]) == IAD_MAX_SWEEPS and float(stall[3]) > 1e-6
        assert capsys.readouterr().out.startswith(f"method: exact ({doc['note']})\n")

    def test_no_fallback_above_the_exact_cap(self, tmp_path, capsys, monkeypatch):
        def stall(config):
            raise SolverError("iterative aggregation-disaggregation stopped after 3000 sweeps at "
                              "componentwise residual 1.0e-03 (tolerance 1e-13)")

        monkeypatch.setattr("qinet.cli.solve_theta_iad", stall)
        monkeypatch.setattr("qinet.cli.solve_theta_exact", no_work)
        path = write_config(tmp_path, J=6, **{"lambda": [1.0] * 6}, b=[6] * 6, nu=2.0,
                            mu=[{"head": [], "tail": 4.0}] * 6)
        assert main(["solve", path]) == 3
        assert capsys.readouterr().err == ("numerical failure: iterative aggregation-disaggregation stopped "
                                           "after 3000 sweeps at componentwise residual 1.0e-03 "
                                           "(tolerance 1e-13)\n")

    @pytest.mark.parametrize("command", ["solve", "verify", "simulate"])
    def test_box_too_large_for_dense_solve(self, tmp_path, capsys, command):
        # Above the iterative solve's cap too, so auto falls to the level
        # solver, which refuses it; (100,100,100) is solved iteratively now.
        path = write_config(tmp_path, J=3, **{"lambda": [1.0] * 3}, mu=[{"head": [], "tail": 2.0}] * 3,
                            b=[300, 300, 300])
        assert main([command, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a level-by-level exact solve of 27270901 states needs")
        assert err.count("\n") == 1

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

    def test_recursive_refused_above_the_cap(self, tmp_path, capsys, monkeypatch):
        # The recursion holds about 1 KB of Python objects per state: a
        # huge box is refused in one line before its transition arrays are
        # written, as auto refuses it.
        def unreachable(config):
            raise AssertionError("transition arrays built for a refused box")

        monkeypatch.setattr("qinet.recursive._transition_arrays", unreachable)
        path = write_config(tmp_path, b=[2**63, 2])
        assert main(["solve", path, "--method", "recursive"]) == 1
        err = capsys.readouterr().err
        assert err == ("error: recursive elimination of 27670116110564327427 states needs "
                       "30437127721620760169700 bytes; the cap is 4294967296 bytes\n")
        assert main(["solve", path]) == 1
        assert capsys.readouterr().err.startswith("error: a level-by-level exact solve of ")
        for b, admitted in (([300, 300], True), ([3000, 3000], False)):
            config = load_config(write_config(tmp_path, b=b))
            assert (method_inapplicable(config, "recursive") is None) == admitted

    @pytest.mark.parametrize("method, message", [
        ("auto", "a level-by-level exact solve of 1099511627776 states needs "),
        ("closed", "the closed form of 1099511627776 states needs 703687441776640 bytes; "),
    ], ids=["auto", "closed"])
    def test_unit_box_above_every_cap(self, tmp_path, capsys, method, message):
        # J=40 unit base stocks: the closed form refuses its 2^40 states,
        # so auto falls to exact, which refuses them too.
        path = write_config(tmp_path, J=40, **{"lambda": [1.0] * 40}, b=[1] * 40,
                            mu=[{"head": [], "tail": 2.0}] * 40)
        assert main(["solve", path, "--method", method]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["auto", "closed"])
    def test_report_refused_above_the_cap(self, tmp_path, capsys, monkeypatch, method):
        # (1,)*22: the closed form's arrays fit the cap, but the report of its
        # 4,194,304 states would take about 7 GB.  It is refused in one line
        # before any solver runs; (1,)*12 still solves.
        def unreachable(*args):
            raise AssertionError("solver reached for a refused report")

        with monkeypatch.context() as stubs:
            for name in ("theta_unit_base_stock", "solve_theta_recursive", "solve_theta_exact",
                         "build_reduced_generator"):
                stubs.setattr(f"qinet.cli.{name}", unreachable)
            path = write_config(tmp_path, J=22, **{"lambda": [1.0] * 22}, b=[1] * 22,
                                mu=[{"head": [], "tail": 2.0}] * 22, nu=22.0)
            assert method_inapplicable(load_config(path), "closed") is None
            assert main(["solve", path, "--method", method]) == 1
            assert capsys.readouterr().err == ("error: the solve report of 4194304 states needs "
                                               "29527900160 bytes; the cap is 4294967296 bytes\n")
        path = write_config(tmp_path, J=12, **{"lambda": [1.0] * 12}, b=[1] * 12,
                            mu=[{"head": [], "tail": 2.0}] * 12, nu=12.0)
        assert main(["solve", path, "--method", method]) == 0
        assert "error" not in capsys.readouterr().err
        for J, admitted in ((19, True), (20, False)):
            config = load_config(write_config(tmp_path, J=J, **{"lambda": [1.0] * J}, b=[1] * J,
                                              mu=[{"head": [], "tail": 2.0}] * J, nu=float(J)))
            assert (method_inapplicable(config, "report") is None) == admitted

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
        reread = np.reshape(doc["theta"]["weights"], expected.grid.shape)
        assert reread.tobytes() == expected.grid.tobytes()
        assert doc["theta"]["provenance"] == "exact"
        assert doc["theta"]["normalized"] is True

    # sha256 of `qinet solve` stdout, recorded before the table and the
    # --json report were rewritten for speed; the residual lines make them
    # specific to this build's floating-point arithmetic.
    @pytest.mark.parametrize("method, overrides, digest", [
        ("exact", {"b": [3, 2], "lambda": [1.3, 0.8]},
         "01f6391a2c819c8689caea7c5823793ca973acf5d283d3abab2892bacfe28b0a"),
        ("closed", {"J": 3, "b": [1, 1, 1], "lambda": [1.0, 1.5, 0.7], "mu": [{"head": [], "tail": 3.0}] * 3,
                    "nu": 1.2},
         "348d89ddd89f4681b0cf80e657cfb3880bd50815648180205a14eb116db39559"),
        ("recursive", {"b": [5, 4], "lambda": [1.3, 0.8]},
         "f0d792e015b1ced83afbfdba637112c5051ef4dfd3945d929fc3f489501a47a4"),
        ("exact", {"J": 3, "b": [4, 1, 2], "lambda": [0.05, 1.0, 20.0], "mu": [{"head": [], "tail": 40.0}] * 3,
                   "nu": 100.0},
         "29f83256d0d83fab50e7fef691bd270067dfdca9ed99ca8c5af820032e87695a"),
    ], ids=["exact_3_2", "closed_1_1_1", "recursive_5_4", "graded_4_1_2"])
    def test_stdout_pinned(self, tmp_path, capsys, method, overrides, digest):
        assert main(["solve", write_config(tmp_path, **overrides), "--method", method]) == 0
        out = capsys.readouterr().out
        if overrides["b"] == [4, 1, 2]:
            assert "  1.79923280847e-15\n" in out  # weights in exponent form
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of the --json and --csv files of test_stdout_pinned's four
    # solves, recorded before the state columns were written per box.
    @pytest.mark.parametrize("method, overrides, json_digest, csv_digest", [
        ("exact", {"b": [3, 2], "lambda": [1.3, 0.8]},
         "08a6ece8202dcbe20a6864be0150c3bfb6640b649edf6800bd2d79326d9e0f46",
         "da6d06413ad1a04be9ac4e19f1c82484a4df45c59752df984f333c0e96cff6b0"),
        ("closed", {"J": 3, "b": [1, 1, 1], "lambda": [1.0, 1.5, 0.7], "mu": [{"head": [], "tail": 3.0}] * 3,
                    "nu": 1.2},
         "26f3be5a4f55f3408eb249c3e7a7fb71dd3f06c1239b07d579cc3fe0a14c2a15",
         "7032034578c0c7a746ce94c231412323dd291704eb79b1882c0065f880dfa343"),
        ("recursive", {"b": [5, 4], "lambda": [1.3, 0.8]},
         "3953c788d1dd48a999098bb6ace3b21995d9291384c06b175d25f3c54811a07d",
         "ed7b680454e3907033b99c6d53bb634a702660f18c0b501f837a642522346a74"),
        ("exact", {"J": 3, "b": [4, 1, 2], "lambda": [0.05, 1.0, 20.0], "mu": [{"head": [], "tail": 40.0}] * 3,
                   "nu": 100.0},
         "68ae3a5ed6e940b56c606cb2b42f45463f707bc790c527b2b46e4e28ba9b9b54",
         "62389df363242917fd26484d0f9734b4a0d8e66c7771aebd4cdf2944afa7a73d"),
    ], ids=["exact_3_2", "closed_1_1_1", "recursive_5_4", "graded_4_1_2"])
    def test_report_files_pinned(self, tmp_path, method, overrides, json_digest, csv_digest):
        report, table = tmp_path / "report.json", tmp_path / "report.csv"
        argv = ["solve", write_config(tmp_path, **overrides), "--method", method, "--json", str(report)]
        assert main([*argv, "--csv", str(table)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == json_digest
        assert hashlib.sha256(table.read_bytes()).hexdigest() == csv_digest

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

    def test_off_balance_recursion_fails_its_checks(self, tmp_path, capsys):
        # Too few events for the simulation checks; only the route matters.
        path = write_config(tmp_path, **GRID_20X20_R2)
        out = tmp_path / "verify.json"
        assert main(["verify", path, "--events", "20000", "--json", str(out)]) == 2
        assert "notice: recursive route failed: recursive measure is off balance: " in capsys.readouterr().out
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        for name in ("recursive_vs_exact_tv", "recursive_balance_residual"):
            assert checks[name]["value"] is None and not checks[name]["passed"]
        assert checks["exact_componentwise_residual"]["passed"]

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

    # The north-star boxes that pass, kept passing at verify's defaults.
    # In-process, on 2 vCPUs: 0.4-0.7 s at (30,30,30), 0.3-0.6 s at
    # (10,)*4 and 0.4 s at (6,)*5.  The others stay in northstar/run.py.
    @pytest.mark.parametrize("box", ["4-30x30x30", "5-6^5", "6-10^4"])
    def test_north_star_box_passes(self, tmp_path, box):
        out = tmp_path / "verify.json"
        assert main(["verify", str(NORTHSTAR / f"{box}.json"), "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert doc["checks"] and all(check["passed"] for check in doc["checks"])


class TestVerifyWorkers:
    """``verify`` simulates two replications, seeded ``seed`` and ``seed + 1``, on ``simulate``'s pool."""

    HEADS = [{"head": [1.5, 2.5], "tail": 3.0}, {"head": [1.0], "tail": 2.0}]

    def test_equals_simulate_with_two_replications(self, tmp_path):
        path = write_config(tmp_path, b=[3, 2], **{"lambda": [1.3, 0.8]}, mu=self.HEADS)
        main(["verify", path, "--events", "40000", "--seed", "11", "--json", str(tmp_path / "v.json")])
        assert main(["simulate", path, "--replications", "2", "--events", "20000", "--seed", "11",
                     "--json", str(tmp_path / "s.json")]) == 0
        checks = {c["name"]: c["value"] for c in json.loads((tmp_path / "v.json").read_text())["checks"]}
        merged = json.loads((tmp_path / "s.json").read_text())["merged"]
        assert checks["simulation_theta_tv"] == merged["theta_tv"]
        assert checks["simulation_decoupling_tv"] == merged["decoupling_tv"]

    def test_pool_writes_the_same_bytes_as_one_process(self, tmp_path, capsys, monkeypatch, pools):
        path = write_config(tmp_path, b=[3, 2], **{"lambda": [1.3, 0.8]}, mu=self.HEADS)
        argv = ["verify", path, "--events", "30001", "--seed", "11", "--json"]
        code = main([*argv, str(tmp_path / "pool.json")])
        pooled = capsys.readouterr().out
        assert pools == [2]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main([*argv, str(tmp_path / "one.json")]) == code
        assert pools == [2]
        assert capsys.readouterr().out == pooled
        assert (tmp_path / "pool.json").read_bytes() == (tmp_path / "one.json").read_bytes()

    @pytest.mark.parametrize("events, split", [(20001, [(10001, 7), (10000, 8)]), (1, [(1, 7)])])
    def test_events_split_over_the_seeds(self, tmp_path, monkeypatch, events, split):
        import qinet.cli as cli

        jobs = []
        replica = cli._replica
        monkeypatch.setattr(cli, "_replica", lambda job: (jobs.append(job[1:3]), replica(job))[1])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        main(["verify", write_config(tmp_path), "--events", str(events), "--seed", "7"])
        assert jobs == split

    def test_one_event_starts_no_pool(self, tmp_path, pools):
        assert main(["verify", write_config(tmp_path), "--events", "1"]) in (0, 2)
        assert pools == []


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [["solve", "{cfg}", "--method", "bogus"], ["verify", "{cfg}", "--seed", "abc"], ["solve"], [],
         ["simulate", "{cfg}", "--events", "many"], ["solve", "{cfg}", "--method", "iad"]],
        ids=["bad-method", "bad-seed", "missing-config", "no-command", "bad-events", "iad-method"],
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

        for name in ("simulate", "solve_theta_exact", "_solve"):
            monkeypatch.setattr(cli, name, no_work)
        target = tmp_path / "missing" / "x.json"
        assert main([command, write_config(tmp_path), "--json", str(target)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")

    @pytest.mark.parametrize("existing", [None, "old contents"])
    def test_failed_run_leaves_path_as_found(self, tmp_path, monkeypatch, existing):
        import qinet.cli as cli

        def boom(config, solver, note):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(cli, "_solve", boom)
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

    def test_non_ergodic_refused_in_one_line_before_solving(self, tmp_path, capsys, monkeypatch):
        import qinet.cli as cli

        monkeypatch.setattr(cli, "solve_theta_exact", no_work)
        path = write_config(tmp_path, **{"lambda": [2.0, 3.0]})
        assert main(["simulate", path]) == 1
        assert capsys.readouterr().err == (
            "error: simulation refused: configuration is not ergodic: "
            "location 1 UNSTABLE, lambda=2 vs tail rate 2; location 2 UNSTABLE, lambda=3 vs tail rate 2\n"
        )

    def test_reference_beyond_the_level_solver_cap(self, tmp_path, capsys):
        # (6,)^6: the reference is picked by solve's rule, so the iterative
        # solve answers where the level solver's cap refuses the box.
        path = write_config(tmp_path, J=6, **{"lambda": [0.7, 1.3, 0.9, 1.1, 0.8, 1.2]}, b=[6] * 6, nu=2.0,
                            mu=[{"head": [], "tail": 5.2}] * 6)
        assert method_inapplicable(load_config(path), "exact") is not None
        assert main(["simulate", path, "--events", "2000"]) == 0
        assert "merged (1 run(s))" in capsys.readouterr().out

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

    def test_json_pinned(self, tmp_path, capsys):
        # sha256 of a seeded run's --json file and stdout, recorded before
        # the state columns were written per box.
        path = write_config(tmp_path, b=[3, 2], **{"lambda": [1.3, 0.8]})
        out = tmp_path / "sim.json"
        argv = ["simulate", path, "--events", "20000", "--replications", "3", "--seed", "11", "--json", str(out)]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "695de8a7695c5639679ccc9126c6bafaf63059873261ab269ea1d6bfb59e35f3")
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "bd68c4c96a14d62abae96c5fb4d2950d26748dfecb8142809fe3730089b67cdf")


class TestSimulateWorkers:
    """Replications run on ``min(R, usable CPUs)`` forked processes, with seeds ``seed + r``."""

    def test_pool_writes_the_same_bytes_as_one_process(self, tmp_path, capsys, monkeypatch, pools):
        path = write_config(tmp_path, b=[3, 2], **{"lambda": [1.3, 0.8]})
        argv = ["simulate", path, "--events", "20000", "--replications", "4", "--seed", "11", "--json"]
        assert main([*argv, str(tmp_path / "pool.json")]) == 0
        pooled = capsys.readouterr().out
        assert pools == [4]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main([*argv, str(tmp_path / "one.json")]) == 0
        assert pools == [4]
        assert capsys.readouterr().out == pooled
        assert (tmp_path / "pool.json").read_bytes() == (tmp_path / "one.json").read_bytes()
        rows = json.loads((tmp_path / "pool.json").read_text())["replications"]
        assert [row["seed"] for row in rows] == [11, 12, 13, 14]

    def test_two_replications_take_two_workers(self, tmp_path, pools):
        assert main(["simulate", write_config(tmp_path), "--events", "2000", "--replications", "2"]) == 0
        assert pools == [2]

    def test_non_ergodic_refused_before_solving(self, tmp_path, capsys, monkeypatch, pools):
        import qinet.cli as cli

        for name in ("solve_theta_exact", "_solve"):
            monkeypatch.setattr(cli, name, no_work)
        path = write_config(tmp_path, **{"lambda": [2.0, 3.0]})
        assert main(["simulate", path, "--replications", "4"]) == 1
        assert capsys.readouterr().err == (
            "error: simulation refused: configuration is not ergodic: "
            "location 1 UNSTABLE, lambda=2 vs tail rate 2; location 2 UNSTABLE, lambda=3 vs tail rate 2\n"
        )
        assert pools == [4]

    def test_box_too_large_refused_before_any_run(self, tmp_path, capsys, pools):
        path = write_config(tmp_path, J=3, **{"lambda": [1.0] * 3}, mu=[{"head": [], "tail": 2.0}] * 3,
                            b=[300, 300, 300])
        assert main(["simulate", path, "--replications", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a level-by-level exact solve of 27270901 states needs")
        assert err.count("\n") == 1
        assert pools == []

    @pytest.mark.parametrize("option, message", [
        (["--events", "0"], "error: events must be >= 1, got 0\n"),
        (["--seed", "-5"], "error: seed must be >= 0, got -5\n"),
        (["--n-obs", "0"], "error: n_obs must be >= 1, got 0\n"),
    ])
    def test_bad_option_refused_before_any_run(self, tmp_path, capsys, pools, option, message):
        assert main(["simulate", write_config(tmp_path), "--replications", "4", *option]) == 1
        assert capsys.readouterr().err == message
        assert pools == []


@pytest.mark.parametrize("argv", [["solve", "--method", "exact"], ["verify", "--events", "20000"],
                                  ["simulate", "--events", "20000", "--replications", "2"]],
                         ids=["solve", "verify", "simulate"])
def test_json_report_is_one_line(tmp_path, monkeypatch, argv):
    # --json is compact: one line, ending in a newline, that parses to the
    # document the command built; floats keep their shortest repr.
    import qinet.cli as cli

    built = []
    write = cli._write_json

    def record(path, doc, b=None):
        # The document as written: a theta block's states are those of the box b.
        theta = {"theta": {**doc["theta"], "states": enumerate_inventory_states(b).tolist()}} if b else {}
        built.append({**doc, **theta})
        write(path, doc, b)

    monkeypatch.setattr(cli, "_write_json", record)
    path = write_config(tmp_path, b=[3, 2], **{"lambda": [1.3, 0.8]})
    out = tmp_path / "report.json"
    assert main([argv[0], path, *argv[1:], "--json", str(out)]) in (0, 2)
    text = out.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    assert json.loads(text) == built[0]
    if argv[0] == "solve":
        expected = solve_theta_exact(build_reduced_generator(load_config(path))).weights
        assert np.array(json.loads(text)["theta"]["weights"]).tobytes() == expected.tobytes()


@pytest.mark.parametrize("method, overrides", [
    ("exact", {"b": [3, 2]}),
    ("exact", {"J": 6, "b": [3] * 6, "lambda": [1.0] * 6, "mu": [{"head": [], "tail": 2.0}] * 6, "nu": 3.0}),
    ("recursive", {"b": [5, 4], "lambda": [1.3, 0.8]}),
], ids=["exact", "iterative", "recursive"])
def test_solve_report_writes_the_transition_arrays_once(tmp_path, monkeypatch, capsys, method, overrides):
    # The solve's gate reads both residuals of the report off the arrays it solved on.
    import qinet.exact as exact
    import qinet.generator as generator
    import qinet.recursive as recursive

    calls = []
    arrays = generator._transition_arrays
    for module in (generator, exact, recursive):
        monkeypatch.setattr(module, "_transition_arrays", lambda config: (calls.append(1), arrays(config))[1])
    assert main(["solve", write_config(tmp_path, **overrides), "--method", method, "--json",
                 str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr().out.startswith(f"method: {'iad' if 'J' in overrides else method}")
    assert len(calls) == 1


def per_state_report(theta):
    """The table, the ``--json`` theta block and the CSV measure rows, one ``%`` format per state."""
    states = enumerate_inventory_states(theta.b).tolist()
    weights = theta.weights.tolist()
    J = len(theta.b)
    row = "  ".join(["%2d"] * J) + "  %5d  %.12g"
    table = "\n".join(row % (*state, w) for state, w in zip(states, weights))
    block = json.dumps({"theta": {"states": states, "weights": weights, "normalized": True,
                                  "provenance": theta.provenance}}) + "\n"
    rows = io.StringIO()
    csv.writer(rows).writerows(state + [f"{w:.17g}"] for state, w in zip(states, weights))
    return table, block, rows.getvalue()


def first_difference(text, expected, sep):
    """``None``, or the first ``sep``-separated piece where ``text`` and ``expected`` differ.

    A failure names one row, where comparing the whole texts would diff megabytes.
    """
    for number, pieces in enumerate(itertools.zip_longest(text.split(sep), expected.split(sep))):
        if pieces[0] != pieces[1]:
            return number, *pieces
    return None


_SMALL_BOX = st.lists(st.integers(1, 12), min_size=2, max_size=6).filter(lambda b: np.prod(np.add(b, 1)) <= 5000)
# One location past %2d's width; the supplier column passes %5d's from sum(b) = 10^5 on.
_WIDE_BOX = st.tuples(st.integers(100, 400), st.lists(st.integers(1, 3), min_size=1, max_size=2)).map(
    lambda t: [t[0], *t[1]])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(b=st.one_of(_SMALL_BOX, _WIDE_BOX), seed=st.integers(0, 2**32 - 1))
@example(b=[99_999, 1], seed=0)
@example(b=[1, 99_999], seed=1)
def test_state_columns_match_the_per_state_formats(tmp_path_factory, b, seed):
    import qinet.cli as cli

    weights = np.random.default_rng(seed).random(np.prod(np.add(b, 1))) + 0.5
    theta = ThetaMeasure(grid=(weights / weights.sum()).reshape(np.add(b, 1)), provenance="exact")
    table, block, rows = per_state_report(theta)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._print_theta(theta)
    assert first_difference(out.getvalue().split("\n", 1)[1], table + "\n", "\n") is None
    path = tmp_path_factory.getbasetemp() / "columns"
    cli._write_json(str(path), {"theta": cli._theta_block(theta)}, theta.b)
    assert first_difference(path.read_text(), block, "], ") is None
    report = {"theta": cli._theta_block(theta), "inventory_marginals": [], "residual": 0.0,
              "componentwise_residual": 0.0}
    cli._write_solve_csv(str(path), report, theta.b)
    written = path.read_bytes().decode().split("\r\n", 1)[1]
    assert first_difference(written[:len(rows)], rows, "\r\n") is None


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    import qinet.cli as cli

    def boom(config, solver, note):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(cli, "_solve", boom)
    path = write_config(tmp_path)
    assert main(["solve", path]) == 3


@pytest.mark.parametrize(
    "argv", [["solve"], ["verify", "--events", "1000"]], ids=["solve", "verify"]
)
def test_closed_stdout_exits_1_silently(tmp_path, argv):
    # The reader of stdout is gone before the command prints: no traceback,
    # no "Exception ignored" line from the interpreter's flush at exit.
    path = write_config(tmp_path, b=[2, 2])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    read_end, write_end = os.pipe()
    child = subprocess.Popen([sys.executable, "-m", "qinet.cli", argv[0], path, *argv[1:]],
                             stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(read_end)
    os.close(write_end)
    err = child.communicate()[1]
    assert (child.returncode, err) == (1, b"")


def test_import_leaves_scipy_sparse_unloaded():
    # The generator is built from the config alone; no command needs a
    # sparse graph, so importing the CLI must not load scipy.sparse.
    code = "import sys, qinet.cli; print('scipy.sparse' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "False\n"


def test_import_loads_no_scipy_module():
    # The level solver binds scipy's LAPACK dgesv from its extension file;
    # importing the CLI must leave no module of the scipy package loaded.
    code = "import sys, qinet.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "[]\n"


def test_import_loads_no_process_pool():
    # Only a simulation with more than one worker imports them: at module
    # level they would add to the start of every command.
    code = ("import sys, qinet.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "[]\n"


# Near-schema config documents: each field mostly valid, else of a wrong
# type, missing, or at an edge (0, negative, NaN, 1e308, bool); base stocks
# tiny or far above every size cap, so each command answers in milliseconds.
# Wide networks (J from 4 to 40) have unit base stocks, so a wide box is
# either small or far above every cap, and rate lists valid entry by entry.
_ODD = st.sampled_from([0, -1, -0.5, float("nan"), float("inf"), 1e308, True, False, None, "2", [], {}])


def _mostly(good, odd=_ODD):
    """``good`` nine draws in ten, else ``odd``."""
    return st.integers(0, 9).flatmap(lambda i: odd if i == 9 else good)


_GOOD_RATE = st.sampled_from([0.5, 1.0, 1.3, 3.0])
_RATE = _mostly(_GOOD_RATE)
_STOCK = _mostly(st.one_of(st.integers(1, 3), st.integers(1, 3), st.sampled_from([2**31, 2**40, 2**63])))
_GOOD_MU = st.fixed_dictionaries({"head": st.lists(_GOOD_RATE, max_size=2), "tail": _GOOD_RATE})
_MU = _mostly(
    st.fixed_dictionaries({"head": st.lists(_RATE, max_size=2), "tail": _RATE}),
    st.one_of(_ODD, st.fixed_dictionaries({"head": st.lists(_RATE, max_size=1)}),
              st.fixed_dictionaries({"head": st.just([]), "tail": _RATE, "c": _RATE})),
)
_COMMANDS = st.one_of(
    st.sampled_from([["solve"], ["solve", "--method", "recursive"], ["solve", "--method", "closed"]]),
    st.tuples(st.sampled_from([1, 300, 2000, 0, -1]), st.sampled_from([0, 7])).map(
        lambda a: ["verify", "--events", str(a[0]), "--seed", str(a[1])]),
    st.tuples(st.sampled_from([1, 300, 2000, 0]), st.sampled_from([1, 2]), st.sampled_from([1, 8, 0])).map(
        lambda a: ["simulate", "--events", str(a[0]), "--replications", str(a[1]), "--n-obs", str(a[2])]),
)


_WIDE_J = st.sampled_from([4, 5, 28, 33, 40])


@st.composite
def _near_schema(draw):
    J = draw(_mostly(st.sampled_from([2, 3]) | _WIDE_J, st.sampled_from([1, 0, -1, True, 2.0, "2", None])))
    n = J if type(J) is int and J >= 0 else 2
    size = _mostly(st.just(n), st.sampled_from([n + 1, max(n - 1, 0)]))
    rate, mu, stock = (_RATE, _MU, _STOCK) if n <= 3 else (_GOOD_RATE, _GOOD_MU, st.just(1))
    doc = {
        "J": J,
        "lambda": draw(_mostly(size.flatmap(lambda k: st.lists(rate, min_size=k, max_size=k)))),
        "mu": draw(_mostly(size.flatmap(lambda k: st.lists(mu, min_size=k, max_size=k)))),
        "b": draw(_mostly(size.flatmap(lambda k: st.lists(stock, min_size=k, max_size=k)))),
        "nu": draw(_RATE),
    }
    if draw(st.integers(0, 3)) == 3:
        doc["beta"] = draw(_RATE)
    key = draw(_mostly(st.none(), st.sampled_from(["J", "lambda", "mu", "b", "nu", "gamma"])))
    if key == "gamma":
        doc[key] = 1.0
    elif key is not None:
        del doc[key]
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=_near_schema(), command=_COMMANDS)
def test_cli_fuzz_fails_with_one_error_line(tmp_path_factory, doc, command):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(path), *command[1:]])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (1, 3):
        last = err.getvalue().splitlines()[-1]
        assert re.match(r"(error: |numerical failure: |qinet( \w+)?: error: )", last), last
