"""End-to-end command-line tests (in-process via main)."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import hipllm
import hipllm.harness as harness
from hipllm.cli import EXIT_CONFIG, EXIT_OK, main
from hipllm.config import parse_config_dict
from hipllm.model import GridSpec, McSpec
from hipllm.numerics import beta_cdf

# Point prior box and single-node grid at (mu, nu) = (0.5, 2): the
# subdomain posterior is exactly Beta(C + 1, N - C + 1).
DEGENERATE = {
    "schema_version": 1,
    "hierarchy": {
        "domains": [
            {
                "subdomains": [{"correct": 7, "total": 10, "label": "only"}],
                "omega": [1.0],
                "box": {"a": [1, 1], "b": [1, 1], "c": [1, 1], "d": [0.5, 0.5]},
            }
        ],
        "weights": [1.0],
    },
    "grid": {"n_mu": 1, "n_nu": 1, "nu_min": 1.0, "nu_max": 4.0},
    "mc": {"samples_per_config": 400, "configs_per_domain": 4, "t_grid_size": 51},
    "query": {"horizons": [1, 5]},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_envelopes(out_dir):
    rows = {}
    with (Path(out_dir) / "envelopes.csv").open() as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    for rec in csv.DictReader(lines):
        key = (rec["level"], rec["entity"])
        rows.setdefault(key, []).append(
            (float(rec["t"]), float(rec["lower"]), float(rec["upper"]))
        )
    return rows


class TestInfer:
    def test_degenerate_matches_conjugate_cdf(self, tmp_path):
        cfg = write_config(tmp_path, DEGENERATE)
        out = tmp_path / "out"
        assert main(["infer", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows = read_envelopes(out)
        for t, lo, hi in rows[("subdomain", "only")]:
            exact = beta_cdf(t, 8.0, 4.0)
            assert lo == pytest.approx(exact, abs=1e-9)
            assert hi == pytest.approx(exact, abs=1e-9)

    def test_outputs_exist(self, tmp_path):
        cfg = write_config(tmp_path, DEGENERATE)
        out = tmp_path / "out"
        main(["infer", "--config", str(cfg), "--out", str(out), "--svg"])
        for name in ("envelopes.csv", "reliability.csv", "report.json", "envelopes.svg"):
            assert (out / name).exists()

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, DEGENERATE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["infer", "--config", str(cfg), "--out", str(out1)])
        main(["infer", "--config", str(cfg), "--out", str(out2)])
        for name in ("envelopes.csv", "reliability.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_samples(self, tmp_path):
        cfg = write_config(tmp_path, DEGENERATE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["infer", "--config", str(cfg), "--out", str(out1), "--seed", "1"])
        main(["infer", "--config", str(cfg), "--out", str(out2), "--seed", "2"])
        a = read_envelopes(out1)[("system", "system")]
        b = read_envelopes(out2)[("system", "system")]
        assert a != b

    def test_svg_is_well_formed_xml(self, tmp_path):
        cfg = write_config(tmp_path, DEGENERATE)
        out = tmp_path / "out"
        main(["infer", "--config", str(cfg), "--out", str(out), "--svg"])
        root = ET.parse(out / "envelopes.svg").getroot()
        assert root.tag.endswith("svg")
        assert any(child.tag.endswith("polygon") for child in root.iter())

    def run_with_label(self, tmp_path, label):
        doc = json.loads(json.dumps(DEGENERATE))
        doc["hierarchy"]["domains"][0]["subdomains"][0]["label"] = label
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["infer", "--config", str(cfg), "--out", str(out), "--svg"]) == EXIT_OK
        return out

    def test_svg_escapes_labels(self, tmp_path):
        out = self.run_with_label(tmp_path, "Q&A <hard>")
        root = ET.parse(out / "envelopes.svg").getroot()
        assert "subdomain:Q&A <hard>" in [el.text for el in root.iter() if el.tag.endswith("text")]

    def test_csv_quotes_labels(self, tmp_path):
        out = self.run_with_label(tmp_path, "code, python")
        for name, rows_per_entity in (("envelopes.csv", 51), ("reliability.csv", 2)):
            with (out / name).open(newline="") as fh:
                rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
            assert all(len(row) == 5 for row in rows)
            assert sum(row[:2] == ["subdomain", "code, python"] for row in rows) == rows_per_entity

    def test_outputs_ignore_locale(self, tmp_path):
        label = "数学 – Ü"
        doc = json.loads(json.dumps(DEGENERATE))
        doc["hierarchy"]["domains"][0]["subdomains"][0]["label"] = label
        cfg, out = tmp_path / "config.json", tmp_path / "out"
        cfg.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        env = {
            **os.environ,
            "LC_ALL": "C",
            "PYTHONUTF8": "0",
            "PYTHONCOERCECLOCALE": "0",
            "PYTHONPATH": str(Path(hipllm.__file__).resolve().parents[1]),
        }
        argv = ["infer", "--config", str(cfg), "--out", str(out), "--svg"]
        proc = subprocess.run(
            [sys.executable, "-m", "hipllm.cli", *argv], env=env, capture_output=True
        )
        assert proc.returncode == EXIT_OK, proc.stderr.decode("utf-8", "replace")
        for name in ("envelopes.csv", "reliability.csv", "envelopes.svg"):
            assert label in (out / name).read_text(encoding="utf-8")

    def test_entity_order_same_in_every_output(self, tmp_path):
        doc = json.loads(json.dumps(DEGENERATE))
        dom = doc["hierarchy"]["domains"][0]
        dom["subdomains"] = [{"correct": 7, "total": 10}, {"correct": 3, "total": 9}]
        dom["omega"] = [0.5, 0.5]
        second = {**dom, "subdomains": [{"correct": 5, "total": 8}], "omega": [1.0]}
        doc["hierarchy"] = {"domains": [dom, second], "weights": [0.5, 0.5]}
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["infer", "--config", str(cfg), "--out", str(out), "--svg"]) == EXIT_OK
        expected = [
            ("subdomain", "domain1.sub1"),
            ("subdomain", "domain1.sub2"),
            ("subdomain", "domain2.sub1"),
            ("domain", "domain1"),
            ("domain", "domain2"),
            ("system", "system"),
        ]
        for name in ("envelopes.csv", "reliability.csv"):
            with (out / name).open(newline="") as fh:
                rows = csv.reader(ln for ln in fh if not ln.startswith("#"))
                next(rows)
                assert list(dict.fromkeys(tuple(row[:2]) for row in rows)) == expected
        report = json.loads((out / "report.json").read_text())
        for field in ("envelopes", "reliability"):
            assert [(e["level"], e["entity"]) for e in report[field]] == expected
        root = ET.parse(out / "envelopes.svg").getroot()
        legend = [el.text for el in root.iter() if el.tag.endswith("text") and ":" in el.text]
        assert legend == [f"{level}:{entity}" for level, entity in expected]

    def test_report_json_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, DEGENERATE)
        out = tmp_path / "out"
        main(["infer", "--config", str(cfg), "--out", str(out)])
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["hierarchy"] == DEGENERATE["hierarchy"]
        # the echo is the resolved config: defaults filled, same run on re-parse
        assert doc["config"]["grid"] == DEGENERATE["grid"]
        assert doc["config"]["mc"] == {**dataclasses.asdict(McSpec()), **DEGENERATE["mc"]}
        assert doc["config"]["output"] == {"csv": True, "json": True, "svg": False}
        assert parse_config_dict(doc["config"]) == parse_config_dict(DEGENERATE)
        assert len(doc["t"]) == 51
        levels = {(e["level"], e["entity"]) for e in doc["envelopes"]}
        assert ("system", "system") in levels
        rel = {(e["level"], e["entity"]): e for e in doc["reliability"]}
        assert rel[("system", "system")]["horizons"] == [1, 5]

    def test_echo_reproduces_run(self, tmp_path):
        # omega sums to 1.000001: it is renormalized once, and the echo holds
        # the weights the engine ran on, so a run from the echo is the same run
        doc = json.loads(json.dumps(DEGENERATE))
        doc["hierarchy"]["domains"][0]["subdomains"] = [
            {"correct": k, "total": 10, "label": f"s{k}"} for k in (7, 3, 9, 5)
        ]
        doc["hierarchy"]["domains"][0]["omega"] = [0.589001, 0.166174, 0.173862, 0.070964]
        first, second = tmp_path / "first", tmp_path / "second"
        cfg = write_config(tmp_path, doc)
        assert main(["infer", "--config", str(cfg), "--out", str(first)]) == EXIT_OK
        echo_doc = json.loads((first / "report.json").read_text())["config"]
        echo = write_config(tmp_path, echo_doc, "echo.json")
        assert main(["infer", "--config", str(echo), "--out", str(second)]) == EXIT_OK
        for name in ("report.json", "envelopes.csv", "reliability.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_seed_override_echoed(self, tmp_path):
        cfg = write_config(tmp_path, DEGENERATE)
        out = tmp_path / "out"
        assert main(["infer", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["master_seed"] == 5
        assert doc["config"]["mc"]["master_seed"] == 5

    @pytest.mark.parametrize(
        "path,value",
        [
            (("hierarchy", "domains", 0, "subdomains", 0, "correct"), "abc"),
            (("hierarchy", "domains", 0, "subdomains", 0, "correct"), 1.7),
            (("hierarchy", "domains", 0, "omega"), 5),
            (("hierarchy", "weights"), "ab"),
            (("mc", "samples_per_config"), "x"),
            (("query", "horizons"), 7),
            (("query", "horizons"), [1, 2**53 + 1]),
            (("query", "horizons"), [1, 10**400]),
        ],
        ids=[
            "correct-str", "correct-fraction", "omega-int", "weights-str", "samples-str",
            "horizons-int", "horizon-2**53+1", "horizon-10**400",
        ],
    )
    def test_wrong_typed_value_exit_code(self, tmp_path, path, value):
        doc = json.loads(json.dumps(DEGENERATE))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg = write_config(tmp_path, doc)
        assert main(["infer", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_count_beyond_float_range_exit_code(self, tmp_path):
        doc = json.loads(json.dumps(DEGENERATE))
        doc["hierarchy"]["domains"][0]["subdomains"][0].update(correct=10**30 - 1, total=10**30)
        cfg = write_config(tmp_path, doc)
        assert main(["infer", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_repeated_label_exit_code(self, tmp_path, capsys):
        doc = json.loads(json.dumps(DEGENERATE))
        doc["hierarchy"]["domains"] *= 2
        doc["hierarchy"]["weights"] = [0.5, 0.5]
        cfg = write_config(tmp_path, doc)
        assert main(["infer", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "system.domains[1].subdomains[0].label" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"schema_version": 1})
        assert main(["infer", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_invalid_json_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["infer", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


class TestReliability:
    def test_horizon_override(self, tmp_path):
        cfg = write_config(tmp_path, DEGENERATE)
        out = tmp_path / "out"
        code = main(
            ["reliability", "--config", str(cfg), "--out", str(out), "--horizons", "1,3,9"]
        )
        assert code == EXIT_OK
        with (out / "reliability.csv").open() as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
        horizons = {
            int(rec["n_F"]) for rec in csv.DictReader(lines) if rec["level"] == "system"
        }
        assert horizons == {1, 3, 9}


class TestSweeps:
    def two_subdomain_config(self):
        doc = json.loads(json.dumps(DEGENERATE))
        doc["hierarchy"]["domains"][0]["subdomains"] = [
            {"correct": 9, "total": 10, "label": "strong"},
            {"correct": 2, "total": 10, "label": "weak"},
        ]
        doc["hierarchy"]["domains"][0]["omega"] = [0.5, 0.5]
        return doc

    def test_sweep_op_weight_shift(self, tmp_path):
        # shifting operational weight onto the weaker subdomain must lower
        # the expected one-step reliability of the domain
        cfg = write_config(tmp_path, self.two_subdomain_config())
        weights = tmp_path / "w.json"
        weights.write_text(
            json.dumps([{"omegas": [[0.9, 0.1]]}, {"omegas": [[0.5, 0.5]]}, {"omegas": [[0.1, 0.9]]}])
        )
        out = tmp_path / "out"
        code = main(
            ["sweep-op", "--config", str(cfg), "--out", str(out), "--weights", str(weights)]
        )
        assert code == EXIT_OK
        means = []
        for idx in range(3):
            doc = json.loads((out / f"op{idx:02d}" / "report.json").read_text())
            rel = {(e["level"], e["entity"]): e for e in doc["reliability"]}
            curve = rel[("domain", "domain1")]
            means.append(
                (curve["expected_lower"][0] + curve["expected_upper"][0]) / 2
            )
        assert means[0] > means[1] > means[2]

    def test_sweep_hyper_outputs(self, tmp_path):
        # needs a non-trivial grid so different priors reweight the cells
        doc = json.loads(json.dumps(DEGENERATE))
        doc["grid"] = {"n_mu": 6, "n_nu": 5, "nu_min": 0.5, "nu_max": 8.0}
        cfg = write_config(tmp_path, doc)
        boxes = tmp_path / "boxes.json"
        boxes.write_text(
            json.dumps(
                [
                    {"a": [1, 1], "b": [1, 1], "c": [1, 1], "d": [0.5, 0.5]},
                    {"a": [2, 2], "b": [1, 1], "c": [1, 1], "d": [0.5, 0.5]},
                ]
            )
        )
        out = tmp_path / "out"
        code = main(
            ["sweep-hyper", "--config", str(cfg), "--out", str(out), "--boxes", str(boxes)]
        )
        assert code == EXIT_OK
        assert (out / "box00" / "envelopes.csv").exists()
        assert (out / "box01" / "envelopes.csv").exists()
        assert (
            (out / "box00" / "envelopes.csv").read_bytes()
            != (out / "box01" / "envelopes.csv").read_bytes()
        )


    def test_sweep_hyper_malformed_box_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, DEGENERATE)
        boxes = tmp_path / "boxes.json"
        boxes.write_text(json.dumps([{"a": "xy", "b": [1, 1], "c": [1, 1], "d": [1, 1]}]))
        code = main(
            ["sweep-hyper", "--config", str(cfg), "--out", str(tmp_path / "o"), "--boxes", str(boxes)]
        )
        assert code == EXIT_CONFIG

    def test_sweep_op_malformed_omegas_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, DEGENERATE)
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps([{"omegas": 3}]))
        code = main(
            ["sweep-op", "--config", str(cfg), "--out", str(tmp_path / "o"), "--weights", str(weights)]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, option", [("sweep-hyper", "--boxes"), ("sweep-op", "--weights")]
    )
    def test_sweep_file_invalid_json_names_file(self, tmp_path, capsys, command, option):
        cfg = write_config(tmp_path, DEGENERATE)
        broken = tmp_path / "broken.json"
        broken.write_text('[{"a": [1, 1],\n  oops}]')
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), option, str(broken)])
        assert code == EXIT_CONFIG
        assert f"{broken}: JSON parse error at line 2, column 3" in capsys.readouterr().err

    BOX = {"a": [1, 1], "b": [1, 1], "c": [1, 1], "d": [0.5, 0.5]}

    @pytest.mark.parametrize(
        "command, option, entries, message",
        [
            ("sweep-hyper", "--boxes", [BOX, {**BOX, "a": [3, 2]}], "interval min 3.0 exceeds max 2.0"),
            ("sweep-hyper", "--boxes", [None], "expected an object"),
            ("sweep-hyper", "--boxes", [BOX, {**BOX, "e": [1, 2]}], "unknown keys ['e']"),
            ("sweep-op", "--weights", [{"weights": [1.0]}, {"weights": [0.5]}], "weights sum to 0.5"),
            ("sweep-op", "--weights", [{}, {"omegas": [[1.0], [1.0]]}], "need one vector per domain"),
            ("sweep-op", "--weights", [{}, {"omegas": [["x"]]}], "omega[0]: expected a finite number"),
        ],
        ids=["box-reversed", "box-null", "box-unknown-key", "weights-sum", "omegas-count", "omega-type"],
    )
    def test_bad_last_entry_exits_before_any_run(
        self, tmp_path, capsys, command, option, entries, message
    ):
        cfg = write_config(tmp_path, DEGENERATE)
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(entries))
        out = tmp_path / "out"
        code = main([command, "--config", str(cfg), "--out", str(out), option, str(sweep)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{sweep}[{len(entries) - 1}]" in err and message in err
        assert not out.exists()


class TestBaselineCommand:
    def test_worked_example_json(self, tmp_path, capsys):
        code = main(
            [
                "baseline", "--prior-alpha", "2", "--prior-beta", "2",
                "--correct", "3", "--total", "10",
                "--horizons", "1,2",
                "--alpha-range", "1,3", "--beta-range", "1,3",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["posterior"] == {"alpha": 5.0, "beta": 9.0}
        assert doc["posterior_mean"] == pytest.approx(5 / 14)
        assert doc["future_reliability"]["1"] == pytest.approx(5 / 14)
        assert doc["future_reliability"]["2"] == pytest.approx(5 * 6 / (14 * 15))
        assert doc["mean_envelope"] == [pytest.approx(4 / 14), pytest.approx(6 / 14)]
        assert json.loads((tmp_path / "baseline.json").read_text()) == doc


class TestSynthCommand:
    def test_smoke(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "default_grid", lambda: GridSpec(n_mu=12, n_nu=10))
        out = tmp_path / "synth"
        code = main(
            [
                "synth", "--out", str(out), "--seed", "1",
                "--small", "30,50,40,20", "--large", "100,200,150,80",
                "--configs", "8", "--samples", "200",
            ]
        )
        assert code == EXIT_OK
        doc = json.loads((out / "synth_comparison.json").read_text())
        assert doc["p_system_gt"] == pytest.approx(0.586)
        assert len(doc["rows"]) == 18  # 2 regimes x 3 scenarios x 3 methods
        with (out / "synth_comparison.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 18
        assert {r["method"] for r in rows} == {"bb-uninf", "bb-inf", "hip-llm"}
        assert b"\r\n" not in (out / "synth_comparison.csv").read_bytes()


class TestBenchCommand:
    def test_smoke(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "default_grid", lambda: GridSpec(n_mu=10, n_nu=8))
        monkeypatch.setattr(
            harness,
            "default_mc",
            lambda: McSpec(samples_per_config=100, configs_per_domain=4, t_grid_size=41),
        )
        out = tmp_path / "bench"
        code = main(["bench", "--param", "K", "--values", "2,4,8", "--out", str(out)])
        assert code == EXIT_OK
        fit = json.loads((out / "scaling_K_fit.json").read_text())
        assert fit["parameter"] == "K"
        assert np.isfinite(fit["exponent"])
        with (out / "scaling_K.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["value"]) for r in rows] == [2.0, 4.0, 8.0]
        assert b"\r\n" not in (out / "scaling_K.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["reliability", "--config", "CFG", "--out", "OUT", "--horizons", "1,x"],
        ["bench", "--param", "G", "--values", "0", "--out", "OUT"],
        ["bench", "--param", "G", "--values", "500,1000", "--out", "OUT"],
        ["synth", "--out", "OUT", "--small", "1,2"],
        ["synth", "--out", "OUT", "--small", "0,0,0,5"],
        ["synth", "--out", "OUT", "--small", "0,0,0,0"],
        ["synth", "--out", "OUT", "--noise", "1.5"],
        ["synth", "--out", "OUT", "--configs", "0"],
        ["baseline", "--correct", "11", "--total", "10"],
        ["baseline", "--correct", "3", "--total", "10", "--horizons", "x"],
        ["baseline", "--correct", "3", "--total", "10", "--horizons", "-1"],
        ["baseline", "--correct", "3", "--total", "10", "--alpha-range", "1,x", "--beta-range", "1,2"],
        ["baseline", "--correct", "3", "--total", "10", "--alpha-range", "2,1", "--beta-range", "1,2"],
        ["baseline", "--correct", "3", "--total", "10", "--alpha-range", "1,3"],
        ["baseline", "--correct", "3", "--total", "10", "--prior-alpha", "-1"],
        ["baseline", "--correct", "3", "--total", "10", "--prior-beta", "nan"],
        ["infer", "--config", "CFG", "--out", "OUT", "--threads", "0"],
        ["infer", "--config", "CFG", "--out", "OUT", "--threads", "-3"],
        ["infer", "--config", "CFG", "--out", "OUT", "--seed", "-1"],
        ["infer", "--config", "CFG", "--out", "OUT", "--seed", "18446744073709551616"],
        ["synth", "--out", "OUT", "--seed", "-1"],
        ["reliability", "--config", "CFG", "--out", "OUT", "--horizons", f"1,{10**400}"],
        ["reliability", "--config", "CFG", "--out", "OUT", "--horizons", f"1,{2**53 + 1}"],
        ["baseline", "--correct", "3", "--total", "10", "--horizons", f"1,{10**400}"],
        ["baseline", "--correct", "3", "--total", f"{10**400}"],
        ["baseline", "--correct", "3", "--total", f"{2**60}"],
        ["infer", "--config", "BIN", "--out", "OUT"],
        ["sweep-hyper", "--config", "CFG", "--out", "OUT", "--boxes", "BIN"],
    ],
    ids=[
        "reliability-horizons", "bench-zero", "bench-two-values", "synth-sizes",
        "synth-empty-domain", "synth-all-empty",
        "synth-noise", "synth-zero-configs", "baseline-counts", "baseline-horizons",
        "baseline-negative-horizon", "baseline-alpha-range", "baseline-reversed-range",
        "baseline-lone-range", "baseline-prior-alpha", "baseline-prior-beta",
        "infer-zero-threads", "infer-negative-threads", "infer-negative-seed",
        "infer-seed-beyond-64-bits", "synth-negative-seed", "reliability-horizon-10**400",
        "reliability-horizon-2**53+1", "baseline-horizon-10**400", "baseline-total-10**400",
        "baseline-total-2**60", "infer-config-not-utf8", "sweep-hyper-boxes-not-utf8",
    ],
)
def test_malformed_command_line_value_exit_code(tmp_path, argv):
    cfg = write_config(tmp_path, DEGENERATE)
    binary = tmp_path / "bin.json"
    binary.write_bytes(b"\xff\xfe{")
    argv = [{"CFG": str(cfg), "OUT": str(tmp_path / "o"), "BIN": str(binary)}.get(a, a) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a value before main's handlers
        code = exc.code
    assert code == EXIT_CONFIG
