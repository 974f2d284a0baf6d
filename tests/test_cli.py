"""End-to-end command-line tests (in-process via main)."""

import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
import xml.dom.minidom
import xml.etree.ElementTree as ET
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hipllm
import hipllm.harness as harness
from hipllm.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from hipllm.config import parse_config_dict
from hipllm.model import ConfigError, GridSpec, McSpec, ValidationError
from hipllm.numerics import NumericalError, beta_cdf

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


def _refuse_constant(name):
    """json.loads' parse_constant: NaN and Infinity are not JSON."""
    raise ValueError(f"{name} is not a JSON number")


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

    def test_sup_width_bound_contains_fine_grid_width(self, tmp_path):
        # the bound read on 11 points holds the band's width on 2,001: the
        # bounds do not fall, so between t_k and t_(k+1) the band is at most
        # upper(t_(k+1)) - lower(t_k) wide (the quadrature's 1e-12 error per
        # row aside, which moves with T)
        doc = json.loads(json.dumps(DEGENERATE))
        doc["hierarchy"]["domains"] = [
            {"label": "a", "subdomains": [{"correct": 7, "total": 10}, {"correct": 30, "total": 40}], "omega": [0.3, 0.7]},
            {"label": "b", "subdomains": [{"correct": 12, "total": 30}], "omega": [1.0]},
        ]
        doc["hierarchy"]["weights"] = [0.6, 0.4]
        doc["grid"] = {"n_mu": 8, "n_nu": 6}
        widths = {}
        for n_t in (11, 2001):
            doc["mc"] = {"samples_per_config": 300, "configs_per_domain": 4, "t_grid_size": n_t}
            out = tmp_path / f"t{n_t}"
            assert main(["infer", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == EXIT_OK
            for e in json.loads((out / "report.json").read_text())["envelopes"]:
                width = max(u - lo for lo, u in zip(e["lower"], e["upper"]))
                widths.setdefault((e["level"], e["entity"]), []).append((width, e["sup_width_bound"]))
        assert len(widths) == 6
        for (coarse, bound), (fine, _) in widths.values():
            assert coarse - 2e-12 <= fine <= bound + 2e-12

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
            (("hierarchy", "domains"), []),
            (("hierarchy", "domains", 0, "subdomains"), []),
            (("mc", "samples_per_config"), 10**14),
            (("mc", "configs_per_domain"), 10**23),
            (("mc", "samples_per_config"), 2**53 + 1),
        ],
        ids=[
            "correct-str", "correct-fraction", "omega-int", "weights-str", "samples-str",
            "horizons-int", "horizon-2**53+1", "horizon-10**400", "domains-empty",
            "subdomains-empty", "samples-10**14-out-of-memory", "configs-10**23",
            "samples-2**53+1",
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

    @pytest.mark.parametrize(
        "path",
        ["grid.n_mu", "grid.n_nu", "mc.samples_per_config", "mc.configs_per_domain", "mc.pairing_cap", "mc.t_grid_size"],
    )
    def test_size_beyond_2_53_exit_code(self, tmp_path, capsys, path):
        section, name = path.split(".")
        doc = json.loads(json.dumps(DEGENERATE))
        doc[section][name] = 10**20
        cfg = write_config(tmp_path, doc)
        assert main(["infer", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert path in capsys.readouterr().err

    def test_grid_out_of_memory_names_grid_sizes(self, tmp_path, capsys):
        doc = json.loads(json.dumps(DEGENERATE))
        doc["grid"]["n_nu"] = 10**13  # 73 TiB of nodes: numpy refuses at once
        cfg = write_config(tmp_path, doc)
        assert main(["infer", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "n_nu" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "nu_min,nu_max",
        [(1.0, 1.0000000000000002), (1e-5, 1e308), (1e-310, 1e-300)],
        ids=["zero-width-cells", "nodes-overflow", "nodes-underflow"],
    )
    def test_unbuildable_nu_grid_exit_code(self, tmp_path, capsys, nu_min, nu_max):
        # each range passes 0 < nu_min < nu_max, but its nu cells get a zero
        # width or a node of 0 or inf; tier-1's RuntimeWarning-as-error
        # filter also holds the refusal to warn on the way
        doc = json.loads(json.dumps(DEGENERATE))
        doc["grid"] = {"n_mu": 2, "n_nu": 3, "nu_min": nu_min, "nu_max": nu_max}
        cfg = write_config(tmp_path, doc)
        assert main(["infer", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "configuration error: invalid specification: grid: nu range" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "level, label, svg",
        [("domain", "a\ud800b", False), ("subdomain", "a\u0000b", True), ("subdomain", "a\rb", False)],
        ids=["surrogate", "nul-with-svg", "carriage-return"],
    )
    def test_unwritable_label_exit_code(self, tmp_path, capsys, level, label, svg):
        # the surrogate ran the whole inference, then emit_csv raised
        # UnicodeEncodeError and left a partial envelopes.csv; the NUL wrote,
        # with exit 0, an SVG that is not XML; csv.writer left the lone CR
        # unquoted, so the CSV read it back as a line end
        doc = json.loads(json.dumps(DEGENERATE))
        domain = doc["hierarchy"]["domains"][0]
        (domain if level == "domain" else domain["subdomains"][0])["label"] = label
        doc["output"] = {"csv": True, "json": True, "svg": svg}
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["infer", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        path = "system.domains[0]" + (".subdomains[0]" if level == "subdomain" else "")
        assert f"{path}.label: U+{ord(label[1]):04X} at index 1 cannot be written" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path):
        # Beta(1e308, 1e308) priors overflow every grid log-weight to nan.
        # The command runs in its own process, as a user runs it, so that
        # tier-1's RuntimeWarning-as-error filter cannot turn a floating-point
        # warning on the way into a traceback.
        doc = json.loads(json.dumps(DEGENERATE))
        doc["hierarchy"]["domains"][0]["box"].update(a=[1e308, 1e308], b=[1e308, 1e308])
        cfg = write_config(tmp_path, doc)
        env = {**os.environ, "PYTHONPATH": str(Path(hipllm.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "hipllm.cli", "infer", "--config", str(cfg), "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_NUMERICAL, proc.stderr
        assert "numerical failure: all grid log-weights non-finite (max=nan)" in proc.stderr
        assert "at config (a, b, c, d) = (1e+308, 1e+308, 1.0, 0.5)" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_out_below_regular_file_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DEGENERATE)
        (tmp_path / "file").write_text("")
        assert main(["infer", "--config", str(cfg), "--out", str(tmp_path / "file" / "o")]) == EXIT_IO
        assert capsys.readouterr().err.startswith("I/O error: ")

    def test_integral_floats_read_as_integers(self, tmp_path):
        doc = json.loads(json.dumps(DEGENERATE))
        doc["hierarchy"]["domains"][0]["subdomains"][0].update(correct=7.0, total=257.0)
        doc["mc"]["samples_per_config"] = 100.0
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["infer", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        text = (out / "report.json").read_text()
        echo = json.loads(text)["config"]
        sub = echo["hierarchy"]["domains"][0]["subdomains"][0]
        for value, expected in ((sub["correct"], 7), (sub["total"], 257), (echo["mc"]["samples_per_config"], 100)):
            assert type(value) is int and value == expected
        assert '"total": 257' in text and "257.0" not in text

    @pytest.mark.parametrize(
        "path,value,field",
        [
            (("hierarchy", "domains", 0, "subdomains", 0, "label"), 5, "config.hierarchy.domains[0].subdomains[0].label"),
            (("output", "svg"), "yes", "config.output.svg"),
            (("hierarchy", "domains", 0, "box", "a"), [0, 1], "box.a_range"),
            (("hierarchy", "domains", 0, "box", "b"), [-1, 1], "box.b_range"),
        ],
        ids=["label-int", "flag-str", "box-zero", "box-negative"],
    )
    def test_invalid_value_names_its_field(self, tmp_path, capsys, path, value, field):
        doc = {**json.loads(json.dumps(DEGENERATE)), "output": {}}
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg = write_config(tmp_path, doc)
        assert main(["infer", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert field in capsys.readouterr().err

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

    def test_zero_horizon_names_its_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DEGENERATE)
        argv = ["reliability", "--config", str(cfg), "--out", str(tmp_path / "o"), "--horizons", "0,5"]
        assert main(argv) == EXIT_CONFIG
        assert "query.horizons" in capsys.readouterr().err


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

    @staticmethod
    def run(capsys, *argv):
        """`hipllm baseline` with argv: its exit code, its printed JSON, which
        may hold no NaN or Infinity, and its stderr."""
        code = main(["baseline", *argv])
        out, err = capsys.readouterr()
        return code, json.loads(out or "null", parse_constant=_refuse_constant), err

    @staticmethod
    def exact_reliability(a, b, n):
        """B(a + n, b) / B(a, b) for exact a and b, at enough digits that
        ln Gamma near 1e308 keeps about 40 after the point."""
        with mpmath.workdps(360):
            lg = mpmath.loggamma
            return mpmath.exp(lg(a + n) - lg(a) - lg(a + b + n) + lg(a + b))

    def check_against_mpmath(self, doc, correct, total, prior_alpha, prior_beta):
        # every probability within 1e-12 relative (or 1e-300) of its exact
        # value, in [0, 1] and nonincreasing in the horizon
        a, b = mpmath.mpf(prior_alpha) + correct, mpmath.mpf(prior_beta) + (total - correct)
        exact = {"mean": a / (a + b)}
        exact.update((int(n), self.exact_reliability(a, b, int(n))) for n in doc["future_reliability"])
        got = {"mean": doc["posterior_mean"], **{int(n): v for n, v in doc["future_reliability"].items()}}
        for key, value in got.items():
            assert 0.0 <= value <= 1.0
            assert abs(value - exact[key]) <= 1e-12 * exact[key] + 1e-300, key
        horizons = sorted(k for k in got if k != "mean")
        assert all(got[m] >= got[n] for m, n in zip(horizons, horizons[1:]))

    def test_counts_at_2_53(self, capsys):
        # 1.0 + 2**53 rounded to 2**53 before 2**53 correct were taken off,
        # which left beta 0 and a ValueError traceback
        code, doc, _ = self.run(capsys, "--correct", f"{2**53}", "--total", f"{2**53}")
        assert code == EXIT_OK
        assert doc["posterior"] == {"alpha": 2.0**53, "beta": 1.0}
        self.check_against_mpmath(doc, 2**53, 2**53, 1.0, 1.0)

    def test_prior_at_1e308(self, capsys):
        # alpha + beta overflowed: the mean read 0.0 and n_F = 100,000 NaN
        argv = ["--correct", "5", "--total", "10", "--prior-alpha", "1e308", "--prior-beta", "1e308"]
        code, doc, _ = self.run(capsys, *argv, "--horizons", "1,100000")
        assert code == EXIT_OK
        assert doc["posterior_mean"] == 0.5
        self.check_against_mpmath(doc, 5, 10, 1e308, 1e308)

    def test_log_beta_difference_at_1e300(self, capsys):
        # ln B(alpha + n_F, beta) - ln B(alpha, beta) cancelled to 0, so
        # E[theta^10001] read 1.0 beside E[theta] = 0.5
        argv = ["--correct", "5", "--total", "10", "--prior-alpha", "1e300", "--prior-beta", "1e300"]
        code, doc, _ = self.run(capsys, *argv, "--horizons", "1,10001")
        assert code == EXIT_OK
        assert doc["future_reliability"] == {"1": 0.5, "10001": 0.0}
        self.check_against_mpmath(doc, 5, 10, 1e300, 1e300)

    def test_mean_envelope_past_the_float_range(self, capsys):
        # alpha + beta + N overflowed, so both bounds read 0.0
        ranges = ["--alpha-range", "1e308,1.7e308", "--beta-range", "1e308,1.7e308"]
        code, doc, _ = self.run(capsys, "--correct", "5", "--total", "10", *ranges)
        assert code == EXIT_OK
        corners = [
            (mpmath.mpf(a) + 5) / (mpmath.mpf(a) + mpmath.mpf(b) + 10)
            for a in (1e308, 1.7e308) for b in (1e308, 1.7e308)
        ]
        for got, exact in zip(doc["mean_envelope"], (min(corners), max(corners))):
            assert abs(got - exact) <= 1e-15 * exact

    def test_unresolvable_reliability_refused(self, capsys):
        # Beta(1e11, 1e7) at n_F = 100,000: the log of E is about -9, made
        # of terms near 1e7 that cancel, so it may round by 1.8e-8
        argv = ["--correct", "0", "--total", "0", "--prior-alpha", "1e11", "--prior-beta", "1e7"]
        code, doc, err = self.run(capsys, *argv, "--horizons", "1,100000")
        assert code == EXIT_NUMERICAL and doc is None
        assert "E[theta^100000] under Beta(100000000000.0, 10000000.0): its log rounds by up to" in err


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
        ["synth", "--out", "OUT", "--configs", f"{10**23}"],
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
        "synth-noise", "synth-zero-configs", "synth-configs-10**23", "baseline-counts", "baseline-horizons",
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


_DEEP = "[" * 100_000 + "]" * 100_000
_MC = '"mc": {"samples_per_config": 400, "configs_per_domain": 4, "t_grid_size": 51}'


@pytest.mark.parametrize(
    "command, option, text, message",
    [
        ("infer", "--config", json.dumps(DEGENERATE).replace('"total": 10', '"total": 10, "correct": 2'),
         "key 'correct' given twice in one object"),
        ("infer", "--config", json.dumps(DEGENERATE).replace(_MC, _MC + ", " + _MC.replace("400", "4000")),
         "key 'mc' given twice in one object"),
        ("sweep-hyper", "--boxes", '[{"a": [1, 2], "b": [1, 1], "c": [1, 1], "d": [1, 1], "a": [3, 4]}]',
         "key 'a' given twice in one object"),
        ("sweep-op", "--weights", '[{"weights": [0.5], "weights": [1.0]}]', "key 'weights' given twice in one object"),
        ("infer", "--config", _DEEP, "JSON nested too deeply to parse"),
        ("sweep-hyper", "--boxes", _DEEP, "JSON nested too deeply to parse"),
        ("sweep-op", "--weights", _DEEP, "JSON nested too deeply to parse"),
    ],
    ids=["config-key-twice", "config-object-twice", "boxes-key-twice", "weights-key-twice",
         "config-too-deep", "boxes-too-deep", "weights-too-deep"],
)
def test_json_the_parser_would_misread_exit_code(tmp_path, capsys, command, option, text, message):
    # json.loads keeps a repeated key's last value and overflows the stack
    # on deep nesting; both are configuration errors naming the file
    path = tmp_path / "input.json"
    path.write_text(text)
    cfg = path if option == "--config" else write_config(tmp_path, DEGENERATE)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if option != "--config":
        argv += [option, str(path)]
    assert main(argv) == EXIT_CONFIG
    assert f"{path}: {message}" in capsys.readouterr().err
    assert not out.exists()


_LONG = "1" * 5000


@pytest.mark.parametrize(
    "command, option, text",
    [
        ("infer", "--config", json.dumps(DEGENERATE).replace('"correct": 7', f'"correct": {_LONG}')),
        ("sweep-hyper", "--boxes", f"[{_LONG}]"),
        ("sweep-op", "--weights", f'[{{"weights": [{_LONG}, 0]}}]'),
    ],
    ids=["config-long-integer", "boxes-long-integer", "weights-long-integer"],
)
def test_integer_too_long_to_parse_exit_code(tmp_path, capsys, command, option, text):
    # json.loads refuses an integer of more than sys.get_int_max_str_digits()
    # digits with a ValueError; a Python without the limit parses it, and the
    # config or sweep file is refused as out of range instead
    path = tmp_path / "input.json"
    path.write_text(text)
    cfg = path if option == "--config" else write_config(tmp_path, DEGENERATE)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if option != "--config":
        argv += [option, str(path)]
    assert main(argv) == EXIT_CONFIG
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(_LONG):
        assert f"{path}: JSON integer too long to parse" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_memory_names_the_sizes(tmp_path, capsys):
    # 10**14 draws fail to allocate at once: exit 2 with a message, no traceback
    assert main(["synth", "--out", str(tmp_path / "o"), "--samples", f"{10**14}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "samples per config" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "exc,code",
    [
        (ConfigError("bad input"), EXIT_CONFIG),
        (ValidationError([("grid", "bad grid")]), EXIT_CONFIG),
        (NumericalError("bad number"), EXIT_NUMERICAL),
        (MemoryError(), EXIT_CONFIG),
        (OSError("bad disk"), EXIT_IO),
        (ValueError("a bug"), None),
    ],
    ids=["config", "validation", "numerical", "memory", "os", "plain-value-error"],
)
def test_exit_code_follows_exception_type(tmp_path, monkeypatch, exc, code):
    # each refusal's type sets its exit code; any other exception, a plain
    # ValueError among them, is a program fault and leaves main unreported
    def refuse(*args, **kwargs):
        raise exc

    monkeypatch.setattr(hipllm.cli, "infer", refuse)
    argv = ["infer", "--config", str(write_config(tmp_path, DEGENERATE)), "--out", str(tmp_path / "o")]
    if code is None:
        with pytest.raises(type(exc), match="a bug"):
            main(argv)
    else:
        assert main(argv) == code


def _run_recorded(argv):
    """main(argv)'s exit code, an argparse exit's among them, and the
    RuntimeWarnings of the run, recorded rather than raised: overflow on an
    extreme input is expected on the way to exit 2 or 3."""
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, [w for w in caught if issubclass(w.category, RuntimeWarning)]


# Whole configs at tiny sizes with extreme values: counts up to 2**53, box
# bounds from 1e-320 to 1.7e308, nu ranges from 1e-310 to 1e308 and
# horizons up to 2**53.  Each number is drawn from the extreme range or a
# moderate one, so that many runs get through to a report.  Labels, where
# set, are drawn from every code point, surrogates and controls among them.
_extreme_box = st.lists(
    st.lists(st.one_of(st.floats(1e-320, 1.7e308), st.floats(0.5, 30.0)), min_size=2, max_size=2).map(sorted),
    min_size=4,
    max_size=4,
).map(lambda ivs: dict(zip("abcd", ivs)))


_label = st.text(st.characters(exclude_categories=()), max_size=3)


def _labelled(draw, doc):
    """`doc`, with a label drawn from every code point, or without one."""
    label = draw(st.one_of(st.none(), _label))
    return doc if label is None else {"label": label, **doc}


@st.composite
def _subdomain(draw):
    total = draw(st.one_of(st.integers(0, 2**53), st.integers(0, 1000)))
    return _labelled(draw, {"correct": draw(st.integers(0, total)), "total": total})


def _split(n):
    """A weight vector of length n that sums to 1."""
    return st.floats(0.0, 1.0).map(lambda w: [w, 1.0 - w][:n] if n == 2 else [1.0])


@st.composite
def _domain(draw):
    subs = draw(st.lists(_subdomain(), min_size=1, max_size=2))
    return _labelled(draw, {"subdomains": subs, "omega": draw(_split(len(subs))), "box": draw(_extreme_box)})


@st.composite
def _whole_config(draw):
    domains = draw(st.lists(_domain(), min_size=1, max_size=2))
    nu_bound = st.one_of(st.floats(1e-310, 1e308), st.floats(1e-5, 150.0))
    nu_min, nu_max = sorted(draw(st.lists(nu_bound, min_size=2, max_size=2)))
    return {
        "schema_version": 1,
        "hierarchy": {"domains": domains, "weights": draw(_split(len(domains)))},
        "grid": {"n_mu": draw(st.integers(1, 6)), "n_nu": draw(st.integers(1, 6)), "nu_min": nu_min, "nu_max": nu_max},
        "mc": {
            "samples_per_config": draw(st.integers(1, 40)),
            "configs_per_domain": draw(st.integers(1, 20)),
            "pairing_cap": draw(st.integers(1, 30)),
            "t_grid_size": draw(st.integers(2, 11)),
            "master_seed": draw(st.integers(0, 2**64 - 1)),
        },
        "query": {"horizons": draw(st.lists(st.integers(1, 2**53), min_size=1, max_size=3))},
        "output": {"csv": True, "json": True, "svg": True},
    }


@settings(max_examples=300, deadline=None)
@given(doc=_whole_config())
@example(  # one nu cell at 1.3e16: betainc gave nan at t = mu = 0.75, and exit 0
    doc={
        **DEGENERATE,
        "hierarchy": {"domains": [{"subdomains": [{"correct": 0, "total": 0}], "omega": [1.0]}], "weights": [1.0]},
        "grid": {"n_mu": 2, "n_nu": 1, "nu_min": 1.0, "nu_max": 1.794263626553018e32},
        "mc": {"samples_per_config": 1, "configs_per_domain": 1, "pairing_cap": 1, "t_grid_size": 5},
    }
)
@example(  # the quadrature CDF summed its weights to 1.0000000000000004 at t = 1
    doc={
        **DEGENERATE,
        "hierarchy": {"domains": [{"subdomains": [{"correct": 0, "total": 0}], "omega": [1.0]}], "weights": [1.0]},
        "grid": {"n_mu": 4, "n_nu": 3, "nu_min": 1.0, "nu_max": 2.0},
        "mc": {"samples_per_config": 1, "configs_per_domain": 1, "pairing_cap": 1, "t_grid_size": 2},
    }
)
@example(  # one nu cell at 1e-155: betainc gave the CDF 0.625, 0.5, 0.375 on (0, 1), and exit 0
    doc={
        **DEGENERATE,
        "hierarchy": {"domains": [{"subdomains": [{"correct": 0, "total": 0}], "omega": [1.0]}], "weights": [1.0]},
        "grid": {"n_mu": 2, "n_nu": 1, "nu_min": 1e-310, "nu_max": 1.0},
        "mc": {"samples_per_config": 1, "configs_per_domain": 1, "pairing_cap": 1, "t_grid_size": 5},
    }
)
@example(  # one config's log-prior overflowed to -inf in one cell, with a warning, and exit 0
    doc={
        **DEGENERATE,
        "hierarchy": {
            "domains": [
                {
                    "subdomains": [{"correct": 0, "total": 0}],
                    "omega": [1.0],
                    "box": {
                        "a": [1.0, 1.0],
                        "b": [1.0, 7.503766984771256e307],
                        "c": [1.0, 1.0804982784411028e305],
                        "d": [1.0, 1.0],
                    },
                }
            ],
            "weights": [1.0],
        },
        "grid": {"n_mu": 2, "n_nu": 1, "nu_min": 1.0, "nu_max": 2.0},
        "mc": {"samples_per_config": 1, "configs_per_domain": 7, "pairing_cap": 1, "t_grid_size": 2},
    }
)
@example(  # a surrogate label ran the whole inference, then emit_csv raised UnicodeEncodeError: exit 1
    doc={
        **DEGENERATE,
        "hierarchy": {
            "domains": [{"label": "a\ud800b", "subdomains": [{"correct": 0, "total": 0}], "omega": [1.0]}],
            "weights": [1.0],
        },
        "output": {"csv": True, "json": True, "svg": False},
    }
)
@example(  # a NUL in a label wrote an SVG that is not XML, with exit 0
    doc={
        **DEGENERATE,
        "hierarchy": {
            "domains": [{"subdomains": [{"label": "a\u0000b", "correct": 0, "total": 0}], "omega": [1.0]}],
            "weights": [1.0],
        },
        "output": {"csv": True, "json": True, "svg": True},
    }
)
@example(  # csv.writer left a CR in a label unquoted, so envelopes.csv read it back as a line end
    doc={
        **DEGENERATE,
        "hierarchy": {
            "domains": [{"subdomains": [{"label": "a\rb", "correct": 0, "total": 0}], "omega": [1.0]}],
            "weights": [1.0],
        },
        "output": {"csv": True, "json": True, "svg": True},
    }
)
def test_whole_config_exits_cleanly(doc):
    # every input maps to a documented exit code, and an exit-0 run gives no
    # RuntimeWarning and writes a report that holds only finite bands in
    # [0, 1] with lower <= upper and CDFs that rise to 1, CSVs that read
    # back every entity's rows, and an SVG that parses with every entity's
    # legend
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = write_config(Path(tmp), doc), Path(tmp) / "o"
        code, caught = _run_recorded(["infer", "--config", str(cfg), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO)
        if code != EXIT_OK:
            assert code == EXIT_IO or not out.exists()
            return
        assert not caught
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        entities = [(e["level"], e["entity"]) for e in report["envelopes"]]
        sizes = {"envelopes.csv": len(report["t"]), "reliability.csv": len(report["reliability"][0]["horizons"])}
        for name, rows_per_entity in sizes.items():
            with (out / name).open(newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows[0][0].startswith("# master_seed=") and all(len(row) == 5 for row in rows[1:])
            assert [tuple(row[:2]) for row in rows[2:]] == [key for key in entities for _ in range(rows_per_entity)]
        if doc.get("output", {}).get("svg"):
            svg = xml.dom.minidom.parse(str(out / "envelopes.svg"))
            legend = ["".join(n.data for n in el.childNodes) for el in svg.getElementsByTagName("text")]
            assert legend[-len(entities):] == [f"{level}:{entity}" for level, entity in entities]
    pairs = [(e["lower"], e["upper"]) for e in report["envelopes"]]
    pairs += [(r["expected_lower"], r["expected_upper"]) for r in report["reliability"]]
    for lower, upper in pairs:
        lower, upper = np.array(lower), np.array(upper)
        assert np.all(np.isfinite(lower) & np.isfinite(upper))
        assert np.all((lower >= 0.0) & (upper <= 1.0) & (lower <= upper))
    # a quadrature CDF ends at its weights' sum, 1 within an ulp per cell
    ulps = doc["grid"]["n_mu"] * doc["grid"]["n_nu"] * np.finfo(float).eps
    for e in report["envelopes"]:
        for cdf in (e["lower"], e["upper"]):
            assert np.all(np.diff(cdf) >= 0.0) and cdf[-1] >= 1.0 - ulps
        assert max(u - lo for lo, u in zip(e["lower"], e["upper"])) <= e["sup_width_bound"] <= 1.0


# Baseline command lines with extreme values: counts up to 2**53, priors
# and range bounds from 1e-320 to 1.7e308 and horizons up to 2**53, each
# drawn from the extreme range or a moderate one.
_extreme_prior = st.one_of(st.floats(1e-320, 1.7e308), st.floats(0.5, 30.0))


@st.composite
def _baseline_argv(draw):
    total = draw(st.one_of(st.integers(0, 2**53), st.integers(0, 1000)))
    argv = ["baseline", "--correct", str(draw(st.integers(0, total))), "--total", str(total)]
    argv += ["--prior-alpha", repr(draw(_extreme_prior)), "--prior-beta", repr(draw(_extreme_prior))]
    horizons = draw(st.lists(st.one_of(st.integers(0, 2**53), st.integers(0, 20_000)), min_size=1, max_size=4))
    argv += ["--horizons", ",".join(map(str, horizons))]
    if draw(st.booleans()):
        for name in ("--alpha-range", "--beta-range"):
            lo, hi = sorted(draw(st.lists(_extreme_prior, min_size=2, max_size=2)))
            argv += [name, f"{lo!r},{hi!r}"]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_baseline_argv())
@example(  # alpha + beta overflowed: mean 0.0 and E[theta^100000] NaN, with exit 0
    argv=["baseline", "--correct", "5", "--total", "10", "--prior-alpha", "1e308", "--prior-beta", "1e308",
          "--horizons", "1,100000"]
)
@example(  # the log-Beta difference cancelled to 0: E[theta^10001] = 1.0 beside E[theta] = 0.5
    argv=["baseline", "--correct", "5", "--total", "10", "--prior-alpha", "1e300", "--prior-beta", "1e300",
          "--horizons", "1,10001"]
)
@example(  # alpha + beta + N overflowed: mean envelope [0.0, 0.0]
    argv=["baseline", "--correct", "5", "--total", "10", "--alpha-range", "1e308,1.7e308",
          "--beta-range", "1e308,1.7e308"]
)
def test_baseline_exits_cleanly(argv):
    # every command line maps to exit 0, 2 or 3 with no exception, and an
    # exit-0 run prints JSON without NaN or Infinity whose probabilities
    # lie in [0, 1], falling with the horizon, with lower <= upper
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
    if code != EXIT_OK:
        return
    doc = json.loads(out.getvalue(), parse_constant=_refuse_constant)
    reliability = sorted((int(n), v) for n, v in doc["future_reliability"].items())
    envelope = doc.get("mean_envelope", [0.0, 1.0])
    assert all(0.0 <= p <= 1.0 for p in [doc["posterior_mean"], *envelope, *(v for _, v in reliability)])
    assert all(x[1] >= y[1] for x, y in zip(reliability, reliability[1:]))
    assert envelope[0] <= envelope[1]


# Sweep files at tiny sizes: `--boxes` entries with bounds from 1e-320 to
# 1.7e308, in either order, beside null, number and missing-key entries;
# `--weights` entries whose `omegas` and `weights` vectors hold extreme or
# negative values, or have the wrong length.
SWEEP_BASE = {
    "schema_version": 1,
    "hierarchy": {
        "domains": [
            {"subdomains": [{"correct": 7, "total": 10}, {"correct": 2, "total": 5}], "omega": [0.5, 0.5]},
            {"subdomains": [{"correct": 30, "total": 40}], "omega": [1.0]},
        ],
        "weights": [0.5, 0.5],
    },
    "grid": {"n_mu": 3, "n_nu": 2},
    "mc": {"samples_per_config": 10, "configs_per_domain": 3, "pairing_cap": 4, "t_grid_size": 5},
    "query": {"horizons": [1, 7]},
}

_bound = st.one_of(st.floats(1e-320, 1.7e308), st.floats(0.5, 30.0))
_box = st.fixed_dictionaries({k: st.lists(_bound, min_size=2, max_size=2) for k in "abcd"})
_valid_box = _box.map(lambda box: {k: sorted(iv) for k, iv in box.items()})
_box_entry = st.one_of(
    _valid_box,
    _box,
    st.none(),
    st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False)),
    st.tuples(_box, st.sampled_from("abcd")).map(lambda bk: {k: iv for k, iv in bk[0].items() if k != bk[1]}),
)
_weight = st.one_of(st.floats(0.0, 1.0), st.floats(-1.7e308, 1.7e308), st.floats(1e-320, 1e-300))
_valid_op = st.fixed_dictionaries({}, optional={"omegas": st.tuples(_split(2), _split(1)).map(list), "weights": _split(2)})


def _vector(n):
    """A weight vector for n entries: `_split(n)`, or any values, of length n or of any length."""
    return st.one_of(_split(n), st.lists(_weight, min_size=n, max_size=n), st.lists(_weight, max_size=3))


@st.composite
def _op_entry(draw):
    entry = {}
    if draw(st.booleans()):
        entry["omegas"] = [draw(_vector(n)) for n in draw(st.one_of(st.just([2, 1]), st.lists(st.integers(0, 3))))]
    if draw(st.booleans()):
        entry["weights"] = draw(_vector(2))
    return entry


# half the sweeps have only well-formed entries, so that many of them run
_sweeps = {
    "box": st.one_of(st.lists(_valid_box, max_size=3), st.lists(_box_entry, max_size=3)),
    "op": st.one_of(st.lists(_valid_op, max_size=3), st.lists(_op_entry(), max_size=3)),
}


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["box", "op"]), data=st.data())
def test_sweep_exits_cleanly(kind, data):
    # every sweep file maps to exit 0, 2 or 3 with no exception; an exit-0
    # sweep gives no RuntimeWarning and leaves one run per entry, and an
    # exit-2 sweep, whose entries are all read before the first run, none
    entries = data.draw(_sweeps[kind])
    command, option = ("sweep-hyper", "--boxes") if kind == "box" else ("sweep-op", "--weights")
    with tempfile.TemporaryDirectory() as tmp:
        cfg, sweep, out = write_config(Path(tmp), SWEEP_BASE), Path(tmp) / "sweep.json", Path(tmp) / "o"
        sweep.write_text(json.dumps(entries))
        code, caught = _run_recorded([command, "--config", str(cfg), "--out", str(out), option, str(sweep)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
        if code == EXIT_OK:
            assert not caught
            assert sorted(os.listdir(out)) == [f"{kind}{k:02d}" for k in range(len(entries))]
        elif code == EXIT_CONFIG:
            assert not out.exists()


# synth command lines: `--small` and `--large` lists of any length with
# sizes up to 2**53, any noise, 1 to 6 configs per domain, 1 to 30 samples
# per config and any seed.
_size = st.one_of(st.integers(0, 2**53), st.integers(0, 1000))


@st.composite
def _synth_argv(draw):
    argv = ["synth", "--seed", str(draw(st.integers(0, 2**64 - 1)))]
    for name in ("--small", "--large"):
        sizes = draw(st.one_of(st.lists(_size, min_size=4, max_size=4), st.lists(_size, max_size=6)))
        argv += [name, ",".join(map(str, sizes))]
    argv += ["--noise", repr(draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.floats(allow_nan=False))))]
    return argv + ["--configs", str(draw(st.integers(1, 6))), "--samples", str(draw(st.integers(1, 30)))]


@settings(max_examples=300, deadline=None)
@given(argv=_synth_argv())
@example(  # --noise -0.0 passed the [0, 1) check, then numpy's uniform(0.0, -0.0) raised: exit 1
    argv=["synth", "--seed", "0", "--small", "0,1,0,1", "--large", "0,1,0,1", "--noise", "-0.0",
          "--configs", "1", "--samples", "1"]
)
def test_synth_exits_cleanly(argv):
    # every command line maps to exit 0, 2 or 3 with no exception; an exit-0
    # run gives no RuntimeWarning, and its synth_comparison.json holds only
    # finite numbers, with every median and 90% interval in [0, 1]
    with tempfile.TemporaryDirectory() as tmp:
        code, caught = _run_recorded(argv + ["--out", tmp])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
        if code != EXIT_OK:
            return
        assert not caught
        doc = json.loads((Path(tmp) / "synth_comparison.json").read_text(), parse_constant=_refuse_constant)
    assert len(doc["rows"]) == 18
    for row in doc["rows"]:
        for lo, hi in (row["median"], row["interval_90"]):
            assert 0.0 <= lo <= hi <= 1.0
        assert 0.0 <= row["error"][0] <= row["error"][1] <= 1.0
