"""Config schema parsing and strictness tests."""

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hipllm.config import (
    ConfigError,
    RunConfig,
    config_to_dict,
    parse_config,
    parse_config_dict,
    parse_sweep,
)
from hipllm.model import ValidationError

CONFIGS = Path(__file__).parent.parent / "configs"

MINIMAL = {
    "schema_version": 1,
    "hierarchy": {
        "domains": [
            {"subdomains": [{"correct": 3, "total": 10}], "omega": [1.0]}
        ],
        "weights": [1.0],
    },
}


def make(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return doc


class TestMinimal:
    def test_defaults_filled(self):
        cfg = parse_config_dict(make())
        assert cfg.grid.n_mu == 50 and cfg.grid.n_nu == 40
        assert cfg.mc.samples_per_config == 3000
        assert cfg.mc.configs_per_domain == 160
        assert cfg.query.horizons == (1, 2, 5, 10, 20, 50, 100)
        assert cfg.emit_csv and cfg.emit_json and not cfg.emit_svg

    def test_default_box_applied(self):
        cfg = parse_config_dict(make())
        box = cfg.system.domains[0].box
        assert box.a_range == (1.0, 12.0)
        assert box.c_range == (1.0, 25.0)

    @pytest.mark.parametrize(
        "doc",
        [
            make(),
            make(output={"csv": False, "svg": True}, query={"horizons": [3, 7]}),
            json.loads((CONFIGS / "gpt4o_mini.json").read_text()),
            make(hierarchy={
                "domains": [{
                    "subdomains": [{"correct": 3, "total": 10}, {"correct": 1, "total": 2}],
                    "omega": [0.3333333, 0.6666667],
                }],
                "weights": [1.0],
            }),
            make(hierarchy={
                "domains": [{
                    "subdomains": [{"correct": k, "total": 10} for k in range(4)],
                    # sums to 1.000001; dividing by the sum twice moves each entry by an ulp
                    "omega": [0.589001, 0.166174, 0.173862, 0.070964],
                }],
                "weights": [1.0],
            }),
        ],
        ids=["minimal", "flags-and-horizons", "gpt4o", "renormalized-omega", "renormalized-once"],
    )
    def test_resolved_config_round_trip(self, doc):
        # the echo carries every default and re-parses to the same run
        cfg = parse_config_dict(doc)
        echo = json.loads(json.dumps(config_to_dict(cfg)))
        assert set(echo) == {"schema_version", "hierarchy", "grid", "mc", "query", "output"}
        assert set(echo["mc"]) == {
            "samples_per_config", "configs_per_domain", "pairing_cap", "master_seed", "t_grid_size"
        }
        assert "box" in echo["hierarchy"]["domains"][0]
        assert parse_config_dict(echo) == cfg


class TestStrictness:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys.*extra"):
            parse_config_dict(make(extra=1))

    def test_unknown_nested_key(self):
        doc = make()
        doc["hierarchy"]["domains"][0]["omegas"] = [1.0]
        with pytest.raises(ConfigError, match="omegas"):
            parse_config_dict(doc)

    def test_missing_omega_names_field(self):
        doc = make()
        del doc["hierarchy"]["domains"][0]["omega"]
        with pytest.raises(ConfigError, match="omega"):
            parse_config_dict(doc)

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config_dict(make(schema_version=2))

    def test_malformed_interval(self):
        doc = make()
        doc["hierarchy"]["domains"][0]["box"] = {
            "a": [1.0], "b": [1, 2], "c": [1, 2], "d": [1, 2]
        }
        with pytest.raises(ConfigError, match=r"box\.a"):
            parse_config_dict(doc)

    def test_unknown_output_key(self):
        with pytest.raises(ConfigError, match="png"):
            parse_config_dict(make(output={"png": True}))


class TestValidationFlowThrough:
    def test_bad_counts_raise_validation_error(self):
        doc = make()
        doc["hierarchy"]["domains"][0]["subdomains"][0]["correct"] = 99
        with pytest.raises(ValidationError, match="correct"):
            parse_config_dict(doc)

    def test_near_one_weights_renormalized(self):
        doc = make()
        doc["hierarchy"]["domains"][0]["subdomains"].append({"correct": 1, "total": 2})
        doc["hierarchy"]["domains"][0]["omega"] = [0.3333333, 0.6666667]
        cfg = parse_config_dict(doc)
        assert sum(cfg.system.domains[0].op_weights) == pytest.approx(1.0, abs=1e-15)

    def test_far_from_one_rejected(self):
        doc = make()
        doc["hierarchy"]["weights"] = [0.8]
        with pytest.raises(ValidationError, match="sum"):
            parse_config_dict(doc)


class TestFiles:
    def test_json_error_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1,\n "hierarchy": }')
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(path)

    def test_shipped_example_parses(self):
        from pathlib import Path

        cfg = parse_config(Path(__file__).parent.parent / "configs" / "gpt4o_mini.json")
        assert len(cfg.system.domains) == 2
        assert [len(d.subdomains) for d in cfg.system.domains] == [2, 2]
        assert cfg.system.domain_weights == pytest.approx((0.149, 0.851))
        assert cfg.system.domains[0].subdomains[0].label == "MBPP"
        assert cfg.system.domains[1].subdomains[1].correct == 3044
        assert cfg.emit_svg

    def test_output_flags(self):
        cfg = parse_config_dict(make(output={"csv": False, "svg": True}))
        assert not cfg.emit_csv and cfg.emit_json and cfg.emit_svg


def two_domain_config() -> RunConfig:
    sub = {"subdomains": [{"correct": 3, "total": 10}, {"correct": 1, "total": 2}]}
    return parse_config_dict(make(hierarchy={
        "domains": [{**sub, "omega": [0.5, 0.5]}, {**sub, "omega": [0.25, 0.75]}],
        "weights": [0.4, 0.6],
    }))


def write_sweep(directory, entries) -> Path:
    path = Path(directory) / "sweep.json"
    path.write_text(json.dumps(entries))
    return path


class TestSweep:
    BOX = {"a": [2, 3], "b": [1, 4], "c": [1, 5], "d": [2, 2]}

    def test_box_entry_sets_every_domain(self, tmp_path):
        cfg = two_domain_config()
        runs = parse_sweep(write_sweep(tmp_path, [self.BOX]), cfg, "box")
        assert [d.box.ranges() for d in runs[0].system.domains] == [
            ((2.0, 3.0), (1.0, 4.0), (1.0, 5.0), (2.0, 2.0))
        ] * 2
        assert runs[0].mc == cfg.mc and runs[0].grid == cfg.grid

    def test_op_entry_sets_omegas_and_weights(self, tmp_path):
        cfg = two_domain_config()
        entries = [{"omegas": [[1, 0], [0.5, 0.5]]}, {"weights": [1, 0]}, {}]
        runs = parse_sweep(write_sweep(tmp_path, entries), cfg, "op")
        assert [d.op_weights for d in runs[0].system.domains] == [(1.0, 0.0), (0.5, 0.5)]
        assert runs[0].system.domain_weights == cfg.system.domain_weights
        assert runs[1].system.domain_weights == (1.0, 0.0)
        assert runs[2] == cfg

    @pytest.mark.parametrize("entries", [[], {"a": [1, 2]}, None])
    def test_not_a_nonempty_list(self, tmp_path, entries):
        with pytest.raises(ConfigError, match="expected a nonempty JSON list"):
            parse_sweep(write_sweep(tmp_path, entries), two_domain_config(), "box")


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# each shape valid in one branch and arbitrary JSON in the other
INTERVAL = st.lists(st.floats(0.1, 30), min_size=2, max_size=2).map(sorted) | JSON
PAIR = st.floats(0, 1).map(lambda x: [x, 1 - x]) | JSON
ENTRY = (
    JSON
    | st.fixed_dictionaries({k: INTERVAL for k in "abcd"}, optional={"e": JSON})
    | st.fixed_dictionaries(
        {}, optional={"omegas": st.lists(PAIR, min_size=2, max_size=2) | JSON, "weights": PAIR}
    )
)


@pytest.mark.parametrize("kind", ["box", "op"])
@settings(derandomize=True, max_examples=300, deadline=None)
@given(entries=st.lists(ENTRY, min_size=1, max_size=3))
def test_sweep_entries_parse_or_name_their_index(kind, entries):
    # any JSON entry yields a run or a ConfigError naming the file and the entry
    cfg = two_domain_config()
    with tempfile.TemporaryDirectory() as directory:
        path = write_sweep(directory, entries)
        try:
            runs = parse_sweep(path, cfg, kind)
        except ConfigError as exc:
            where = re.match(rf"{re.escape(str(path))}\[(\d+)\]", str(exc))
            assert where and int(where.group(1)) < len(entries)
        else:
            assert len(runs) == len(entries) and all(isinstance(r, RunConfig) for r in runs)
