"""Strict JSON configuration schema for the command-line front end.

Configs are the experiment record: unknown keys are rejected everywhere so
a typo can never silently fall back to a default, nor a repeated key to its
last value, and the schema carries an explicit version field.  `load_json`
reads every JSON input file, and `parse_sweep` reads a sweep file as
patches to a resolved config.  Malformed input raises `model.ConfigError`.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Tuple

from .model import (
    ConfigError,
    DomainSpec,
    GridSpec,
    HyperBox,
    McSpec,
    ReliabilityQuery,
    SubdomainData,
    SystemSpec,
    default_box,
    validate,
)

__all__ = [
    "ConfigError", "RunConfig", "config_to_dict", "load_json", "parse_config", "parse_config_dict",
    "parse_sweep",
]

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    system: SystemSpec
    grid: GridSpec
    mc: McSpec
    query: ReliabilityQuery
    emit_csv: bool = True
    emit_json: bool = True
    emit_svg: bool = False


def _require_keys(obj: dict, path: str, required: set, optional: set) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(obj) - required - optional
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing required keys {sorted(missing)}")


def _number(v, path: str) -> float:
    # the comparison also rejects NaN and integers too large for a float
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {v!r}")
    return float(v)


def _integer(v, path: str) -> int:
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    return v


def _string(v, path: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"{path}: expected a string, got {v!r}")
    return v


def _flag(v, path: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{path}: expected true or false, got {v!r}")
    return v


def _list(v, path: str, read) -> tuple:
    """A JSON list read element by element."""
    if not isinstance(v, list):
        raise ConfigError(f"{path}: expected a list, got {v!r}")
    return tuple(read(x, f"{path}[{k}]") for k, x in enumerate(v))


def _numbers(v, path: str) -> Tuple[float, ...]:
    return _list(v, path, _number)


def _interval(obj, path: str) -> Tuple[float, float]:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ConfigError(f"{path}: expected [min, max]")
    return _numbers(obj, path)


def _parse_box(obj, path: str) -> HyperBox:
    if obj is None:
        return default_box()
    _require_keys(obj, path, {"a", "b", "c", "d"}, set())
    return HyperBox(*(_interval(obj[k], f"{path}.{k}") for k in "abcd"))


def _parse_subdomain(obj, path: str) -> SubdomainData:
    _require_keys(obj, path, {"correct", "total"}, {"label"})
    return SubdomainData(
        correct=_integer(obj["correct"], f"{path}.correct"),
        total=_integer(obj["total"], f"{path}.total"),
        label=_string(obj.get("label", ""), f"{path}.label"),
    )


def _parse_domain(obj, path: str) -> DomainSpec:
    _require_keys(obj, path, {"subdomains", "omega"}, {"label", "box"})
    subs = _list(obj["subdomains"], f"{path}.subdomains", _parse_subdomain)
    return DomainSpec(
        subdomains=subs,
        op_weights=_numbers(obj["omega"], f"{path}.omega"),
        box=_parse_box(obj.get("box"), f"{path}.box"),
        label=_string(obj.get("label", ""), f"{path}.label"),
    )


def _parse_hierarchy(obj, path: str) -> SystemSpec:
    _require_keys(obj, path, {"domains", "weights"}, set())
    doms = _list(obj["domains"], f"{path}.domains", _parse_domain)
    return SystemSpec(domains=doms, domain_weights=_numbers(obj["weights"], f"{path}.weights"))


def _integers(v, path: str) -> Tuple[int, ...]:
    return _list(v, path, _integer)


def _parse_fields(cls, obj, path: str):
    """Dataclass `cls` with the fields set in `obj`, each read as the type
    of its default, and the defaults elsewhere."""
    if obj is None:
        return cls()
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    _require_keys(obj, path, set(), set(fields))
    read = {int: _integer, float: _number, tuple: _integers}
    return cls(**{k: read[type(fields[k])](v, f"{path}.{k}") for k, v in obj.items()})


def parse_config_dict(doc: Dict[str, Any]) -> RunConfig:
    """Validate a loaded config document and fill defaults."""
    _require_keys(
        doc,
        "config",
        {"schema_version", "hierarchy"},
        {"grid", "mc", "query", "output"},
    )
    version = _integer(doc["schema_version"], "config.schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config.schema_version: expected {SCHEMA_VERSION}, got {version}")
    system = _parse_hierarchy(doc["hierarchy"], "config.hierarchy")
    grid = _parse_fields(GridSpec, doc.get("grid"), "config.grid")
    mc = _parse_fields(McSpec, doc.get("mc"), "config.mc")
    query = _parse_fields(ReliabilityQuery, doc.get("query"), "config.query")

    out = doc.get("output")
    emit = {"csv": True, "json": True, "svg": False}
    if out is not None:
        _require_keys(out, "config.output", set(), set(emit))
        emit.update({k: _flag(v, f"config.output.{k}") for k, v in out.items()})

    system, grid, mc, query = validate(system, grid, mc, query)
    return RunConfig(
        system=system,
        grid=grid,
        mc=mc,
        query=query,
        emit_csv=emit["csv"],
        emit_json=emit["json"],
        emit_svg=emit["svg"],
    )


def config_to_dict(cfg: RunConfig) -> Dict[str, Any]:
    """The resolved config in the input schema, defaults filled in:
    `parse_config_dict` of the result gives back `cfg`.  Labels are
    written only when set."""

    def labelled(doc, label):
        return {"label": label, **doc} if label else doc

    domains = [
        labelled(
            {
                "subdomains": [
                    labelled({"correct": s.correct, "total": s.total}, s.label)
                    for s in d.subdomains
                ],
                "omega": list(d.op_weights),
                "box": {k: list(r) for k, r in zip("abcd", d.box.ranges())},
            },
            d.label,
        )
        for d in cfg.system.domains
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "hierarchy": {"domains": domains, "weights": list(cfg.system.domain_weights)},
        "grid": dataclasses.asdict(cfg.grid),
        "mc": dataclasses.asdict(cfg.mc),
        "query": {"horizons": list(cfg.query.horizons)},
        "output": {"csv": cfg.emit_csv, "json": cfg.emit_json, "svg": cfg.emit_svg},
    }


def load_json(path: str | Path) -> Any:
    """The JSON document in file `path`.  A syntax error, bytes that are
    not UTF-8, a key given twice in one object, nesting too deep to parse,
    or an integer longer than Python converts (sys.get_int_max_str_digits)
    become a `ConfigError` naming the file and the place."""

    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: key {key!r} given twice in one object")
            obj[key] = value
        return obj

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply to parse") from exc
    except ConfigError:
        raise
    except ValueError as exc:  # only an integer past the digit limit gets here
        raise ConfigError(f"{path}: JSON integer too long to parse: {exc}") from exc


def parse_config(path: str | Path) -> RunConfig:
    """Load, parse, and validate a JSON config file."""
    return parse_config_dict(load_json(path))


def _patch(doc: Dict[str, Any], entry, kind: str, path: str) -> Dict[str, Any]:
    """Config document `doc` with sweep entry `entry` applied: for `kind`
    "box" the box of every domain, for "op" the `omegas` (one vector per
    domain) and `weights` the entry sets."""
    hierarchy = doc["hierarchy"]
    if kind == "box":
        _require_keys(entry, path, {"a", "b", "c", "d"}, set())
        for domain in hierarchy["domains"]:
            domain["box"] = entry
        return doc
    _require_keys(entry, path, set(), {"omegas", "weights"})
    omegas = entry.get("omegas", [d["omega"] for d in hierarchy["domains"]])
    if not isinstance(omegas, list) or len(omegas) != len(hierarchy["domains"]):
        raise ConfigError(f"{path}.omegas: need one vector per domain")
    for domain, omega in zip(hierarchy["domains"], omegas):
        domain["omega"] = omega
    hierarchy["weights"] = entry.get("weights", hierarchy["weights"])
    return doc


def parse_sweep(path: str | Path, cfg: RunConfig, kind: str) -> list[RunConfig]:
    """The runs of the sweep file `path`, a nonempty JSON list: each entry
    patches the resolved document of `cfg` (see `_patch`) and is read by
    `parse_config_dict`.  Every entry is checked before this returns, and
    an error names `<path>[<idx>]`."""
    entries = load_json(path)
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{path}: expected a nonempty JSON list")
    runs = []
    for idx, entry in enumerate(entries):
        where = f"{path}[{idx}]"
        doc = _patch(config_to_dict(cfg), entry, kind, where)
        try:
            runs.append(parse_config_dict(doc))
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return runs
