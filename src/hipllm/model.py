"""Data model for the reliability hierarchy.

Counts per subdomain, operational-profile weights at two levels, interval
boxes for the prior hyperparameters, and the numerical settings of the
engine.  Everything is an immutable dataclass; `validate` checks all
invariants and returns normalized copies, and `aggregate` applies a profile.
Malformed or invalid input raises `ConfigError`, the CLI's exit 2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

import numpy as np

__all__ = [
    "SubdomainData",
    "DomainSpec",
    "SystemSpec",
    "HyperBox",
    "GridSpec",
    "McSpec",
    "ReliabilityQuery",
    "ConfigError",
    "ValidationError",
    "validate",
    "aggregate",
    "entity_keys",
    "default_box",
    "default_grid",
    "default_mc",
]

# Weight vectors further than this from summing to 1 are rejected outright;
# anything closer is silently renormalized (absorbs decimal rounding).
RENORM_TOL = 1e-6

# Float64 machine epsilon.  A weight vector whose sum is within len(w) * EPS
# of 1 is kept as it is: dividing by such a sum can move entries by an ulp,
# so renormalizing on every call would not be idempotent.
EPS = float(np.finfo(float).eps)

# Counts above this are not exactly representable as floats, and the
# likelihood's special functions take floats.
MAX_COUNT = 2**53

# (spec, field, least value) of every size field.  Each is at most
# MAX_COUNT: numpy cannot shape an array much larger, and such a size
# raises ValueError, not MemoryError, where it is first allocated.
SIZE_FIELDS = (
    ("grid", "n_mu", 1),
    ("grid", "n_nu", 1),
    ("mc", "samples_per_config", 1),
    ("mc", "configs_per_domain", 1),
    ("mc", "pairing_cap", 1),
    ("mc", "t_grid_size", 2),
)

# What a label may not hold: surrogates (not UTF-8), U+FFFE, U+FFFF and C0
# controls but tab and LF (not XML 1.0; csv.writer leaves a CR unquoted).
UNWRITABLE = re.compile("[\x00-\x08\x0b-\x1f\ud800-\udfff\ufffe\uffff]")

# Master seeds are 64-bit; the generator would alias any wider seed to one
# inside the range.
SEED_LIMIT = 2**64


@dataclass(frozen=True)
class SubdomainData:
    """Observed counts for one subdomain: `correct` successes out of `total`."""

    correct: int
    total: int
    label: str = ""


@dataclass(frozen=True)
class HyperBox:
    """Closed intervals of admissible values for each of (a, b, c, d)."""

    a_range: Tuple[float, float]
    b_range: Tuple[float, float]
    c_range: Tuple[float, float]
    d_range: Tuple[float, float]

    def ranges(self) -> Tuple[Tuple[float, float], ...]:
        return (self.a_range, self.b_range, self.c_range, self.d_range)


def default_box() -> HyperBox:
    return HyperBox((1.0, 12.0), (1.0, 12.0), (1.0, 25.0), (1.0, 25.0))


@dataclass(frozen=True)
class DomainSpec:
    subdomains: Tuple[SubdomainData, ...]
    op_weights: Tuple[float, ...]
    box: HyperBox = field(default_factory=default_box)
    label: str = ""


@dataclass(frozen=True)
class SystemSpec:
    domains: Tuple[DomainSpec, ...]
    domain_weights: Tuple[float, ...]


@dataclass(frozen=True)
class GridSpec:
    """Quadrature grid over (mean, concentration) for the domain latents.

    The mean axis uses n_mu equal cells on (0, 1); the concentration axis
    uses n_nu log-spaced cells on [nu_min, nu_max].
    """

    n_mu: int = 50
    n_nu: int = 40
    # lower bound small enough that even the highest-rate Gamma prior in the
    # default box keeps >99.9% of its mass inside [nu_min, nu_max]
    nu_min: float = 1e-5
    nu_max: float = 150.0

    @property
    def size(self) -> int:
        return self.n_mu * self.n_nu


def default_grid() -> GridSpec:
    return GridSpec()


@dataclass(frozen=True)
class McSpec:
    """Monte Carlo and envelope settings."""

    samples_per_config: int = 3000
    configs_per_domain: int = 160
    pairing_cap: int = 512
    master_seed: int = 20250817
    t_grid_size: int = 201


def default_mc() -> McSpec:
    return McSpec()


@dataclass(frozen=True)
class ReliabilityQuery:
    """Future horizons (numbers of consecutive failure-free tasks) to report."""

    horizons: Tuple[int, ...] = (1, 2, 5, 10, 20, 50, 100)


class ConfigError(ValueError):
    """Malformed or invalid input: the CLI's exit 2."""


class ValidationError(ConfigError):
    """Carries the full list of (field path, message) violations."""

    def __init__(self, issues: List[Tuple[str, str]]):
        self.issues = issues
        lines = "; ".join(f"{path}: {msg}" for path, msg in issues)
        super().__init__(f"invalid specification: {lines}")


def aggregate(x, weights) -> np.ndarray:
    """A profile's aggregate x @ weights of accuracies, clipped at 1: weights
    summing to 1 within rounding can put it just above 1, where E[p ** n]
    grows without bound."""
    return np.minimum(np.asarray(x) @ np.asarray(weights, dtype=float), 1.0)


def entity_keys(domain: DomainSpec, i: int) -> List[Tuple[str, str]]:
    """Report keys (level, name) of domain i's subdomains, then of the
    domain: each label, or `domain<i+1>` and `<domain>.sub<j+1>` where
    none is set."""
    name = domain.label or f"domain{i + 1}"
    subs = [("subdomain", s.label or f"{name}.sub{j + 1}") for j, s in enumerate(domain.subdomains)]
    return subs + [("domain", name)]


def _check_weights(w: Tuple[float, ...], path: str, issues: list) -> Tuple[float, ...]:
    arr = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(arr) & (arr >= 0.0)):
        issues.append((path, "weights must be finite and nonnegative"))
        return w
    with np.errstate(over="ignore"):  # a sum beyond the float range reads inf
        s = arr.sum()
    if abs(s - 1.0) > RENORM_TOL:
        issues.append((path, f"weights sum to {s:.9g}, not 1 within {RENORM_TOL}"))
        return w
    return tuple(arr / s if abs(s - 1.0) > arr.size * EPS else arr)


def _check_interval(rng: Tuple[float, float], path: str, issues: list) -> None:
    lo, hi = rng
    if not (lo > 0.0 and hi > 0.0):
        issues.append((path, "interval bounds must be positive"))
    if lo > hi:
        issues.append((path, f"interval min {lo} exceeds max {hi}"))


def validate(
    system: SystemSpec,
    grid: GridSpec | None = None,
    mc: McSpec | None = None,
    query: ReliabilityQuery | None = None,
) -> Tuple[SystemSpec, GridSpec, McSpec, ReliabilityQuery]:
    """Check every invariant; return normalized copies or raise ValidationError.

    Weight vectors within RENORM_TOL of summing to 1 are renormalized, and
    a second call keeps them as they are; all other violations are
    collected with a path to the offending field.
    No two subdomains, and no two domains, may share an `entity_keys` name,
    and no label may hold an UNWRITABLE character.
    Whether the nu range's cells get finite, positive nodes and widths is
    checked where they are made, by `hyperposterior.build_grid`.
    """
    grid = grid if grid is not None else default_grid()
    mc = mc if mc is not None else default_mc()
    query = query if query is not None else ReliabilityQuery()
    issues: List[Tuple[str, str]] = []

    if len(system.domains) < 1:
        issues.append(("system.domains", "at least one domain required"))
    if len(system.domain_weights) != len(system.domains):
        issues.append(("system.domain_weights", "length must match number of domains"))
        dw = system.domain_weights
    else:
        dw = _check_weights(system.domain_weights, "system.domain_weights", issues)

    new_domains = []
    first: Dict[Tuple[str, str], str] = {}  # report key -> path of its entity
    for i, dom in enumerate(system.domains):
        dpath = f"system.domains[{i}]"
        paths = [f"{dpath}.subdomains[{j}]" for j in range(len(dom.subdomains))] + [dpath]
        labels = [sub.label or "" for sub in dom.subdomains] + [dom.label or ""]
        for key, path, bad in zip(entity_keys(dom, i), paths, map(UNWRITABLE.search, labels)):
            if bad:
                issues.append((f"{path}.label", f"U+{ord(bad[0]):04X} at index {bad.start()} cannot be written"))
            if first.setdefault(key, path) != path:
                issues.append((f"{path}.label", f"name {key[1]!r} is taken by {first[key]}"))
        if len(dom.subdomains) < 1:
            issues.append((f"{dpath}.subdomains", "at least one subdomain required"))
        for j, sub in enumerate(dom.subdomains):
            spath = f"{dpath}.subdomains[{j}]"
            if sub.total < 0 or sub.correct < 0 or sub.correct > sub.total:
                issues.append((spath, f"need 0 <= correct <= total, got {sub.correct}/{sub.total}"))
            elif sub.total > MAX_COUNT:
                issues.append((spath, "total exceeds 2**53, the largest exactly representable count"))
        if len(dom.op_weights) != len(dom.subdomains):
            issues.append((f"{dpath}.op_weights", "length must match number of subdomains"))
            ow = dom.op_weights
        else:
            ow = _check_weights(dom.op_weights, f"{dpath}.op_weights", issues)
        for name, rng in zip("abcd", dom.box.ranges()):
            _check_interval(rng, f"{dpath}.box.{name}_range", issues)
        new_domains.append(replace(dom, op_weights=ow))

    if not (0.0 < grid.nu_min < grid.nu_max):
        issues.append(("grid", f"need 0 < nu_min < nu_max, got [{grid.nu_min}, {grid.nu_max}]"))
    for spec, name, least in SIZE_FIELDS:
        if not least <= getattr(grid if spec == "grid" else mc, name) <= MAX_COUNT:
            issues.append((f"{spec}.{name}", f"must lie in [{least}, 2**53]"))
    if not 0 <= mc.master_seed < SEED_LIMIT:
        issues.append(("mc.master_seed", "must lie in [0, 2**64)"))

    if not query.horizons:
        issues.append(("query.horizons", "at least one horizon required"))
    elif any(h < 1 or int(h) != h for h in query.horizons):
        issues.append(("query.horizons", "horizons must be strictly positive integers"))
    elif any(h > MAX_COUNT for h in query.horizons):
        issues.append(("query.horizons", "horizons may not exceed 2**53"))

    if issues:
        raise ValidationError(issues)

    return (
        SystemSpec(domains=tuple(new_domains), domain_weights=dw),
        grid,
        mc,
        query,
    )
