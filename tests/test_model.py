"""Validation tests for the hierarchy data model."""

import dataclasses
import math

import pytest

from hipllm.model import (
    DomainSpec,
    GridSpec,
    McSpec,
    ReliabilityQuery,
    SubdomainData,
    SystemSpec,
    ValidationError,
    default_box,
    validate,
)


def make_system(w=(0.149, 0.851), om1=(0.204, 0.796), om2=(0.483, 0.517)):
    d1 = DomainSpec(
        subdomains=(SubdomainData(113, 257, "MBPP"), SubdomainData(490, 1000, "DS-1000")),
        op_weights=om1,
        box=default_box(),
        label="coding",
    )
    d2 = DomainSpec(
        subdomains=(SubdomainData(3086, 3468, "BoolQ"), SubdomainData(3044, 3712, "RACE-H")),
        op_weights=om2,
        box=default_box(),
        label="reasoning",
    )
    return SystemSpec(domains=(d1, d2), domain_weights=w)


def test_reference_weights_valid():
    system, grid, mc, query = validate(make_system())
    assert sum(system.domain_weights) == pytest.approx(1.0, abs=1e-12)
    assert grid.size == 2000
    assert mc.configs_per_domain == 160


def test_weight_sum_violation_rejected():
    with pytest.raises(ValidationError) as exc:
        validate(make_system(om1=(0.5, 0.6)))
    assert any("op_weights" in path for path, _ in exc.value.issues)


def with_first_subdomain(sub):
    system = make_system()
    d1 = dataclasses.replace(
        system.domains[0], subdomains=(sub, system.domains[0].subdomains[1])
    )
    return dataclasses.replace(system, domains=(d1, system.domains[1]))


def test_count_violation_rejected():
    with pytest.raises(ValidationError) as exc:
        validate(with_first_subdomain(SubdomainData(5, 3)))
    assert any("subdomains[0]" in path for path, _ in exc.value.issues)


@pytest.mark.parametrize("total", [2**53 + 1, 10**30])
def test_count_beyond_float_range_rejected(total):
    with pytest.raises(ValidationError) as exc:
        validate(with_first_subdomain(SubdomainData(total - 1, total)))
    assert [path for path, _ in exc.value.issues] == ["system.domains[0].subdomains[0]"]
    validate(with_first_subdomain(SubdomainData(2**53 - 1, 2**53)))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_master_seed_beyond_64_bits_rejected(seed):
    with pytest.raises(ValidationError) as exc:
        validate(make_system(), mc=McSpec(master_seed=seed))
    assert [path for path, _ in exc.value.issues] == ["mc.master_seed"]
    validate(make_system(), mc=McSpec(master_seed=2**64 - 1))


@pytest.mark.parametrize("horizon", [2**53 + 1, 10**400], ids=["2**53+1", "10**400"])
def test_horizon_beyond_float_range_rejected(horizon):
    with pytest.raises(ValidationError) as exc:
        validate(make_system(), query=ReliabilityQuery((1, horizon)))
    assert [path for path, _ in exc.value.issues] == ["query.horizons"]
    validate(make_system(), query=ReliabilityQuery((1, 2**53)))


def test_empty_horizons_rejected():
    with pytest.raises(ValidationError) as exc:
        validate(make_system(), query=ReliabilityQuery(()))
    assert [path for path, _ in exc.value.issues] == ["query.horizons"]


def relabel(system, domain_labels, subdomain_labels):
    domains = tuple(
        dataclasses.replace(
            dom,
            label=dl,
            subdomains=tuple(dataclasses.replace(s, label=sl) for s, sl in zip(dom.subdomains, sls)),
        )
        for dom, dl, sls in zip(system.domains, domain_labels, subdomain_labels)
    )
    return dataclasses.replace(system, domains=domains)


@pytest.mark.parametrize(
    "domain_labels,subdomain_labels,path",
    [
        (("a", "b"), (("x", "x"), ("y", "z")), "system.domains[0].subdomains[1].label"),
        (("a", "b"), (("x", "y"), ("z", "x")), "system.domains[1].subdomains[1].label"),
        (("a", "a"), (("w", "x"), ("y", "z")), "system.domains[1].label"),
        (("", "domain1"), (("w", "x"), ("y", "z")), "system.domains[1].label"),
        (("a", "b"), (("", "x"), ("a.sub1", "z")), "system.domains[1].subdomains[0].label"),
        (("a", "b"), (("a.sub2", ""), ("y", "z")), "system.domains[0].subdomains[1].label"),
    ],
    ids=[
        "subdomain-in-domain", "subdomain-across-domains", "domain", "domain-default",
        "subdomain-default-first", "subdomain-default-later",
    ],
)
def test_repeated_entity_name_rejected(domain_labels, subdomain_labels, path):
    with pytest.raises(ValidationError) as exc:
        validate(relabel(make_system(), domain_labels, subdomain_labels))
    assert [p for p, _ in exc.value.issues] == [path]


@pytest.mark.parametrize(
    "domain_labels,subdomain_labels,path",
    [
        (("a\ud800b", "b"), (("w", "x"), ("y", "z")), "system.domains[0].label"),
        (("a", "b"), (("w", "x"), ("y", "z\x00")), "system.domains[1].subdomains[1].label"),
        (("a", "b"), (("\r", "x"), ("y", "z")), "system.domains[0].subdomains[0].label"),
        (("a", "b\uffff"), (("w", "x"), ("y", "z")), "system.domains[1].label"),
    ],
    ids=["surrogate", "nul", "carriage-return", "u+ffff"],
)
def test_unwritable_label_rejected(domain_labels, subdomain_labels, path):
    # what UTF-8, XML 1.0 or an unquoted CSV field cannot hold, refused
    # before a run, on the API path as on the command line
    with pytest.raises(ValidationError) as exc:
        validate(relabel(make_system(), domain_labels, subdomain_labels))
    assert [p for p, _ in exc.value.issues] == [path]


def test_writable_controls_accepted():
    # tab, line feed, DEL, C1 controls and characters past the BMP are text
    validate(relabel(make_system(), ("a\tb", "c\nd"), (("\x7f", "\x85"), ("\u2028", "\U0001f600"))))


def test_names_shared_across_levels_accepted():
    # keys are (level, name): a domain and a subdomain, or the system, may share a name
    validate(relabel(make_system(), ("system", "x"), (("x", "y"), ("system", "z"))))


def test_near_one_weights_renormalized():
    # decimal rounding within 1e-6 is absorbed, beyond is rejected
    system, *_ = validate(make_system(w=(0.1490001, 0.851)))
    assert sum(system.domain_weights) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        validate(make_system(w=(0.14, 0.851)))


def test_negative_weight_rejected():
    with pytest.raises(ValidationError):
        validate(make_system(w=(-0.1, 1.1)))


@pytest.mark.parametrize(
    "weights, path",
    [
        ({"w": (math.nan, 1.0)}, "system.domain_weights"),
        ({"om1": (math.nan, 1.0)}, "system.domains[0].op_weights"),
    ],
    ids=["domain-weights", "op-weights"],
)
def test_nan_weight_rejected(weights, path):
    # every comparison with nan is False, so a sum check alone lets it through
    with pytest.raises(ValidationError) as exc:
        validate(make_system(**weights))
    assert [p for p, _ in exc.value.issues] == [path]


def test_weight_sum_beyond_float_range_rejected():
    # the sum overflows to inf: reported as an issue, with no RuntimeWarning
    with pytest.raises(ValidationError, match="weights sum to inf"):
        validate(make_system(w=(1e308, 1e308)))


def test_validation_idempotent():
    first = validate(make_system())
    second = validate(*first)
    assert first == second


def test_grid_and_mc_violations_reported_together():
    with pytest.raises(ValidationError) as exc:
        validate(
            make_system(),
            GridSpec(n_mu=0, n_nu=10, nu_min=2.0, nu_max=1.0),
            McSpec(samples_per_config=0, t_grid_size=1),
        )
    paths = [path for path, _ in exc.value.issues]
    assert any("grid" in p for p in paths)
    assert any("mc.samples_per_config" in p for p in paths)
    assert any("mc.t_grid_size" in p for p in paths)


def test_monte_carlo_sizes_capped_at_2_53():
    validate(make_system(), mc=McSpec(samples_per_config=2**53, configs_per_domain=2**53))
    with pytest.raises(ValidationError) as exc:
        validate(make_system(), mc=McSpec(samples_per_config=2**53 + 1, configs_per_domain=10**23))
    paths = [path for path, _ in exc.value.issues]
    assert paths == ["mc.samples_per_config", "mc.configs_per_domain"]


SIZE_PATHS = [
    "grid.n_mu", "grid.n_nu", "mc.samples_per_config", "mc.configs_per_domain", "mc.pairing_cap",
    "mc.t_grid_size",
]


@pytest.mark.parametrize("value", [2**53 + 1, 10**20], ids=["2**53+1", "10**20"])
@pytest.mark.parametrize("path", SIZE_PATHS)
def test_size_beyond_2_53_rejected(path, value):
    spec, name = path.split(".")
    make = {"grid": GridSpec, "mc": McSpec}[spec]
    validate(make_system(), **{spec: make(**{name: 2**53})})
    with pytest.raises(ValidationError) as exc:
        validate(make_system(), **{spec: make(**{name: value})})
    assert [issue_path for issue_path, _ in exc.value.issues] == [path]


def test_mismatched_weight_length():
    with pytest.raises(ValidationError) as exc:
        validate(make_system(om1=(1.0,)))
    assert any("op_weights" in path for path, _ in exc.value.issues)
