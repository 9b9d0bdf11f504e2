"""Scenario validation, random generation, and file round-trips."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoiplan import ScenarioError, generate_scenario, load_scenario, save_scenario
from aoiplan.scenario import from_document
from conftest import build_scenario


def test_round_trip_preserves_fields(tmp_path):
    scenario = build_scenario([1, 2], weights=[0.4, 0.6])
    path = tmp_path / "scenario.yaml"
    save_scenario(scenario, path)
    again = load_scenario(path)
    assert again.nodes == scenario.nodes
    assert again.uav == scenario.uav
    assert again.channel == scenario.channel
    assert again.region == scenario.region


def test_raw_weights_normalize():
    scenario = build_scenario([1, 1], weights=[2.0, 2.0])
    assert scenario.weights().tolist() == [0.5, 0.5]


def test_single_node_weight_is_one():
    scenario = build_scenario([1], weights=[0.37])
    assert scenario.weights().tolist() == [1.0]


def test_battery_must_be_positive():
    scenario = build_scenario([1])
    scenario.nodes[0].battery_j = 0.0
    with pytest.raises(ScenarioError, match="battery_j must be positive"):
        scenario.validate()


def test_negative_weight_rejected():
    scenario = build_scenario([1, 1])
    scenario.nodes[1].weight = -0.1
    with pytest.raises(ScenarioError, match="weight must be nonnegative"):
        scenario.validate()


def test_unreachable_endpoint_rejected():
    scenario = build_scenario([1], final=(1e6, 0.0), vmax=1.0, horizon=10.0)
    with pytest.raises(ScenarioError, match="unreachable"):
        scenario.validate()


def test_from_document_requires_nodes():
    doc = build_scenario([1]).to_document()
    del doc["nodes"]
    with pytest.raises(ScenarioError):
        from_document(doc)


def test_from_document_rejects_unknown_version():
    doc = build_scenario([1]).to_document()
    doc["format_version"] = 99
    with pytest.raises(ScenarioError, match="format_version"):
        from_document(doc)


def _with(doc, path, value):
    """A copy of doc with the field at path (a key/index sequence) set to value."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "path, value",
    [
        (("uav", "initial"), [None, 0.0]),
        (("uav", "initial"), ["a", 0.0]),
        (("uav", "initial"), [True, 0.0]),
        (("uav", "final"), [0.0, None]),
        (("region",), [None, 1.0]),
        (("region",), [2**1100, 1.0]),
        (("nodes", 0, "aoi_floor_s"), "x"),
        (("nodes", 0, "aoi_floor_s"), None),
        (("format_version",), "x"),
        (("format_version",), None),
        (("format_version",), True),
    ],
    ids=[
        "initial-null", "initial-str", "initial-bool", "final-null", "region-null",
        "region-huge-int", "aoi-floor-str", "aoi-floor-null", "version-str", "version-null",
        "version-bool",
    ],
)
def test_malformed_field_raises_scenario_error(path, value):
    doc = build_scenario([1, 2]).to_document()
    with pytest.raises(ScenarioError):
        from_document(_with(doc, path, value))


def test_non_utf8_file_raises_scenario_error(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_bytes(b"\xff\xfeformat_version: 1\n")
    with pytest.raises(ScenarioError, match="could not parse"):
        load_scenario(path)


def _field_paths(node, prefix=()):
    if prefix:
        yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _field_paths(child, prefix + (key,))


_BASE_DOC = build_scenario([1, 2]).to_document()
_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**1100), 2**1100)
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None)
@given(path=st.sampled_from(list(_field_paths(_BASE_DOC))), value=_values)
def test_single_field_mutation_raises_only_scenario_error(path, value):
    try:
        from_document(_with(_BASE_DOC, path, value))
    except ScenarioError:
        pass


def test_generate_is_deterministic():
    a = generate_scenario(4, seed=7)
    b = generate_scenario(4, seed=7)
    assert a.to_document() == b.to_document()
    c = generate_scenario(4, seed=8)
    assert c.to_document() != a.to_document()


def test_generate_respects_ranges():
    for seed in range(250):
        scenario = generate_scenario(3, seed=seed, region=(800.0, 600.0))
        xy = scenario.node_xy()
        assert np.all(xy[:, 0] >= 0.0) and np.all(xy[:, 0] <= 800.0)
        assert np.all(xy[:, 1] >= 0.0) and np.all(xy[:, 1] <= 600.0)
        batteries = scenario.batteries()
        assert np.all(batteries >= 0.1) and np.all(batteries <= 1.0)
        assert abs(scenario.weights().sum() - 1.0) < 1e-12
        for point in (scenario.uav.initial, scenario.uav.final):
            assert 0.0 <= point[0] <= 800.0
            assert 0.0 <= point[1] <= 600.0
        scenario.validate()


def test_generate_scalar_region_is_square():
    a = generate_scenario(2, seed=3, region=500.0)
    b = generate_scenario(2, seed=3, region=(500.0, 500.0))
    assert a.to_document() == b.to_document()


def test_generate_rejects_zero_nodes():
    with pytest.raises(ScenarioError):
        generate_scenario(0, seed=1)
