"""Scenario validation, random generation, and file round-trips."""

import copy
import dataclasses

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


_LAYOUT_HEAD = """\
format_version: 1
region:
- {region_x}
- {region_y}
channel:
  beta0: 0.001
  noise_power_w: 1.0e-13
  packet_bits: 10000000.0
  bandwidth_hz: 1000000.0
uav:
  altitude_m: 80.0
  vmax_x: 25.0
  vmax_y: 25.0
  initial:
  - 0.0
  - 0.0
  final:
  - 1000.0
  - 1000.0
  horizon_s: 900.0
nodes:
"""


def test_saved_file_layout_is_pinned(tmp_path):
    # Key order, number formatting and list style of the written file, not
    # only the values a round trip reads back.
    path = tmp_path / "scenario.yaml"
    save_scenario(build_scenario([1, 2]), path)
    assert path.read_text(encoding="utf-8") == _LAYOUT_HEAD.format(
        region_x="1000.0", region_y="1000.0"
    ) + (
        "- x: 300.0\n"
        "  y: 300.0\n"
        "  battery_j: 0.0009820799999999998\n"
        "  weight: 0.5\n"
        "  aoi_floor_s: 0.0\n"
        "- x: 700.0\n"
        "  y: 600.0\n"
        "  battery_j: 0.0016367999999999999\n"
        "  weight: 0.5\n"
        "  aoi_floor_s: 0.0\n"
    )
    # Integer fields are written as floats.
    scenario = build_scenario([1], positions=[(250.0, 125.5)], weights=[1.0])
    scenario = dataclasses.replace(
        scenario,
        nodes=[dataclasses.replace(scenario.nodes[0], aoi_floor_s=3, weight=2)],
        region=(800, 600),
    )
    save_scenario(scenario, path)
    assert path.read_text(encoding="utf-8") == _LAYOUT_HEAD.format(
        region_x="800.0", region_y="600.0"
    ) + (
        "- x: 250.0\n"
        "  y: 125.5\n"
        "  battery_j: 0.0009820799999999998\n"
        "  weight: 2.0\n"
        "  aoi_floor_s: 3.0\n"
    )


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


def test_unreachable_final_y_rejected():
    scenario = build_scenario([1], final=(0.0, 1e6), vmax=1.0, horizon=10.0)
    with pytest.raises(ScenarioError, match="uav: final y is unreachable within the horizon"):
        scenario.validate()


def test_scenario_without_nodes_rejected():
    scenario = dataclasses.replace(build_scenario([1]), nodes=[])
    with pytest.raises(ScenarioError, match="scenario must contain at least one node"):
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


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("nodes", 0, "x"), float("nan"), r"node 1: x must be a finite number"),
        (("nodes", 0, "aoi_floor_s"), -1.0, r"node 1: aoi_floor_s must be nonnegative"),
        (("channel", "beta0"), 0.0, r"channel: beta0 must be a positive finite number"),
        (("uav", "vmax_x"), -1.0, r"uav: vmax_x must be a positive finite number"),
        (("uav", "initial"), [0.0, float("inf")], r"uav: initial must be a finite \(x, y\) pair"),
        (("region",), [0.0, 1000.0], r"region must be a pair of positive extents"),
    ],
    ids=["x-nan", "aoi-floor-negative", "beta0-zero", "vmax-negative", "initial-inf", "region-zero"],
)
def test_out_of_range_field_raises_its_own_scenario_error(path, value, message):
    doc = build_scenario([1, 2]).to_document()
    with pytest.raises(ScenarioError, match=message):
        from_document(_with(doc, path, value))


def test_all_zero_weights_raise_scenario_error():
    doc = build_scenario([1, 2]).to_document()
    for node in doc["nodes"]:
        node["weight"] = 0.0
    with pytest.raises(ScenarioError, match="node weights must not all be zero"):
        from_document(doc)


def test_list_document_raises_scenario_error():
    doc = build_scenario([1, 2]).to_document()
    with pytest.raises(ScenarioError, match="scenario document must be a mapping"):
        from_document([doc])


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


def test_generate_falls_back_to_the_initial_point():
    # At 0.01 m/s for 10 s no redrawn final point is reachable, so the
    # mission ends where it starts.
    scenario = generate_scenario(2, 0, vmax=0.01, horizon_s=10.0)
    assert scenario.uav.final == scenario.uav.initial
    scenario.validate()


def test_generate_scalar_region_is_square():
    a = generate_scenario(2, seed=3, region=500.0)
    b = generate_scenario(2, seed=3, region=(500.0, 500.0))
    assert a.to_document() == b.to_document()


def test_generate_rejects_zero_nodes():
    with pytest.raises(ScenarioError):
        generate_scenario(0, seed=1)



@pytest.mark.parametrize("fallback", [False, True], ids=["default", "python-loader"])
def test_yaml_loaders_give_equal_scenarios(tmp_path, monkeypatch, capsys, fallback):
    import yaml

    from aoiplan import scenario as scenario_module
    from aoiplan.cli import main

    if fallback:
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", yaml.SafeLoader)
    for i, scenario in enumerate([build_scenario([1, 2], weights=[0.4, 0.6]), generate_scenario(5, seed=3)]):
        path = tmp_path / f"scenario_{i}.yaml"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario
    for i, text in enumerate([b"nodes: [1, 2\n", b"a: b: c\n", b"\tformat_version: 1\n", b"\xff\xfe: 1\n"]):
        path = tmp_path / f"bad_{i}.yaml"
        path.write_bytes(text)
        with pytest.raises(ScenarioError, match="could not parse"):
            load_scenario(path)
        assert main(["bounds", "--scenario", str(path)]) == 2
    capsys.readouterr()


def test_saved_bytes_equal_safe_dump(tmp_path):
    # save_scenario writes through libyaml's emitter where PyYAML has it.
    import yaml

    scenarios = [build_scenario([1, 2], weights=[0.4, 0.6]), build_scenario([2, 2, 2], vmax=3.0)]
    for nodes in range(1, 9):
        for seed in range(3):
            scenarios.append(generate_scenario(nodes, seed=seed))
            scenarios.append(
                generate_scenario(nodes, seed=seed, region=733.3, altitude_m=61.7, horizon_s=3600.0)
            )
    path = tmp_path / "scenario.yaml"
    for scenario in scenarios:
        save_scenario(scenario, path)
        assert path.read_text(encoding="utf-8") == yaml.safe_dump(scenario.to_document(), sort_keys=False)
