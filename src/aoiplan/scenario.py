"""Scenario documents: ground nodes, channel parameters, and UAV limits.

A scenario is the root input for every planner in this package. It is
stored as a small YAML document (``format_version: 1``) so runs can be
reproduced and diffed. Numeric fields round-trip bit-identically through
save/load. Result dataclasses become JSON by one rule, `result_document`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .errors import ScenarioError

FORMAT_VERSION = 1

# The libyaml parser and emitter where PyYAML was built with them; the
# pure-Python ones read and write the same documents, only slower.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# Defaults mirror the reference evaluation setup: 1 MHz bandwidth, 10 Mbit
# update packets, -100 dBm noise floor, 80 m cruise altitude, 25 m/s per-axis
# speed limit, 900 s mission horizon, 1 km square region.
DEFAULT_REGION = (1000.0, 1000.0)


@dataclass
class Node:
    """A ground sensor that uploads status updates to the UAV."""

    x: float
    y: float
    battery_j: float
    weight: float
    aoi_floor_s: float = 0.0

    def validate(self, index: int) -> None:
        label = f"node {index + 1}"
        _check_fields(self, label, positive=False)
        if self.battery_j <= 0:
            raise ScenarioError(f"{label}: battery_j must be positive")
        if self.weight < 0:
            raise ScenarioError(f"{label}: weight must be nonnegative")
        if self.aoi_floor_s < 0:
            raise ScenarioError(f"{label}: aoi_floor_s must be nonnegative")


@dataclass
class ChannelParams:
    """Uplink channel model parameters."""

    beta0: float = 1e-3
    noise_power_w: float = 1e-13
    packet_bits: float = 10e6
    bandwidth_hz: float = 1e6

    def validate(self) -> None:
        _check_fields(self, "channel", positive=True)


@dataclass(kw_only=True)
class UavParams:
    """UAV kinematics and mission horizon, its fields in file order."""

    altitude_m: float = 80.0
    vmax_x: float = 25.0
    vmax_y: float = 25.0
    initial: tuple[float, float]
    final: tuple[float, float]
    horizon_s: float = 900.0

    def validate(self) -> None:
        _check_fields(self, "uav", positive=True)
        # The straight run between the endpoints must fit in the horizon,
        # otherwise no trajectory exists at all.
        slack = 1e-9 * max(1.0, self.horizon_s)
        if abs(self.final[0] - self.initial[0]) > self.vmax_x * self.horizon_s + slack:
            raise ScenarioError("uav: final x is unreachable within the horizon")
        if abs(self.final[1] - self.initial[1]) > self.vmax_y * self.horizon_s + slack:
            raise ScenarioError("uav: final y is unreachable within the horizon")


# A file section is its dataclass's fields in order, each under its own name.
# Only two tables name fields: the (x, y) pairs, and the one field a file may
# leave out. Each section's (name, is a pair) is read once, since validate
# runs on every solve and fields() there costs more than the checks.
_PAIRS = ("initial", "final", "region")
_OPTIONAL = ("aoi_floor_s",)
_FIELDS = {
    cls: tuple((f.name, f.name in _PAIRS) for f in fields(cls))
    for cls in (Node, ChannelParams, UavParams)
}


def _finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _check_fields(section: Any, where: str, positive: bool) -> None:
    """Raise ScenarioError at the first field of section, in field order,
    that is not a finite (x, y) pair where _PAIRS names it, or else not a
    finite number, positive too when asked."""
    for name, pair in _FIELDS[type(section)]:
        value = getattr(section, name)
        if pair:
            if len(value) != 2 or not (_finite(value[0]) and _finite(value[1])):
                raise ScenarioError(f"{where}: {name} must be a finite (x, y) pair")
        elif not _finite(value) or (positive and value <= 0):
            kind = "a positive finite number" if positive else "a finite number"
            raise ScenarioError(f"{where}: {name} must be {kind}")


def _file_value(name: str, value: Any) -> Any:
    """The file's value of a field: a pair is two floats, anything else one."""
    return [float(value[0]), float(value[1])] if name in _PAIRS else float(value)


def _section_document(section: Any) -> dict[str, Any]:
    return {name: _file_value(name, getattr(section, name)) for name, _ in _FIELDS[type(section)]}


@dataclass
class Scenario:
    """A complete planning instance."""

    nodes: list[Node]
    channel: ChannelParams
    uav: UavParams
    region: tuple[float, float] = DEFAULT_REGION

    def validate(self) -> None:
        if not self.nodes:
            raise ScenarioError("scenario must contain at least one node")
        if len(self.region) != 2 or any(not _finite(v) or v <= 0 for v in self.region):
            raise ScenarioError("region must be a pair of positive extents")
        for i, node in enumerate(self.nodes):
            node.validate(i)
        total = sum(node.weight for node in self.nodes)
        if total <= 0:
            raise ScenarioError("node weights must not all be zero")
        self.channel.validate()
        self.uav.validate()

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def weights(self) -> np.ndarray:
        """Importance weights normalized to sum to one."""
        raw = np.array([node.weight for node in self.nodes], dtype=float)
        total = raw.sum()
        if abs(total - 1.0) <= 1e-9:
            return raw
        return raw / total

    def node_xy(self) -> np.ndarray:
        return np.array([[node.x, node.y] for node in self.nodes], dtype=float)

    def batteries(self) -> np.ndarray:
        return np.array([node.battery_j for node in self.nodes], dtype=float)

    def aoi_floors(self) -> np.ndarray:
        return np.array([node.aoi_floor_s for node in self.nodes], dtype=float)

    def coordinate_scale(self) -> float:
        """Length scale used to nondimensionalize positions."""
        spans = [abs(self.region[0]), abs(self.region[1])]
        pts = [self.uav.initial, self.uav.final] + [(n.x, n.y) for n in self.nodes]
        for x, y in pts:
            spans.append(abs(x))
            spans.append(abs(y))
        return max(1.0, max(spans))

    def to_document(self) -> dict[str, Any]:
        return {
            "format_version": FORMAT_VERSION,
            "region": _file_value("region", self.region),
            "channel": _section_document(self.channel),
            "uav": _section_document(self.uav),
            "nodes": [_section_document(node) for node in self.nodes],
        }


def result_document(result: Any, omit: tuple[str, ...] = ()) -> dict[str, Any]:
    """The JSON document of a result dataclass: one entry per field not in
    ``omit``. Arrays, tuples and lists become lists, numpy numbers Python
    numbers, an infinite float ``None``, a nested result its own document."""
    return {
        f.name: _document_value(getattr(result, f.name))
        for f in fields(result)
        if f.name not in omit
    }


def _document_value(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_document_value(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and math.isinf(value):
        return None
    if hasattr(value, "to_document"):
        return value.to_document()
    return value


def _require(mapping: dict, key: str, where: str) -> Any:
    if not isinstance(mapping, dict) or key not in mapping:
        raise ScenarioError(f"{where}: missing required field '{key}'")
    return mapping[key]


def _checked_number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError as exc:  # an int beyond the float range
        raise ScenarioError(f"{what} is out of range") from exc


def _number(mapping: dict, key: str, where: str) -> float:
    return _checked_number(_require(mapping, key, where), f"{where}: field '{key}'")


def _pair(mapping: dict, key: str, where: str) -> tuple[float, float]:
    value = _require(mapping, key, where)
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(f"{where}: {key} must be a two-element list")
    what = f"{where}: {key}"
    return _checked_number(value[0], f"{what}[0]"), _checked_number(value[1], f"{what}[1]")


def _section(cls: type, mapping: Any, where: str) -> Any:
    """Read one section: each field of cls under its own name, through
    _pair or _number; a field in _OPTIONAL may be absent."""
    values = {}
    for name, pair in _FIELDS[cls]:
        if name in _OPTIONAL and name not in mapping:
            continue
        values[name] = (_pair if pair else _number)(mapping, name, where)
    return cls(**values)


def from_document(doc: dict[str, Any]) -> Scenario:
    """Build and validate a Scenario from a parsed document."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    if _number(doc, "format_version", "document") != FORMAT_VERSION:
        raise ScenarioError(f"unsupported format_version {doc['format_version']!r}")
    region = _pair(doc, "region", "document")
    channel = _section(ChannelParams, _require(doc, "channel", "document"), "channel")
    uav = _section(UavParams, _require(doc, "uav", "document"), "uav")
    nodes_raw = _require(doc, "nodes", "document")
    if not isinstance(nodes_raw, list) or not nodes_raw:
        raise ScenarioError("nodes must be a nonempty list")
    nodes = [_section(Node, item, f"node {i + 1}") for i, item in enumerate(nodes_raw)]
    scenario = Scenario(nodes=nodes, channel=channel, uav=uav, region=region)
    scenario.validate()
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario document from a YAML file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"could not parse scenario file: {exc}") from exc
    return from_document(doc)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write a validated scenario to a YAML document."""
    scenario.validate()
    with open(path, "w", encoding="utf-8") as fh:
        yaml.dump(scenario.to_document(), fh, Dumper=_YAML_DUMPER, sort_keys=False)


def generate_scenario(
    num_nodes: int,
    seed: int,
    region: float | tuple[float, float] = DEFAULT_REGION,
    altitude_m: float = UavParams.altitude_m,
    vmax: float = UavParams.vmax_x,
    horizon_s: float = UavParams.horizon_s,
) -> Scenario:
    """Draw a random instance: uniform node placement, batteries U[0.1, 1] J,
    weights uniform then normalized, uniform random endpoints, default channel.

    A scalar region means a square of that side. The draw order below is
    fixed; the same (num_nodes, seed, region) always yields the same
    scenario.
    """
    if num_nodes < 1:
        raise ScenarioError("num_nodes must be at least 1")
    if np.isscalar(region):
        region = (float(region), float(region))
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, region[0], num_nodes)
    ys = rng.uniform(0.0, region[1], num_nodes)
    batteries = rng.uniform(0.1, 1.0, num_nodes)
    raw_w = rng.uniform(0.0, 1.0, num_nodes)
    while raw_w.sum() <= 0:
        raw_w = rng.uniform(0.0, 1.0, num_nodes)
    weights = raw_w / raw_w.sum()
    initial = (float(rng.uniform(0.0, region[0])), float(rng.uniform(0.0, region[1])))
    final = (float(rng.uniform(0.0, region[0])), float(rng.uniform(0.0, region[1])))
    # Redraw the final point if the horizon is too tight to reach it.
    tries = 0
    while (
        abs(final[0] - initial[0]) > vmax * horizon_s
        or abs(final[1] - initial[1]) > vmax * horizon_s
    ):
        final = (float(rng.uniform(0.0, region[0])), float(rng.uniform(0.0, region[1])))
        tries += 1
        if tries > 100:
            final = initial
            break

    nodes = [
        Node(x=float(x), y=float(y), battery_j=float(b), weight=float(w))
        for x, y, b, w in zip(xs, ys, batteries, weights)
    ]
    scenario = Scenario(
        nodes=nodes,
        channel=ChannelParams(),
        uav=UavParams(
            initial=initial,
            final=final,
            altitude_m=altitude_m,
            vmax_x=vmax,
            vmax_y=vmax,
            horizon_s=horizon_s,
        ),
        region=region,
    )
    scenario.validate()
    return scenario
