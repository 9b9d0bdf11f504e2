"""Dense and recurrent layers over the numpy kernels, plus checkpoints.

Every model keeps its parameters in one float64 vector, and its named
arrays are reshaped views of that vector. Reading the vector is one copy
and an optimizer step writes it back with one slice assignment.
Checkpoints store the named arrays.
"""

from __future__ import annotations

import copy
import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from ..errors import CheckpointError, NonFiniteGradientError
from . import kernels


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_out, fan_in))


def flatten(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """One vector of the arrays' entries, in order."""
    return np.concatenate([a.ravel() for a in arrays])


def prefixed(prefix: str, arrays: list[tuple[str, np.ndarray]]) -> list[tuple[str, np.ndarray]]:
    """A part's named arrays under ``prefix_``, as checkpoints name them."""
    return [(f"{prefix}_{name}", arr) for name, arr in arrays]


class FlatModel:
    """A model whose parameters are views of one float64 vector, ``flat``.

    The vector holds the ``to_arrays()`` entries in order, and each named
    array is a reshaped slice of it, so writing the vector writes every
    parameter. A model built from arrays copies them into a new vector.
    Rebinding an array attribute detaches it from the vector.
    """

    flat: np.ndarray

    def to_arrays(self) -> list[tuple[str, np.ndarray]]:
        raise NotImplementedError

    def _set_arrays(self, arrays: list[np.ndarray]) -> None:
        """Point the parameter attributes at arrays, in to_arrays order."""
        raise NotImplementedError

    def _bind(self, flat: np.ndarray) -> None:
        """Take flat as the parameter vector and the arrays as its slices."""
        views = []
        offset = 0
        for _, arr in self.to_arrays():
            views.append(flat[offset : offset + arr.size].reshape(arr.shape))
            offset += arr.size
        self.flat = flat
        self._set_arrays(views)

    def __post_init__(self) -> None:
        self._bind(
            np.concatenate([arr.ravel() for _, arr in self.to_arrays()], dtype=np.float64)
        )

    def params_flat(self) -> np.ndarray:
        """A copy of the parameter vector."""
        return self.flat.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        """Write flat into the parameters in place; a vector of the wrong
        length raises before anything is written."""
        if flat.size != self.flat.size:
            raise ValueError("flat parameter vector has the wrong length")
        self.flat[:] = flat

    def clone(self) -> FlatModel:
        """The same model over a copy of the parameter vector."""
        twin = copy.copy(self)
        twin._bind(self.flat.copy())
        return twin


@dataclass
class DenseNet(FlatModel):
    """Fully connected stack; activations are named per layer."""

    sizes: tuple[int, ...]
    activations: tuple[str, ...]
    ws: list[np.ndarray]
    bs: list[np.ndarray]

    @classmethod
    def init(
        cls,
        sizes: tuple[int, ...] | list[int],
        activations: tuple[str, ...] | list[str],
        rng: np.random.Generator,
    ) -> "DenseNet":
        sizes = tuple(int(s) for s in sizes)
        activations = tuple(activations)
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if len(activations) != len(sizes) - 1:
            raise ValueError("need one activation per layer")
        for name in activations:
            if name not in kernels.ACTIVATIONS:
                raise ValueError(f"unknown activation {name!r}")
        ws = [
            glorot_uniform(rng, sizes[i + 1], sizes[i])
            for i in range(len(sizes) - 1)
        ]
        bs = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
        return cls(sizes=sizes, activations=activations, ws=ws, bs=bs)

    def forward(self, x: np.ndarray) -> np.ndarray:
        single = x.ndim == 1
        batch = x[None, :] if single else x
        y, _ = kernels.dense_forward(batch, self.ws, self.bs, self.activations)
        return y[0] if single else y

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        return kernels.dense_forward(x, self.ws, self.bs, self.activations)

    def backward(
        self, acts: list[np.ndarray], dy: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        return kernels.dense_backward(self.ws, self.activations, acts, dy)

    def grads_flat(self, dws: list[np.ndarray], dbs: list[np.ndarray]) -> np.ndarray:
        """Gradients packed in the order of to_arrays."""
        return flatten(g for pair in zip(dws, dbs) for g in pair)

    def to_arrays(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, (w, b) in enumerate(zip(self.ws, self.bs)):
            out.append((f"w{i}", w))
            out.append((f"b{i}", b))
        return out

    def _set_arrays(self, arrays: list[np.ndarray]) -> None:
        self.ws = arrays[0::2]
        self.bs = arrays[1::2]


@dataclass
class LstmCell(FlatModel):
    """Single recurrent cell with forget, input, candidate, and output gates.

    The cell state and hidden state share one size; the four gate blocks
    are stacked in wg over the concatenated (hidden, input) vector.
    """

    input_size: int
    hidden_size: int
    wg: np.ndarray
    bg: np.ndarray

    @classmethod
    def init(cls, input_size: int, hidden_size: int, rng: np.random.Generator) -> "LstmCell":
        k = int(hidden_size)
        d = int(input_size)
        wg = glorot_uniform(rng, 4 * k, k + d)
        bg = np.zeros(4 * k)
        return cls(input_size=d, hidden_size=k, wg=wg, bg=bg)

    def seq_forward(
        self,
        xs: np.ndarray,
        h0: np.ndarray | None = None,
        c0: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if h0 is None:
            h0 = np.zeros(self.hidden_size)
        if c0 is None:
            c0 = np.zeros(self.hidden_size)
        return kernels.lstm_seq_forward(self.wg, self.bg, xs, h0, c0)

    def seq_backward(
        self,
        xs: np.ndarray,
        hs: np.ndarray,
        cs: np.ndarray,
        gates: np.ndarray,
        dhs: np.ndarray | None,
        dh_last: np.ndarray,
        dc_last: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return kernels.lstm_seq_backward(
            self.wg, xs, hs, cs, gates, dhs, dh_last, dc_last
        )

    def step(
        self, x: np.ndarray, h: np.ndarray, c: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        hs, cs, _ = kernels.lstm_seq_forward(
            self.wg, self.bg, x[None, :], h, c
        )
        return hs[1], cs[1]

    def to_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [("wg", self.wg), ("bg", self.bg)]

    def _set_arrays(self, arrays: list[np.ndarray]) -> None:
        self.wg, self.bg = arrays


class SgdOptimizer:
    """Plain gradient descent."""

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        if not np.isfinite(grads).all():
            raise NonFiniteGradientError("gradient contains non-finite entries")
        return params - self.lr * grads


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamOptimizer:
    """Adaptive moment estimation with decays ADAM_BETA1, ADAM_BETA2 and offset ADAM_EPS."""

    def __init__(self, lr: float):
        self.lr = lr
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        if not np.isfinite(grads).all():
            raise NonFiniteGradientError("gradient contains non-finite entries")
        if self._m is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        self._t += 1
        # m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) g g,
        # evaluated in place in the same order.
        self._m *= ADAM_BETA1
        self._m += (1 - ADAM_BETA1) * grads
        self._v *= ADAM_BETA2
        self._v += (1 - ADAM_BETA2) * grads * grads
        m_hat = self._m / (1 - ADAM_BETA1**self._t)
        v_hat = self._v / (1 - ADAM_BETA2**self._t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def make_optimizer(name: str, lr: float):
    if name == "sgd":
        return SgdOptimizer(lr)
    if name == "adam":
        return AdamOptimizer(lr)
    raise ValueError(f"unknown optimizer {name!r}")


def gradient_check(
    loss_fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    params: np.ndarray,
    rng: np.random.Generator,
    num_probes: int = 12,
    eps: float = 1e-6,
) -> float:
    """Compare analytic directional derivatives against central differences.

    Returns the worst relative disagreement across random unit directions.
    """
    grad = grad_fn(params)
    worst = 0.0
    for _ in range(num_probes):
        direction = rng.standard_normal(params.size)
        direction /= np.linalg.norm(direction)
        analytic = float(grad @ direction)
        plus = loss_fn(params + eps * direction)
        minus = loss_fn(params - eps * direction)
        numeric = (plus - minus) / (2 * eps)
        scale = max(1.0, abs(analytic), abs(numeric))
        worst = max(worst, abs(analytic - numeric) / scale)
    return worst


# ---------------------------------------------------------------------------
# Checkpoints: versioned shape manifest + flat little-endian float64 payload
# ---------------------------------------------------------------------------

_MAGIC = b"AOIPNET1"
_CHECKPOINT_VERSION = 1


def save_checkpoint(
    path: str | Path,
    kind: str,
    arrays: list[tuple[str, np.ndarray]],
    meta: dict[str, Any] | None = None,
) -> None:
    """Write named parameter arrays with an integrity footer."""
    header = {
        "version": _CHECKPOINT_VERSION,
        "kind": kind,
        "arrays": [
            {"name": name, "shape": list(arr.shape)} for name, arr in arrays
        ],
        "meta": meta or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in arrays
    )
    body = _MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes + payload
    crc = zlib.crc32(body) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", crc))


def load_checkpoint(path: str | Path) -> tuple[str, dict[str, np.ndarray], dict[str, Any]]:
    """Read a checkpoint, verifying magic, version, and CRC."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + 8:
        raise CheckpointError("checkpoint file is truncated")
    body, crc_bytes = blob[:-4], blob[-4:]
    (crc_stored,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise CheckpointError("checkpoint CRC mismatch")
    if body[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError("not a checkpoint file")
    offset = len(_MAGIC)
    (header_len,) = struct.unpack("<I", body[offset : offset + 4])
    offset += 4
    try:
        header = json.loads(body[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    offset += header_len
    _check_header(header)
    arrays: dict[str, np.ndarray] = {}
    for spec in header["arrays"]:
        shape = tuple(spec["shape"])
        nbytes = math.prod(shape) * 8
        chunk = body[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError("checkpoint payload is truncated")
        try:
            arrays[spec["name"]] = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        except (ValueError, OverflowError) as exc:
            raise CheckpointError(f"checkpoint array shape {list(shape)}: {exc}") from exc
        offset += nbytes
    if offset != len(body):
        raise CheckpointError("checkpoint payload has trailing bytes")
    return header["kind"], arrays, header.get("meta", {})


def _check_header(header: Any) -> None:
    """Raise CheckpointError unless the header has the layout save_checkpoint writes."""
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    if header.get("version") != _CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {header.get('version')}")
    if not isinstance(header.get("kind"), str):
        raise CheckpointError("checkpoint kind is not a string")
    if not isinstance(header.get("meta", {}), dict):
        raise CheckpointError("checkpoint meta is not a JSON object")
    specs = header.get("arrays")
    if not isinstance(specs, list):
        raise CheckpointError("checkpoint array index is not a list")
    for spec in specs:
        if not (
            isinstance(spec, dict)
            and isinstance(spec.get("name"), str)
            and isinstance(spec.get("shape"), list)
            and all(type(v) is int and v >= 0 for v in spec["shape"])
        ):
            raise CheckpointError(f"malformed checkpoint array entry {spec!r}")
