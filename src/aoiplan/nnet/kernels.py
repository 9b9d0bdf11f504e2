"""Numpy kernels for the small dense and recurrent nets.

layers.py looks each kernel up on this module at call time, so a profiler
can wrap them with setattr for the length of a run.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-log(1 + e^-x)): no overflow, full relative precision for x << 0.
    return np.exp(-np.logaddexp(0.0, -x))


# Each activation by name: its output given the pre-activation z, and the
# gradient through it given its output a and the upstream gradient da.
ACTIVATIONS = {
    "identity": (lambda z: z.copy(), lambda a, da: da.copy()),
    "relu": (lambda z: np.maximum(z, 0.0), lambda a, da: da * (a > 0.0)),
    "sigmoid": (_sigmoid, lambda a, da: da * a * (1.0 - a)),
    "tanh": (np.tanh, lambda a, da: da * (1.0 - a * a)),
}


def act_forward(name: str, z: np.ndarray) -> np.ndarray:
    return ACTIVATIONS[name][0](z)


def act_backward(name: str, a: np.ndarray, da: np.ndarray) -> np.ndarray:
    """Gradient through an activation given its output a and upstream da."""
    return ACTIVATIONS[name][1](a, da)


def dense_forward(
    x: np.ndarray, ws: list[np.ndarray], bs: list[np.ndarray], activations: tuple[str, ...]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass through a fully connected stack.

    Returns the output and the list of layer activations starting with the
    input (needed by dense_backward).
    """
    acts = [np.asarray(x, dtype=np.float64)]
    a = acts[0]
    for w, b, name in zip(ws, bs, activations):
        z = a @ w.T + b
        a = act_forward(name, z)
        acts.append(a)
    return a, acts


def dense_backward(
    ws: list[np.ndarray],
    activations: tuple[str, ...],
    acts: list[np.ndarray],
    dy: np.ndarray,
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Backward pass matching dense_forward. Returns (dws, dbs, dx)."""
    num_layers = len(ws)
    dws: list[np.ndarray] = [None] * num_layers  # type: ignore[list-item]
    dbs: list[np.ndarray] = [None] * num_layers  # type: ignore[list-item]
    da = np.asarray(dy, dtype=np.float64)
    for layer in range(num_layers - 1, -1, -1):
        dz = act_backward(activations[layer], acts[layer + 1], da)
        dws[layer] = dz.T @ acts[layer]
        dbs[layer] = dz.sum(axis=0)
        da = dz @ ws[layer]
    return dws, dbs, da


def lstm_seq_forward(
    wg: np.ndarray,
    bg: np.ndarray,
    xs: np.ndarray,
    h0: np.ndarray,
    c0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run a gated recurrent cell over a sequence.

    wg stacks the four gate weight blocks [forget; input; candidate; output]
    over the concatenated (previous hidden, current input) vector. Returns
    hidden states hs (T+1, k with hs[0] = h0), cell states cs, and the
    post-activation gate values (T, 4k) for the backward pass.
    """
    t_len, d_in = xs.shape
    k = h0.size
    hs = np.empty((t_len + 1, k))
    cs = np.empty((t_len + 1, k))
    gates = np.empty((t_len, 4 * k))
    hs[0] = h0
    cs[0] = c0
    for t in range(t_len):
        z = np.concatenate([hs[t], xs[t]])
        pre = wg @ z + bg
        # One sigmoid over all four blocks; the candidate block is then
        # overwritten with its tanh.
        g = gates[t]
        g[:] = _sigmoid(pre)
        g[2 * k : 3 * k] = np.tanh(pre[2 * k : 3 * k])
        c_new = g[:k] * cs[t] + g[k : 2 * k] * g[2 * k : 3 * k]
        hs[t + 1] = g[3 * k :] * np.tanh(c_new)
        cs[t + 1] = c_new
    return hs, cs, gates


def lstm_seq_backward(
    wg: np.ndarray,
    xs: np.ndarray,
    hs: np.ndarray,
    cs: np.ndarray,
    gates: np.ndarray,
    dhs: np.ndarray | None,
    dh_last: np.ndarray,
    dc_last: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagate through lstm_seq_forward.

    dhs carries per-step gradients on the hidden outputs (may be None);
    dh_last/dc_last are gradients on the final hidden and cell state.
    Returns (dwg, dbg, dh0, dc0, dxs).
    """
    t_len, d_in = xs.shape
    k = dh_last.size
    dwg = np.zeros_like(wg)
    dbg = np.zeros(4 * k)
    dxs = np.zeros_like(xs)
    dh = dh_last.copy()
    dc = dc_last.copy()
    for t in range(t_len - 1, -1, -1):
        if dhs is not None:
            dh = dh + dhs[t]
        g = gates[t]
        f = g[:k]
        r = g[k : 2 * k]
        cbar = g[2 * k : 3 * k]
        o = g[3 * k :]
        tanh_c = np.tanh(cs[t + 1])
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        # Upstream gradients of the four gates [f; r; cbar; o] as one vector,
        # through the sigmoid at once; the candidate block goes through tanh.
        dg = np.concatenate([dc * cs[t], dc * cbar, dc * r, dh * tanh_c])
        da = dg * g * (1.0 - g)
        da[2 * k : 3 * k] = dg[2 * k : 3 * k] * (1.0 - cbar * cbar)
        dc_prev = dc * f
        z = np.concatenate([hs[t], xs[t]])
        dwg += np.outer(da, z)
        dbg += da
        dz = wg.T @ da
        dh = dz[:k]
        dc = dc_prev
        dxs[t] = dz[k:]
    return dwg, dbg, dh, dc, dxs
