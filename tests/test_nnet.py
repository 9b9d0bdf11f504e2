"""Dense and LSTM kernels, optimizers, and the checkpoint container."""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aoiplan import CheckpointError, NonFiniteGradientError, Seq2SeqAutoencoder
from aoiplan.nnet import (
    AdamOptimizer,
    DenseNet,
    LstmCell,
    SgdOptimizer,
    glorot_uniform,
    gradient_check,
    load_checkpoint,
    make_optimizer,
    save_checkpoint,
)
from aoiplan.nnet import kernels


def test_glorot_bounds():
    rng = np.random.default_rng(0)
    w = glorot_uniform(rng, 64, 32)
    limit = np.sqrt(6.0 / (64 + 32))
    assert w.shape == (64, 32)
    assert np.max(np.abs(w)) <= limit
    assert np.std(w) > 0.1 * limit


def test_dense_init_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        DenseNet.init([4], ["relu"], rng)
    with pytest.raises(ValueError):
        DenseNet.init([4, 3], ["relu", "relu"], rng)
    with pytest.raises(ValueError):
        DenseNet.init([4, 3], ["softplus"], rng)


def test_dense_forward_matches_manual():
    rng = np.random.default_rng(1)
    net = DenseNet.init([3, 2], ["identity"], rng)
    x = rng.normal(size=(5, 3))
    y = net.forward(x)
    assert np.allclose(y, x @ net.ws[0].T + net.bs[0], atol=1e-15)


def test_dense_gradient_check():
    rng = np.random.default_rng(2)
    net = DenseNet.init([4, 8, 3], ["tanh", "identity"], rng)
    x = rng.normal(size=(6, 4))
    target = rng.normal(size=(6, 3))

    def loss_fn(flat):
        net.set_flat(flat)
        return 0.5 * float(np.sum((net.forward(x) - target) ** 2))

    def grad_fn(flat):
        net.set_flat(flat)
        y, acts = net.forward_cached(x)
        dws, dbs, _ = net.backward(acts, y - target)
        return net.grads_flat(dws, dbs)

    worst = gradient_check(loss_fn, grad_fn, net.params_flat(), rng)
    assert worst <= 1e-5


def test_linear_model_gradient_is_exact():
    # Quadratic loss of a linear model: central differences are exact to
    # roundoff.
    rng = np.random.default_rng(3)
    net = DenseNet.init([3, 2], ["identity"], rng)
    x = rng.normal(size=(4, 3))
    target = rng.normal(size=(4, 2))

    def loss_fn(flat):
        net.set_flat(flat)
        return 0.5 * float(np.sum((net.forward(x) - target) ** 2))

    def grad_fn(flat):
        net.set_flat(flat)
        y, acts = net.forward_cached(x)
        dws, dbs, _ = net.backward(acts, y - target)
        return net.grads_flat(dws, dbs)

    worst = gradient_check(loss_fn, grad_fn, net.params_flat(), rng, eps=1e-5)
    assert worst <= 1e-9


def test_dense_flat_round_trip():
    rng = np.random.default_rng(4)
    net = DenseNet.init([3, 5, 2], ["relu", "identity"], rng)
    flat = net.params_flat()
    other = net.clone()
    other.set_flat(flat * 2.0)
    assert np.allclose(other.params_flat(), flat * 2.0, atol=0)
    assert np.allclose(net.params_flat(), flat, atol=0)
    with pytest.raises(ValueError):
        net.set_flat(flat[:-1])


def _model(kind):
    rng = np.random.default_rng(6)
    if kind == "dense":
        return DenseNet.init([3, 5, 2], ["relu", "identity"], rng)
    if kind == "lstm":
        return LstmCell.init(3, 4, rng)
    return Seq2SeqAutoencoder.init(3, 4, rng)


@pytest.mark.parametrize("kind", ["dense", "lstm", "autoencoder"])
def test_flat_vector_is_the_checkpoint_arrays_in_order(kind):
    model = _model(kind)
    want = np.concatenate([arr.ravel() for _, arr in model.to_arrays()])
    assert np.array_equal(model.params_flat(), want)
    flat = np.arange(want.size, dtype=float)
    model.set_flat(flat)
    assert np.array_equal(model.params_flat(), flat)


@pytest.mark.parametrize("kind", ["dense", "lstm", "autoencoder"])
@pytest.mark.parametrize("extra", [-1, 1])
def test_wrong_length_flat_vector_changes_nothing(kind, extra):
    model = _model(kind)
    before = [(name, arr.copy()) for name, arr in model.to_arrays()]
    with pytest.raises(ValueError):
        model.set_flat(np.zeros(model.params_flat().size + extra))
    for (name, arr), (_, old) in zip(model.to_arrays(), before):
        assert arr.shape == old.shape and np.array_equal(arr, old), name


def _output(model, xs):
    if isinstance(model, DenseNet):
        return model.forward(xs)
    if isinstance(model, LstmCell):
        return model.seq_forward(xs)[0]
    return model.encode_columns(xs)


@pytest.mark.parametrize("kind", ["dense", "lstm", "autoencoder"])
def test_parameter_arrays_are_views_of_the_flat_vector(kind):
    model = _model(kind)
    assert model.flat.dtype == np.float64 and model.flat.ndim == 1
    for name, arr in model.to_arrays():
        assert np.shares_memory(arr, model.flat), name
    if kind == "autoencoder":
        for part in (model.encoder, model.decoder, model.head):
            assert np.shares_memory(part.flat, model.flat)
    # Writing through an array shows in the vector, and the other way round.
    name, arr = model.to_arrays()[0]
    arr.flat[0] = 123.0
    assert model.flat[0] == 123.0
    model.flat[-1] = -7.0
    assert model.to_arrays()[-1][1].ravel()[-1] == -7.0


@pytest.mark.parametrize("kind", ["dense", "lstm", "autoencoder"])
def test_set_flat_changes_the_forward_output(kind):
    model = _model(kind)
    xs = np.random.default_rng(1).normal(size=(4, 3))
    before = _output(model, xs)
    model.set_flat(model.params_flat() * 1.5 + 0.1)
    after = _output(model, xs)
    assert not np.array_equal(before, after)
    model.set_flat(np.zeros(model.flat.size))
    assert np.array_equal(_output(model, xs), np.zeros_like(after))


@pytest.mark.parametrize("kind", ["dense", "lstm", "autoencoder"])
def test_params_flat_is_a_copy_callers_may_mutate(kind):
    model = _model(kind)
    want = model.flat.copy()
    got = model.params_flat()
    assert not np.shares_memory(got, model.flat)
    got[:] = 5.0
    assert np.array_equal(model.flat, want)
    assert np.array_equal(model.params_flat(), want)


@pytest.mark.parametrize("kind", ["dense", "lstm", "autoencoder"])
def test_clone_shares_nothing(kind):
    model = _model(kind)
    twin = model.clone()
    assert type(twin) is type(model)
    assert np.array_equal(twin.flat, model.flat)
    assert not np.shares_memory(twin.flat, model.flat)
    for (name, a), (_, b) in zip(twin.to_arrays(), model.to_arrays(), strict=True):
        assert np.shares_memory(a, twin.flat) and not np.shares_memory(a, b), name
    xs = np.random.default_rng(2).normal(size=(3, 3))
    want = _output(model, xs)
    twin.set_flat(np.zeros(twin.flat.size))
    assert np.array_equal(_output(model, xs), want)
    model.set_flat(model.params_flat() + 1.0)
    assert not twin.flat.any()


def test_model_built_from_arrays_copies_them():
    rng = np.random.default_rng(8)
    ws = [rng.normal(size=(2, 3))]
    bs = [rng.normal(size=2)]
    net = DenseNet(sizes=(3, 2), activations=("identity",), ws=ws, bs=bs)
    assert not np.shares_memory(net.ws[0], ws[0]) and not np.shares_memory(net.bs[0], bs[0])
    assert np.array_equal(net.flat, np.concatenate([ws[0].ravel(), bs[0]]))
    net.set_flat(np.zeros(net.flat.size))
    assert ws[0].any() and bs[0].any()


def test_zero_lstm_is_silent():
    rng = np.random.default_rng(5)
    cell = LstmCell.init(3, 4, rng)
    cell.set_flat(np.zeros(cell.params_flat().size))
    xs = rng.normal(size=(6, 3))
    hs, cs, _ = cell.seq_forward(xs)
    assert np.allclose(hs, 0.0, atol=0)
    assert np.allclose(cs, 0.0, atol=0)


def test_saturated_gates_hold_cell_state():
    # Forget gate pinned open, input gate pinned shut: the cell state must
    # ride through the whole sequence.
    rng = np.random.default_rng(6)
    cell = LstmCell.init(2, 3, rng)
    k = cell.hidden_size
    cell.wg = np.zeros_like(cell.wg)
    cell.bg = np.zeros_like(cell.bg)
    cell.bg[:k] = 50.0
    cell.bg[k : 2 * k] = -50.0
    c0 = np.array([0.3, -0.7, 1.1])
    xs = rng.normal(size=(10, 2))
    _, cs, _ = cell.seq_forward(xs, h0=np.zeros(k), c0=c0)
    assert np.max(np.abs(cs[-1] - c0)) <= 1e-9


def test_step_matches_seq_forward():
    rng = np.random.default_rng(7)
    cell = LstmCell.init(3, 4, rng)
    xs = rng.normal(size=(5, 3))
    hs, cs, _ = cell.seq_forward(xs)
    h = np.zeros(4)
    c = np.zeros(4)
    for t in range(5):
        h, c = cell.step(xs[t], h, c)
        assert np.allclose(h, hs[t + 1], atol=1e-12)
        assert np.allclose(c, cs[t + 1], atol=1e-12)


def test_lstm_gradient_check():
    rng = np.random.default_rng(8)
    cell = LstmCell.init(3, 5, rng)
    xs = rng.normal(size=(7, 3))
    target = rng.normal(size=(7, 5))

    def loss_fn(flat):
        cell.set_flat(flat)
        hs, _, _ = cell.seq_forward(xs)
        return 0.5 * float(np.sum((hs[1:] - target) ** 2))

    def grad_fn(flat):
        cell.set_flat(flat)
        hs, cs, gates = cell.seq_forward(xs)
        dwg, dbg, _, _, _ = cell.seq_backward(
            xs, hs, cs, gates, hs[1:] - target, np.zeros(5), np.zeros(5)
        )
        return np.concatenate([dwg.ravel(), dbg.ravel()])

    worst = gradient_check(loss_fn, grad_fn, cell.params_flat(), rng)
    assert worst <= 1e-5


def test_lstm_input_gradient_finite_difference():
    rng = np.random.default_rng(9)
    cell = LstmCell.init(2, 3, rng)
    xs = rng.normal(size=(4, 2))
    hs, cs, gates = cell.seq_forward(xs)
    dhs = np.ones((4, 3))
    _, _, _, _, dxs = cell.seq_backward(
        xs, hs, cs, gates, dhs, np.zeros(3), np.zeros(3)
    )
    eps = 1e-6
    for t in range(4):
        for j in range(2):
            bumped = xs.copy()
            bumped[t, j] += eps
            up = float(np.sum(cell.seq_forward(bumped)[0][1:]))
            bumped[t, j] -= 2 * eps
            down = float(np.sum(cell.seq_forward(bumped)[0][1:]))
            numeric = (up - down) / (2 * eps)
            assert numeric == pytest.approx(dxs[t, j], abs=1e-6)


def _reference_lstm_seq_forward(wg, bg, xs, h0, c0):
    """The per-gate forward kernel the fused one replaced: one activation
    call and one slice write per gate."""
    t_len = xs.shape[0]
    k = h0.size
    hs = np.empty((t_len + 1, k))
    cs = np.empty((t_len + 1, k))
    gates = np.empty((t_len, 4 * k))
    hs[0] = h0
    cs[0] = c0
    for t in range(t_len):
        pre = wg @ np.concatenate([hs[t], xs[t]]) + bg
        f = kernels._sigmoid(pre[:k])
        r = kernels._sigmoid(pre[k : 2 * k])
        cbar = np.tanh(pre[2 * k : 3 * k])
        o = kernels._sigmoid(pre[3 * k :])
        c_new = f * cs[t] + r * cbar
        hs[t + 1] = o * np.tanh(c_new)
        cs[t + 1] = c_new
        gates[t, :k] = f
        gates[t, k : 2 * k] = r
        gates[t, 2 * k : 3 * k] = cbar
        gates[t, 3 * k :] = o
    return hs, cs, gates


def _reference_lstm_seq_backward(wg, xs, hs, cs, gates, dhs, dh_last, dc_last):
    """The per-gate backward kernel the fused one replaced."""
    t_len = xs.shape[0]
    k = dh_last.size
    dwg = np.zeros_like(wg)
    dbg = np.zeros(4 * k)
    dxs = np.zeros_like(xs)
    dh = dh_last.copy()
    dc = dc_last.copy()
    for t in range(t_len - 1, -1, -1):
        if dhs is not None:
            dh = dh + dhs[t]
        f = gates[t, :k]
        r = gates[t, k : 2 * k]
        cbar = gates[t, 2 * k : 3 * k]
        o = gates[t, 3 * k :]
        tanh_c = np.tanh(cs[t + 1])
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        df = dc * cs[t]
        dr = dc * cbar
        dcbar = dc * r
        dc_prev = dc * f
        da = np.concatenate(
            [df * f * (1.0 - f), dr * r * (1.0 - r), dcbar * (1.0 - cbar * cbar), do * o * (1.0 - o)]
        )
        z = np.concatenate([hs[t], xs[t]])
        dwg += np.outer(da, z)
        dbg += da
        dz = wg.T @ da
        dh = dz[:k]
        dc = dc_prev
        dxs[t] = dz[k:]
    return dwg, dbg, dh, dc, dxs


@pytest.mark.parametrize(
    "t_len, k, d_in, scale",
    [(1, 1, 1, 1.0), (1, 4, 3, 1.0), (5, 3, 2, 1.0), (9, 8, 4, 1.0), (6, 16, 7, 0.5), (4, 3, 2, 60.0)],
)
def test_fused_lstm_kernels_equal_per_gate_reference(t_len, k, d_in, scale):
    # scale 60 saturates most gates at 0 or 1 exactly.
    rng = np.random.default_rng(t_len * 100 + k)
    wg = scale * rng.normal(size=(4 * k, k + d_in))
    bg = scale * rng.normal(size=4 * k)
    xs = rng.normal(size=(t_len, d_in))
    h0, c0 = rng.normal(size=k), rng.normal(size=k)
    got = kernels.lstm_seq_forward(wg, bg, xs, h0, c0)
    want = _reference_lstm_seq_forward(wg, bg, xs, h0, c0)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    if scale > 1.0:
        assert np.mean((want[2] == 0.0) | (want[2] == 1.0) | (np.abs(want[2]) == 1.0)) > 0.5
    for dhs in (None, rng.normal(size=(t_len, k))):
        dh_last, dc_last = rng.normal(size=k), rng.normal(size=k)
        got = kernels.lstm_seq_backward(wg, xs, *want, dhs, dh_last, dc_last)
        ref = _reference_lstm_seq_backward(wg, xs, *want, dhs, dh_last, dc_last)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


def test_sigmoid_stable_at_extremes():
    with np.errstate(over="raise", invalid="raise"):
        values = kernels.act_forward("sigmoid", np.array([-800.0, -30.0, 0.0, 30.0, 800.0]))
    assert np.all(np.isfinite(values))
    assert values[0] == 0.0
    assert values[-1] == 1.0
    assert values[2] == 0.5


def test_activations_monotone():
    grid = np.linspace(-30.0, 30.0, 601)
    for name in ("sigmoid", "tanh"):
        out = kernels.act_forward(name, grid)
        assert np.all(np.diff(out) >= 0.0)


def test_sgd_single_step():
    # Quadratic loss 0.5*theta^2 from theta=1 with lr 0.1 lands on 0.9.
    opt = SgdOptimizer(lr=0.1)
    theta = np.array([1.0])
    theta = opt.step(theta, theta.copy())
    assert theta[0] == pytest.approx(0.9, abs=1e-15)


def test_sgd_zero_gradient_is_identity():
    opt = SgdOptimizer(lr=0.5)
    theta = np.array([1.0, -2.0])
    assert np.array_equal(opt.step(theta, np.zeros(2)), theta)


def test_adam_first_step_is_lr_sized():
    opt = AdamOptimizer(lr=0.01)
    theta = np.array([0.0, 0.0])
    out = opt.step(theta, np.array([3.7, -0.004]))
    assert out[0] == pytest.approx(-0.01, rel=1e-5)
    assert out[1] == pytest.approx(0.01, rel=1e-2)


def test_adam_steps_are_the_textbook_update_bit_for_bit():
    rng = np.random.default_rng(11)
    opt = AdamOptimizer(lr=0.01)
    params = want = rng.normal(size=7)
    m = v = np.zeros(7)
    for t in range(1, 6):
        grads = rng.normal(size=7)
        kept = params.copy(), grads.copy()
        m = 0.9 * m + (1 - 0.9) * grads
        v = 0.999 * v + (1 - 0.999) * grads * grads
        want = want - 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        out = opt.step(params, grads)
        assert np.array_equal(out, want)
        assert np.array_equal(params, kept[0]) and np.array_equal(grads, kept[1])
        params = out


def test_optimizers_reject_non_finite_gradients():
    for opt in (SgdOptimizer(lr=0.1), AdamOptimizer(lr=0.1)):
        with pytest.raises(NonFiniteGradientError):
            opt.step(np.zeros(2), np.array([1.0, np.nan]))


def test_make_optimizer_names():
    assert isinstance(make_optimizer("sgd", 0.1), SgdOptimizer)
    assert isinstance(make_optimizer("adam", 0.1), AdamOptimizer)
    with pytest.raises(ValueError):
        make_optimizer("rmsprop", 0.1)


def test_sgd_descends_convex_probe():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(20, 4))
    b = rng.normal(size=20)
    theta = rng.normal(size=4)
    best = np.linalg.lstsq(a, b, rcond=None)[0]
    resid_best = a @ best - b
    floor = 0.5 * float(resid_best @ resid_best)
    opt = SgdOptimizer(lr=0.01)
    losses = []
    for _ in range(300):
        resid = a @ theta - b
        losses.append(0.5 * float(resid @ resid))
        theta = opt.step(theta, a.T @ resid)
    assert all(y <= x + 1e-12 for x, y in zip(losses, losses[1:]))
    assert losses[-1] - floor < 0.05 * (losses[0] - floor)


def test_gradient_check_flags_wrong_gradient():
    rng = np.random.default_rng(12)
    params = rng.normal(size=5)

    def loss_fn(p):
        return 0.5 * float(p @ p)

    assert gradient_check(loss_fn, lambda p: p, params, rng) <= 1e-9
    assert gradient_check(loss_fn, lambda p: 2.0 * p, params, rng) > 0.1


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    net = DenseNet.init([3, 4, 2], ["relu", "identity"], rng)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, "qnet", net.to_arrays(), {"note": "round trip", "n": 3})
    kind, arrays, meta = load_checkpoint(path)
    assert kind == "qnet"
    assert meta["note"] == "round trip" and meta["n"] == 3
    for i, w in enumerate(net.ws):
        assert np.array_equal(arrays[f"w{i}"], w)
    for i, b in enumerate(net.bs):
        assert np.array_equal(arrays[f"b{i}"], b)


def test_checkpoint_rejects_corruption(tmp_path):
    rng = np.random.default_rng(14)
    net = DenseNet.init([2, 2], ["identity"], rng)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, "qnet", net.to_arrays())
    blob = path.read_bytes()

    flipped = bytearray(blob)
    flipped[len(flipped) // 2] ^= 0xFF
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(flipped))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)

    bad.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)

    bad.write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)

    bad.write_bytes(blob + b"extra")
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)

    bad.write_bytes(b"")
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


def _with_header(blob: bytes, header) -> bytes:
    """The checkpoint blob with its JSON header replaced and the CRC redone."""
    (header_len,) = struct.unpack("<I", blob[8:12])
    header_bytes = json.dumps(header).encode("utf-8")
    body = blob[:8] + struct.pack("<I", len(header_bytes)) + header_bytes
    body += blob[12 + header_len : -4]
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _saved_checkpoint(tmp_path) -> tuple[bytes, dict]:
    net = DenseNet.init([3, 4], ["identity"], np.random.default_rng(15))
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, "qnet", net.to_arrays(), {"n": 2})
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<I", blob[8:12])
    return blob, json.loads(blob[12 : 12 + header_len])


def _set_shape(shape):
    def edit(header):
        header["arrays"][0]["shape"] = shape
        return header

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set_shape([2, "x"]),
        _set_shape(None),
        lambda header: {k: v for k, v in header.items() if k != "arrays"},
        lambda header: [header],
        _set_shape([-1, -8]),
    ],
    ids=["shape-str", "shape-null", "no-arrays", "header-list", "shape-negative"],
)
def test_checkpoint_malformed_header_raises_checkpoint_error(tmp_path, edit):
    blob, header = _saved_checkpoint(tmp_path)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_header(blob, edit(header)))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


def _sealed(magic: bytes, header_bytes: bytes, payload: bytes) -> bytes:
    """A checkpoint blob of these parts whose CRC footer is valid."""
    body = magic + struct.pack("<I", len(header_bytes)) + header_bytes + payload
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _header_bytes(shape) -> bytes:
    header = {"version": 1, "kind": "qnet", "arrays": [{"name": "w0", "shape": shape}], "meta": {}}
    return json.dumps(header).encode("utf-8")


@pytest.mark.parametrize(
    "blob, message",
    [
        (_sealed(b"NOTMAGIC", _header_bytes([1]), bytes(8)), "not a checkpoint file"),
        (_sealed(b"AOIPNET1", b"{x}", b""), "corrupt checkpoint header"),
        (_sealed(b"AOIPNET1", _header_bytes([2]), bytes(8)), "checkpoint payload is truncated"),
        (_sealed(b"AOIPNET1", _header_bytes([0, 2**70]), b""), r"checkpoint array shape \[0, "),
    ],
    ids=["magic", "header-not-json", "payload-short", "shape-overflow"],
)
def test_checkpoint_body_checks_behind_a_valid_crc(tmp_path, blob, message):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(bad)


_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
_near_header = st.fixed_dictionaries(
    {
        "version": st.just(1) | _json,
        "kind": st.just("qnet") | _json,
        "arrays": st.lists(
            st.fixed_dictionaries(
                {
                    "name": st.sampled_from(["w0", "b0"]) | _json,
                    "shape": st.lists(st.integers(-2, 2**40) | _json, max_size=3) | _json,
                }
            ),
            max_size=3,
        )
        | _json,
        "meta": st.just({}) | _json,
    }
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=_near_header | _json)
def test_checkpoint_fuzzed_header_raises_only_checkpoint_error(tmp_path, header):
    blob, _ = _saved_checkpoint(tmp_path)
    bad = tmp_path / "fuzz.ckpt"
    bad.write_bytes(_with_header(blob, header))
    try:
        load_checkpoint(bad)
    except CheckpointError:
        pass
