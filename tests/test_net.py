"""Velocity-network contracts: determinism, JVP, QK-norm, time embedding."""

import functools

import numpy as np
import pytest

import tfdl
from oracles import softmax, swap_last
from tfdl.autodiff import _RMS_EPS, Dual, Var, reshape, vmean, vsum
from tfdl.errors import NumericsError
from tfdl.net import _ROW_BLOCK, N_TOKENS, NetSpec


def _probe(rng, n=8, k=3):
    x = rng.standard_normal((n, 2))
    t = rng.uniform(0.05, 1.4, n)
    y = rng.integers(0, k, n)
    cfg = rng.uniform(0.0, 5.0, n)
    return x, t, y, cfg


def test_zero_output_projection_gives_zero():
    net = tfdl.VelocityNet(3, seed=0)  # default init zeroes the output head
    rng = np.random.default_rng(1)
    out = net.forward(*_probe(rng))
    np.testing.assert_array_equal(out, np.zeros_like(out))


def test_forward_deterministic():
    net = tfdl.VelocityNet(3, seed=0, zero_out=False)
    rng = np.random.default_rng(2)
    args = _probe(rng)
    np.testing.assert_array_equal(net.forward(*args), net.forward(*args))


def test_nan_input_rejected():
    net = tfdl.VelocityNet(1, seed=0)
    x = np.full((2, 2), np.nan)
    with pytest.raises(NumericsError):
        net.forward(x, 0.5, 0)


def test_jvp_matches_finite_differences():
    rng = np.random.default_rng(3)
    net = tfdl.VelocityNet(3, seed=4, zero_out=False)
    x, t, y, cfg = _probe(rng)
    x_tan = rng.standard_normal(x.shape)
    t_tan = rng.standard_normal(t.shape)
    _, tan = net.jvp(x, t, y, cfg, x_tan, t_tan)
    h = 1e-5
    fd = (net.forward(x + h * x_tan, t + h * t_tan, y, cfg)
          - net.forward(x - h * x_tan, t - h * t_tan, y, cfg)) / (2 * h)
    rel = np.abs(tan - fd).max() / max(np.abs(fd).max(), 1e-12)
    assert rel < 1e-4


def test_jvp_zero_tangents_give_zero():
    rng = np.random.default_rng(4)
    net = tfdl.VelocityNet(2, seed=5, zero_out=False)
    x, t, y, cfg = _probe(rng, k=2)
    _, tan = net.jvp(x, t, y, cfg, np.zeros_like(x), np.zeros_like(t))
    np.testing.assert_array_equal(tan, np.zeros_like(tan))


def test_jvp_vjp_consistency_through_net():
    rng = np.random.default_rng(5)
    net = tfdl.VelocityNet(3, seed=6, zero_out=False)
    x, t, y, cfg = _probe(rng)
    x_tan = rng.standard_normal(x.shape)
    t_tan = rng.standard_normal(t.shape)
    u = rng.standard_normal((len(x), 2))
    _, jv = net.jvp(x, t, y, cfg, x_tan, t_tan)
    xv, tv = Var(x), Var(t)
    out = net.forward(xv, tv, y, cfg)
    vsum(out * u).backward()
    lhs = float(np.sum(u * jv))
    rhs = float(np.sum(xv.grad * x_tan) + np.sum(tv.grad * t_tan))
    assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1e-10)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(6)
    net = tfdl.VelocityNet(2, seed=7, zero_out=False)
    x, t, y, cfg = _probe(rng, n=6, k=2)

    def loss_fn(P):
        out = net.forward(x, t, y, cfg, params=P)
        return vmean(out * out)

    val, grad = net.value_and_grad(loss_fn)
    flat = net.params.flat
    h = 1e-6
    idx = rng.integers(0, flat.size, 20)
    for i in idx:
        orig = flat[i]
        flat[i] = orig + h
        lp = float(np.asarray(loss_fn({n_: net.params[n_] for n_ in net.params.names})))
        flat[i] = orig - h
        lm = float(np.asarray(loss_fn({n_: net.params[n_] for n_ in net.params.names})))
        flat[i] = orig
        fd = (lp - lm) / (2 * h)
        assert abs(fd - grad[i]) <= 1e-4 * max(abs(fd), 1e-6)


def test_constant_loss_has_zero_gradient():
    net = tfdl.VelocityNet(1, seed=8)
    grad = net.value_and_grad(lambda P: vsum(P["in_w"] * 0.0) + 3.0)[1]
    np.testing.assert_array_equal(grad, np.zeros_like(grad))


def test_gradient_linear_in_batch():
    rng = np.random.default_rng(7)
    net = tfdl.VelocityNet(2, seed=9, zero_out=False)
    x, t, y, cfg = _probe(rng, n=4, k=2)

    def loss_sum(P, sl):
        out = net.forward(x[sl], t[sl], y[sl], cfg[sl], params=P)
        return vsum(out * out)

    g_full = net.value_and_grad(lambda P: loss_sum(P, slice(None)))[1]
    g_parts = sum(net.value_and_grad(lambda P, i=i: loss_sum(P, slice(i, i + 1)))[1]
                  for i in range(4))
    np.testing.assert_allclose(g_full, g_parts, rtol=1e-10, atol=1e-12)


def test_qk_norm_scale_invariance():
    rng = np.random.default_rng(8)
    x, t, y, cfg = _probe(rng)
    for qk_norm, invariant in ((True, True), (False, False)):
        net = tfdl.VelocityNet(3, spec=NetSpec(qk_norm=qk_norm), seed=10, zero_out=False)
        # the output projection of the attention block starts at zero; give it
        # weight so the block actually reaches the network output
        net.params["attn_wo"] = rng.standard_normal(net.params.shapes["attn_wo"])
        base = net.forward(x, t, y, cfg)
        net.params["attn_wq"] = net.params["attn_wq"] * 3.0
        net.params["attn_wk"] = net.params["attn_wk"] * 3.0
        scaled = net.forward(x, t, y, cfg)
        diff = np.abs(scaled - base).max()
        if invariant:
            assert diff <= 1e-10
        else:
            assert diff > 1e-3


def test_time_embed_sensitivity_factor():
    net1 = tfdl.VelocityNet(2, seed=11)
    net1000 = net1.spawn(c_noise_scale=1000.0)
    for t in (0.05, 0.3, 0.9):
        ratio = net1000.time_embed_sensitivity(t) / net1.time_embed_sensitivity(t)
        assert abs(ratio - 1000.0) <= 1e-6 * 1000.0
    assert net1.time_embed_sensitivity(0.3) / net1.time_embed_sensitivity(0.3) == 1.0


def test_time_embed_sensitivity_matches_fd():
    net = tfdl.VelocityNet(2, seed=12)
    t, h = 0.3, 1e-7

    def emb(tv):
        arg = np.asarray([tv * net.spec.c_noise_scale])[:, None] * net.params["time_freq"]
        return np.concatenate([np.sin(arg), np.cos(arg)], axis=1)

    fd = np.linalg.norm((emb(t + h) - emb(t - h)) / (2 * h))
    sens = net.time_embed_sensitivity(t)
    assert sens > 0
    assert abs(sens - fd) / fd < 1e-4


# -- conditioning embedded once per call when t / cfg are scalars ------------

def _conditioned_net(seed, depth=4):
    # cfg_proj and attn_wo start at zero; give them weight so the guidance
    # embedding and the attention block reach the output
    net = tfdl.VelocityNet(3, spec=NetSpec(depth=depth), seed=seed, zero_out=False)
    rng = np.random.default_rng(seed)
    for name in ("cfg_proj", "attn_wo"):
        net.params[name] = 0.1 * rng.standard_normal(net.params.shapes[name])
    return net


def _constant_and_per_row(rng, n=16, t0=0.7, cfg0=4.5):
    """A batch at scalar t and cfg, and the same rows plus one with other values.

    The longer batch holds t and cfg as arrays, so it embeds per row; its
    first n rows are the scalar batch.
    """
    x = rng.standard_normal((n, 2))
    y = rng.integers(0, 3, n)
    const = (x, t0, y, cfg0)
    per_row = (np.vstack([x, x[:1]]), np.append(np.full(n, t0), t0 + 0.25),
               np.append(y, y[:1]), np.append(np.full(n, cfg0), cfg0 + 1.0))
    return const, per_row


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_constant_conditioning_forward_matches_per_row():
    net = _conditioned_net(20)
    const, per_row = _constant_and_per_row(np.random.default_rng(20))
    n = len(const[0])
    assert _rel(net.forward(*const), net.forward(*per_row)[:n]) <= 1e-12


def test_constant_conditioning_jvp_matches_per_row():
    net = _conditioned_net(21)
    rng = np.random.default_rng(21)
    const, per_row = _constant_and_per_row(rng)
    n = len(const[0])
    x_tan = rng.standard_normal((n + 1, 2))
    p1, t1 = net.jvp(*const, x_tan[:n], np.zeros(n))
    p2, t2 = net.jvp(*per_row, x_tan, np.zeros(n + 1))
    assert _rel(p1, p2[:n]) <= 1e-12
    assert _rel(t1, t2[:n]) <= 1e-12


def test_constant_conditioning_gradient_matches_per_row():
    net = _conditioned_net(22)
    rng = np.random.default_rng(22)
    const, per_row = _constant_and_per_row(rng)
    n = len(const[0])
    u = np.vstack([rng.standard_normal((n, 2)), np.zeros((1, 2))])  # extra row weighs 0
    v1, g1 = net.value_and_grad(lambda P: vsum(net.forward(*const, params=P) * u[:n]))
    v2, g2 = net.value_and_grad(lambda P: vsum(net.forward(*per_row, params=P) * u))
    assert abs(v1 - v2) <= 1e-12 * abs(v2)
    assert _rel(g1, g2) <= 1e-12
    for name in ("cfg_proj", "time_freq"):
        sl = net.params.slices[name]
        assert _rel(g1[sl], g2[sl]) <= 1e-12


def test_constant_time_embedding_is_bit_identical_to_per_row():
    net = tfdl.VelocityNet(3, spec=NetSpec(c_noise_scale=1000.0), seed=23)
    for t0 in (1e-3, 0.3, 1.0):
        one = net._embed(net.params, np.asarray(t0), net.spec.c_noise_scale)
        rows = net._embed(net.params, np.append(np.full(64, t0), t0 + 0.1),
                          net.spec.c_noise_scale)[:64]
        assert one.shape == (1, net.spec.width)
        np.testing.assert_array_equal(np.broadcast_to(one, rows.shape), rows)


def test_per_row_embedding_paths_unchanged():
    net = tfdl.VelocityNet(3, seed=24)
    P, w = net.params, net.spec.width
    assert net._embed(P, np.asarray(0.3), 1.0).shape == (1, w)
    # an array time keeps one row per entry, even when its values are equal
    t = np.full(5, 0.3)
    assert net._embed(P, t, 1.0).shape == (5, w)
    assert net._embed(P, Dual(t, np.ones(5)), 1.0).p.shape == (5, w)
    assert net._embed(P, t[:1], 1.0).shape == (1, w)
    assert net._embed(P, np.array([0.3, 0.4, 0.3]), 1.0).shape == (3, w)


# -- plain forwards above one row block run block by block -------------------

def _block_case(seed, n, constant, depth=4):
    net = _conditioned_net(seed, depth)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    y = rng.integers(0, 3, n)
    if constant:
        return net, (x, 0.7, y, 4.5)
    return net, (x, rng.uniform(0.05, 1.4, n), y, rng.uniform(0.0, 5.0, n))


def _one_pass(net, args, collect_hidden=False):
    """One unblocked pass, folded exactly when ``forward`` would fold."""
    fold = np.ndim(args[1]) == np.ndim(args[3]) == 0 and net.spec.depth >= 2
    return net._core(net.params, *net._prep(*args), fold, collect_hidden=collect_hidden)


@pytest.mark.parametrize("constant", [False, True])
def test_blocked_forward_is_concatenation_of_blocks(constant):
    b = _ROW_BLOCK
    net, args = _block_case(30, 2 * b + 3, constant)
    out, hidden = net.forward(*args, return_hidden=True)
    parts = [net.forward(*(a[i:i + b] if np.ndim(a) else a for a in args), return_hidden=True)
             for i in (0, b, 2 * b)]
    np.testing.assert_array_equal(out, np.concatenate([p[0] for p in parts]))
    np.testing.assert_array_equal(net.forward(*args), out)
    whole, whole_hidden = _one_pass(net, args, collect_hidden=True)
    assert _rel(out, whole) <= 1e-12
    assert len(hidden) == len(whole_hidden) == net.spec.depth
    for layer, h in enumerate(hidden):
        np.testing.assert_array_equal(h, np.concatenate([p[1][layer] for p in parts]))
        assert _rel(h, whole_hidden[layer]) <= 1e-12


@pytest.mark.parametrize("constant", [False, True])
def test_forward_of_one_block_is_one_pass(constant):
    net, args = _block_case(31, _ROW_BLOCK, constant)
    np.testing.assert_array_equal(net.forward(*args), _one_pass(net, args))


@pytest.mark.parametrize("constant", [False, True])
def test_traced_forward_above_one_block_is_one_pass(constant):
    net, (x, t, y, cfg) = _block_case(32, _ROW_BLOCK + 40, constant)
    rng = np.random.default_rng(32)
    x_tan, t_tan = rng.standard_normal(x.shape), rng.standard_normal(len(x))
    p, tan = net.jvp(x, t, y, cfg, x_tan, t_tan)
    t_rows = np.broadcast_to(t, t_tan.shape)  # a Dual time carries one value per row
    whole = net._core(net.params, Dual(x, x_tan), Dual(t_rows, t_tan), y, cfg)
    np.testing.assert_array_equal(p, whole.p)
    np.testing.assert_array_equal(tan, whole.t)
    # a Dual input to forward itself also stays one pass
    out = net.forward(Dual(x, x_tan), Dual(t_rows, t_tan), y, cfg)
    np.testing.assert_array_equal(out.p, whole.p)
    np.testing.assert_array_equal(out.t, whole.t)
    # and so does a tape forward over parameter leaves
    leaves = net.params.as_vars()
    tape = net.forward(x, t, y, cfg, params=leaves)
    np.testing.assert_array_equal(tape.v, net._core(leaves, *net._prep(x, t, y, cfg)).v)


@pytest.mark.parametrize("depth", [1, 2, 4])
@pytest.mark.parametrize("n", [40, 2 * _ROW_BLOCK + 3])
def test_folded_layer0_matches_tape_forward(monkeypatch, depth, n):
    # a plain forward at a scalar t and cfg folds the conditioning and the input
    # layer into hidden layer 0, once per row block, when that layer comes
    # before the attention block; a tape forward of the same inputs, and a
    # plain forward of t and cfg as arrays of equal entries, never fold
    net, (x, t, y, cfg) = _block_case(33, n, True, depth)
    y[::7] = net.n_classes  # the null class
    calls = []
    folded = tfdl.VelocityNet._folded_layer0
    monkeypatch.setattr(tfdl.VelocityNet, "_folded_layer0",
                        staticmethod(lambda *a: calls.append(len(a[1])) or folded(*a)))
    out, hidden = net.forward(x, t, y, cfg, return_hidden=True)
    assert sum(calls) == (n if depth >= 2 else 0)
    calls.clear()
    tape, tape_hidden = net.forward(x, t, y, cfg, params=net.params.as_vars(),
                                    return_hidden=True)
    assert calls == []
    per_row = net.forward(x, np.full(n, t), y, np.full(n, cfg))
    assert calls == []
    assert _rel(out, per_row) <= 1e-12
    assert len(hidden) == len(tape_hidden) == depth
    for got, want in zip([out] + hidden, [tape] + tape_hidden):
        assert _rel(got, want.v) <= 1e-12
        if depth == 1:
            np.testing.assert_array_equal(got, want.v)


# -- the call contract: t, y and cfg are each a scalar or one entry per row ---

@pytest.mark.parametrize("name", ["t", "y", "cfg"])
@pytest.mark.parametrize("n, size, scalar_rest", [(500, 1, True), (500, 1, False),
                                                  (600, 1, True), (10, 3, True)])
def test_conditioning_of_another_length_is_rejected(name, n, size, scalar_rest):
    # a one-entry array used to broadcast up to one row block (folded or not)
    # and to fail inside numpy above it; every length but n now fails up front
    net = tfdl.VelocityNet(3, spec=NetSpec(width=16, depth=4), seed=50)
    rng = np.random.default_rng(50)
    x = rng.standard_normal((n, 2))
    scalars = {"t": 0.7, "y": 1, "cfg": 4.5}
    args = dict(scalars) if scalar_rest else {
        "t": rng.uniform(0.05, 1.4, n), "y": rng.integers(0, 3, n), "cfg": rng.uniform(0, 5, n)}
    args[name] = np.full(size, scalars[name])
    with pytest.raises(ValueError, match=rf"^{name} has shape \({size},\); .*\({n},\)"):
        net.forward(x, args["t"], args["y"], args["cfg"])


@pytest.mark.parametrize("constant", [False, True])
def test_scalar_label_equals_per_row_labels(constant):
    net, (x, t, _, cfg) = _block_case(34, 2 * _ROW_BLOCK + 3, constant)
    for label in (1, net.n_classes):
        np.testing.assert_array_equal(net.forward(x, t, label, cfg),
                                      net.forward(x, t, np.full(len(x), label), cfg))


# -- the fused attention entry against the composed block it replaced --------

def _composed_attn(net, P, h):
    """The attention block built from separate table entries: the oracle."""
    d_token = net.spec.width // N_TOKENS
    tok = reshape(h, (-1, N_TOKENS, d_token))
    q = tok @ P["attn_wq"]
    k = tok @ P["attn_wk"]
    v = tok @ P["attn_wv"]
    if net.spec.qk_norm:
        q = q * (vmean(q * q, axis=-1, keepdims=True) + _RMS_EPS) ** -0.5
        k = k * (vmean(k * k, axis=-1, keepdims=True) + _RMS_EPS) ** -0.5
    logits = (q @ swap_last(k)) * (1.0 / np.sqrt(d_token))
    o = softmax(logits, axis=-1) @ v
    return reshape(o @ P["attn_wo"], (-1, net.spec.width))


@pytest.mark.parametrize("qk_norm", [True, False])
@pytest.mark.parametrize("n", [96, 2 * _ROW_BLOCK + 3])
def test_fused_attention_matches_composed_block(n, qk_norm):
    net = tfdl.VelocityNet(3, spec=NetSpec(qk_norm=qk_norm), seed=40, zero_out=False)
    rng = np.random.default_rng(40)
    net.params["attn_wo"] = rng.standard_normal(net.params.shapes["attn_wo"])
    x, t, y, cfg = _probe(rng, n=n)
    x_tan, t_tan = rng.standard_normal(x.shape), rng.standard_normal(t.shape)
    u = rng.standard_normal((n, 2))

    def outputs():
        _, tan = net.jvp(x, t, y, cfg, x_tan, t_tan)
        _, grad = net.value_and_grad(lambda P: vsum(net.forward(x, t, y, cfg, params=P) * u))
        return net.forward(x, t, y, cfg), tan, grad

    fused = outputs()
    net._attn = functools.partial(_composed_attn, net)
    oracle = outputs()
    for a, b in zip(fused, oracle):
        assert _rel(a, b) <= 1e-12
    for name in ("attn_wq", "attn_wk", "attn_wv", "attn_wo"):
        sl = net.params.slices[name]
        assert _rel(fused[2][sl], oracle[2][sl]) <= 1e-12
