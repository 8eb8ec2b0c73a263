"""Forward-mode and reverse-mode engine checks against finite differences."""

import tracemalloc
import zlib

import numpy as np
import pytest

import tfdl
from tfdl.autodiff import (PRIMITIVES, Dual, Var, cat, cos, dense_silu, exp, relu, reshape,
                           silu, sin, sincos, softmax, sqrt, take_rows, vmean, vsum)
from tfdl.net import _ROW_BLOCK, NetSpec
from tfdl.teacher import _fm_objective


def test_dual_product_rule_t_times_x():
    # F(x, t) = t * x with tangents (v, 1) must give v*t + x
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 2))
    t = rng.uniform(0.2, 0.8, 6)
    v = rng.standard_normal((6, 2))
    xd = Dual(x, v)
    td = Dual(t, np.ones(6))
    out = reshape(td, (-1, 1)) * xd
    np.testing.assert_allclose(out.t, v * t[:, None] + x, rtol=0, atol=1e-14)


def test_dual_zero_tangent_stays_zero():
    rng = np.random.default_rng(1)
    x = Dual(rng.standard_normal((4, 3)))
    t = Dual(rng.uniform(0.1, 1.0, 4))
    out = vsum(silu(x * reshape(t, (-1, 1))))
    assert out.t == 0.0


@pytest.mark.parametrize("op", [
    lambda a: sin(a), lambda a: cos(a), lambda a: exp(a),
    lambda a: sqrt(a * a + 0.1), lambda a: silu(a), lambda a: relu(a),
    lambda a: softmax(a, axis=-1), lambda a: a ** 3.0,
])
def test_dual_matches_finite_differences(op):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 4))
    v = rng.standard_normal((5, 4))
    h = 1e-7
    out = op(Dual(x, v))
    fd = (np.asarray(op(Dual(x + h * v)).p) - np.asarray(op(Dual(x - h * v)).p)) / (2 * h)
    np.testing.assert_allclose(out.t, fd, rtol=1e-5, atol=1e-7)


def _scalar_graph(xv):
    a = xv @ np.arange(12.0).reshape(4, 3)
    c = softmax(silu(a), axis=-1)
    return vmean(vsum(c * c, axis=1))


def test_var_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 4))

    def f(arr):
        return float(np.asarray(_scalar_graph(Var(arr)).v))

    xv = Var(x)
    loss = _scalar_graph(xv)
    loss.backward()
    h = 1e-6
    for idx in [(0, 0), (2, 3), (4, 1)]:
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        fd = (f(xp) - f(xm)) / (2 * h)
        assert abs(fd - xv.grad[idx]) < 1e-8


def test_jvp_vjp_consistency():
    # <u, J v> == <J^T u, v> for a graph mixing matmul, softmax, embedding
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 4))
    W = rng.standard_normal((4, 4))
    table = rng.standard_normal((3, 4))
    idx = np.array([0, 2, 1, 0, 2, 1])
    u = rng.standard_normal((6, 4))
    v = rng.standard_normal((6, 4))

    def graph(xx):
        h = silu(xx @ W) + take_rows(table, idx)
        return softmax(h, axis=-1) @ W

    jv = graph(Dual(x, v)).t
    xv = Var(x)
    out = graph(xv)
    vsum(out * u).backward()
    lhs = float(np.sum(u * jv))
    rhs = float(np.sum(xv.grad * v))
    assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1e-12)


def test_constant_loss_zero_gradient():
    xv = Var(np.ones((3, 2)))
    loss = vsum(xv * 0.0) + 7.0
    loss.backward()
    np.testing.assert_array_equal(xv.grad, np.zeros((3, 2)))


def test_batch_gradient_is_sum_of_per_sample_gradients():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 3))
    W = rng.standard_normal((3, 3))

    def per_sample_grad(row):
        wv = Var(W)
        out = silu(row.reshape(1, -1) @ wv)
        vsum(out * out).backward()
        return wv.grad

    wv = Var(W)
    out = silu(x @ wv)
    vsum(out * out).backward()
    summed = sum(per_sample_grad(x[i]) for i in range(4))
    np.testing.assert_allclose(wv.grad, summed, rtol=1e-12, atol=1e-12)


def test_take_rows_scatter_accumulates():
    table = Var(np.zeros((3, 2)))
    idx = np.array([1, 1, 0])
    out = take_rows(table, idx)
    vsum(out * np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])).backward()
    np.testing.assert_array_equal(table.grad, [[5.0, 6.0], [4.0, 6.0], [0.0, 0.0]])


def test_cat_splits_gradient():
    a = Var(np.ones((2, 2)))
    b = Var(np.ones((2, 3)))
    out = cat([a, b], axis=1)
    vsum(out * np.arange(10.0).reshape(2, 5)).backward()
    np.testing.assert_array_equal(a.grad, [[0, 1], [5, 6]])
    np.testing.assert_array_equal(b.grad, [[2, 3, 4], [7, 8, 9]])


# -- per-primitive rule sweep -------------------------------------------------
# Every entry of the rule table is checked on its own: the Dual tangent against
# central differences, and <u, J v> (Dual) against <J^T u, v> (Var), with each
# subset of arguments live and the others passed as constants; the tape node's
# parents must be exactly the live arguments. A new entry of arity 1 or 2 is
# swept without new code here unless it needs static parameters (PARAMS) or a
# positive domain (POSITIVE); a new list entry (arity None) adds its cases to
# LIST_CASES.

PARAMS = {
    "power": [(3.0,), (-0.5,)],
    "softmax": [{"axis": -1}, {"axis": 0}],
    "vsum": [{}, {"axis": 1}, {"axis": -1, "keepdims": True}, {"axis": (0, 1)}],
    "vmean": [{}, {"axis": 0}, {"axis": 1, "keepdims": True}],
    "reshape": [((-1,),), ((2, 6),), ((3, 4, 1),)],
    "take_rows": [(np.array([3, 0, 3, 1, 2]),)],
}
POSITIVE = {"sqrt", "power"}
BINARY_SHAPES = {
    "matmul": [((4, 3), (3, 2)), ((2, 4, 3), (3, 2)), ((4, 3), (2, 3, 2))],
}
ELEMENTWISE_SHAPES = [((4, 1), (1, 3)), ((3,), (2, 3)), ((2, 3), (3,)), ((2, 3), (2, 3))]
# (static kwargs, operand shapes) per case of each list entry; attention runs
# 3 rows of 4 tokens of width 3: h, then wq, wk, wv, wo; dense_silu takes x, W, b
LIST_CASES = {
    "dense_silu": [({}, [(5, 3), (3, 4), (4,)])],
    "cat": [({"axis": -1}, [(4, 1), (4, 3), (4, 2)]), ({"axis": 0}, [(1, 3), (2, 3), (3, 3)])],
    "attention": [({"n_tokens": 4, "qk_norm": qk_norm}, [(3, 12)] + [(3, 3)] * 4)
                  for qk_norm in (True, False)],
}


def _operand(rng, shape, positive):
    mag = rng.uniform(0.5, 1.5, shape)
    return mag if positive else mag * rng.choice([-1.0, 1.0], shape)


def _sweep_cases(name, prim):
    """(primal args, static args, static kwargs, live argument subsets) per case."""
    # seeded by the entry's own name, so adding or deleting an entry leaves the
    # operands of every other entry unchanged
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    if prim.arity is None:
        for kw, shapes in LIST_CASES[name]:
            xs = [_operand(rng, s, False) for s in shapes]
            yield xs, (), kw, [(i,) for i in range(len(xs))] + [tuple(range(len(xs)))]
        return
    for static in PARAMS.get(name, [()]):
        args, kw = (static, {}) if isinstance(static, tuple) else ((), static)
        if prim.arity == 1:
            yield [_operand(rng, (4, 3), name in POSITIVE)], args, kw, [(0,)]
        else:
            for sa, sb in BINARY_SHAPES.get(name, ELEMENTWISE_SHAPES):
                xs = [_operand(rng, sa, False), _operand(rng, sb, False)]
                yield xs, args, kw, [(0,), (1,), (0, 1)]


def _apply(prim, xs, args, kw):
    if prim.arity is None:
        return prim(list(xs), *args, **kw)
    return prim(*xs, *args, **kw)


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_rules(name):
    prim = PRIMITIVES[name]
    n_cases = 0
    for xs, args, kw, subsets in _sweep_cases(name, prim):
        plain = np.asarray(_apply(prim, xs, args, kw))
        rng = np.random.default_rng(len(xs) + n_cases)
        for live in subsets:
            n_cases += 1
            vs = [rng.standard_normal(np.shape(x)) if i in live else None
                  for i, x in enumerate(xs)]
            dual = _apply(prim, [Dual(x, v) if v is not None else x
                                 for x, v in zip(xs, vs)], args, kw)
            np.testing.assert_array_equal(dual.p, plain)
            h = 1e-6
            fp = _apply(prim, [x + h * v if v is not None else x for x, v in zip(xs, vs)], args, kw)
            fm = _apply(prim, [x - h * v if v is not None else x for x, v in zip(xs, vs)], args, kw)
            np.testing.assert_allclose(dual.t, (np.asarray(fp) - np.asarray(fm)) / (2 * h),
                                       rtol=1e-6, atol=1e-8)
            leaves = [Var(x) if v is not None else x for x, v in zip(xs, vs)]
            out = _apply(prim, leaves, args, kw)
            np.testing.assert_array_equal(out.v, plain)
            assert [id(p) for p in out._parents] == [id(leaves[i]) for i in live]
            u = rng.standard_normal(plain.shape)
            out.backward(seed=u)
            lhs = float(np.sum(u * dual.t))
            rhs = 0.0
            for leaf, v in zip(leaves, vs):
                if v is not None:
                    assert leaf.grad.shape == v.shape
                    rhs += float(np.sum(leaf.grad * v))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
    assert n_cases > 0


# -- fused entries against their composed oracles -------------------------------
# dense_silu and sincos keep the order of operations of the entries they fuse,
# so every mode must reproduce the composed graph exactly, not just closely.

FUSED = {
    "dense_silu": (dense_silu, lambda xs: silu(xs[0] @ xs[1] + xs[2]),
                   lambda rng, n: [rng.standard_normal((n, 16)), rng.standard_normal((16, 24)),
                                   rng.standard_normal(24)]),
    "sincos": (lambda xs: sincos(xs[0]), lambda xs: cat([sin(xs[0]), cos(xs[0])], axis=-1),
               lambda rng, n: [3.0 * rng.standard_normal((n, 16))]),
}


@pytest.mark.parametrize("rows", [96, 2 * _ROW_BLOCK + 3])
@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_entry_equals_composed_oracle(name, rows):
    fused, composed, operands = FUSED[name]
    rng = np.random.default_rng(rows)
    xs = operands(rng, rows)
    np.testing.assert_array_equal(fused(xs), composed(xs))
    duals = [Dual(x, rng.standard_normal(x.shape)) for x in xs]
    a, b = fused(duals), composed(duals)
    np.testing.assert_array_equal(a.p, b.p)
    np.testing.assert_array_equal(a.t, b.t)
    u = rng.standard_normal(a.p.shape)
    grads = []
    for f in (fused, composed):
        leaves = [Var(x) for x in xs]
        out = f(leaves)
        vsum(out * u).backward()
        grads.append((out.v, [leaf.grad for leaf in leaves]))
    np.testing.assert_array_equal(grads[0][0], grads[1][0])
    for ga, gb in zip(grads[0][1], grads[1][1]):
        np.testing.assert_array_equal(ga, gb)


# -- tape release ----------------------------------------------------------------

def _tape_nodes(root):
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def _net_tape(rows, width=32):
    net = tfdl.VelocityNet(3, spec=NetSpec(width=width, n_freq=width // 2), seed=0,
                           zero_out=False)
    rng = np.random.default_rng(0)
    leaves = net.params.as_vars()
    out = net.forward(rng.standard_normal((rows, 2)), rng.uniform(0, 1, rows),
                      rng.integers(0, 4, rows), cfg=4.5, params=leaves)
    return out, leaves


def test_backward_releases_the_tape():
    out, leaves = _net_tape(96)
    assert len(_tape_nodes(out)) <= 38  # 19 of them parameter leaves
    loss = vmean(out * out)
    nodes = _tape_nodes(loss)
    interior = [n for n in nodes if n._vjp is not None]
    loss.backward()
    assert all(n._vjp is None and n._parents is None for n in interior)
    assert all(n.grad is None for n in interior if n is not loss)
    assert loss.grad is not None and all(leaf.grad is not None for leaf in leaves.values())


def test_second_backward_through_a_consumed_tape_raises():
    out, _ = _net_tape(8)
    loss, shared = vmean(out), vsum(out)
    loss.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        shared.backward()
    leaf = Var(np.ones(()))
    leaf.backward()
    leaf.backward()  # a leaf holds no tape to consume
    assert leaf.grad == 1.0


def test_backward_peak_stays_near_the_forward_tape():
    # the teacher objective at its default batch; freeing each closure once its
    # VJP has run keeps the backward's high-water mark near the tape it walks
    net = tfdl.VelocityNet(3, seed=1)
    rng = np.random.default_rng(2)
    x0, z = rng.standard_normal((256, 2)), rng.standard_normal((256, 2))
    t, y = rng.uniform(0, 1, 256), rng.integers(0, 4, 256)
    tracemalloc.start()
    try:
        leaves = net.params.as_vars()
        loss = _fm_objective(net, leaves, x0, y, t, z)
        tape = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * tape, (peak, tape)
