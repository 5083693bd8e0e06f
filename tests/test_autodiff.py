"""Reverse-mode tape: one FD check per op, then structural properties."""

import numpy as np
import pytest

from jdan import autodiff as ad
from jdan.activations import KINDS, apply
from jdan.numerics import sigmoid as np_sigmoid


def sumall(a):
    """The sum of a's entries as a scalar node."""
    av = ad.value(a)
    return ad.custom(a, np.asarray(np.sum(av)), lambda g: np.broadcast_to(g, np.shape(av)).copy())


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return g


def check_op(build, x, h=1e-6, tol=1e-6):
    """build(leaf) -> scalar node; compares tape grad to FD at x."""
    t = ad.leaf(x.copy())
    root = build(t)
    ad.backward(root)

    def f(arr):
        return float(build(ad.leaf(arr)).data)

    np.testing.assert_allclose(t.grad, fd_grad(f, x, h), rtol=tol, atol=tol)


def test_add_sub_mul_div_grads():
    # the tape has no sub or div: a difference is a sum with a negation
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4)) + 3.0
    check_op(lambda t: sumall(ad.add(t, ad.mul(t, t))), x)
    check_op(lambda t: sumall(ad.add(ad.mul(t, t), -t)), x)


def test_operator_overloads_match_functions():
    a = ad.leaf(np.array([1.0, 2.0]))
    b = ad.leaf(np.array([3.0, 5.0]))
    root = sumall(ad.mul(a + b, a) + (-b) + 2.0)
    ad.backward(root)
    # f = sum(a^2 + ab - b + 2); df/da = 2a + b, df/db = a - 1
    np.testing.assert_allclose(a.grad, 2 * a.data + b.data)
    np.testing.assert_allclose(b.grad, a.data - 1)


def test_scalar_value_propagation():
    x = ad.leaf(np.array(2.0))
    x.needs = True
    y = ad.mul(x, x)
    z = ad.add(y, x)
    assert float(z.data) == 6.0
    ad.backward(z)
    assert float(x.grad) == 5.0  # 2x + 1 at x = 2


def test_broadcast_unbroadcast_shapes():
    rng = np.random.default_rng(1)
    a = ad.leaf(rng.normal(size=(4, 3)))
    b = ad.leaf(rng.normal(size=(1, 3)))
    c = ad.leaf(np.array(1.5))
    root = sumall(ad.mul(ad.add(a, b), c))
    ad.backward(root)
    assert a.grad.shape == (4, 3)
    assert b.grad.shape == (1, 3)
    assert c.grad.shape == ()
    # gradient of sum over broadcast rows accumulates
    np.testing.assert_allclose(b.grad, np.full((1, 3), 4.0 * 1.5))
    np.testing.assert_allclose(c.grad, (a.data + b.data).sum())


@pytest.mark.parametrize("layout", ["shared", "per_row", "shared_points"])
def test_affine_grads(layout):
    # shared: a (m, in), w (out, in), b (out,); per row: a (n, k, in),
    # w (n, out, in), b (n, out), row i's points under row i's weights;
    # shared points: one (k, in) set of points under every row's weights
    rng = np.random.default_rng(2)
    if layout == "shared":
        a, w, b = rng.normal(size=(5, 3)), rng.normal(size=(4, 3)), rng.normal(size=4)
        want = a @ w.T + b
    else:
        a = rng.normal(size=(6, 2, 3) if layout == "per_row" else (2, 3))
        w, b = rng.normal(size=(6, 4, 3)), rng.normal(size=(6, 4))
        want = np.einsum("...ki,...oi->...ko", a, w) + b[:, None, :]
    np.testing.assert_allclose(ad.affine(a, w, b), want, rtol=1e-14)
    coeff = rng.normal(size=want.shape)

    def loss(a, w, b):
        return sumall(ad.mul(ad.affine(a, w, b), coeff))

    check_op(lambda t: loss(t, w, b), a)
    check_op(lambda t: loss(a, t, b), w)
    check_op(lambda t: loss(a, w, t), b)
    check_op(lambda t: sumall(ad.mul(ad.affine(a, t), coeff)), w)  # no bias


def test_affine_plain_weights_give_each_row_its_own_bits():
    # plain (out, in) weights sum the inputs in order: a row's bits are those
    # of a one-row call, and the tape's matmul agrees to rounding, relative to
    # the sum of the terms' magnitudes (a sum that cancels keeps only that)
    rng = np.random.default_rng(3)
    a, w, b = rng.normal(size=(300, 33)), rng.normal(size=(51, 33)), rng.normal(size=51)
    block, unbiased = ad.affine(a, w, b), ad.affine(a, w)
    for i in range(len(a)):
        np.testing.assert_array_equal(block[i:i + 1], ad.affine(a[i:i + 1], w, b))
        np.testing.assert_array_equal(unbiased[i:i + 1], ad.affine(a[i:i + 1], w))
    taped = ad.affine(a, ad.leaf(w), ad.leaf(b))
    assert isinstance(taped, ad.Tensor)
    scale = np.abs(a) @ np.abs(w).T + np.abs(b)
    assert np.max(np.abs(taped.data - block) / scale) <= 1e-14


def test_affine_per_row_block_gives_each_row_its_own_bits():
    # a block with fewer points per row than rows runs with the rows innermost, a lone
    # row with its points innermost: the order of the sums, and so the bits, are the same
    rng = np.random.default_rng(4)
    a, w, b = rng.normal(size=(300, 3, 8)), rng.normal(size=(300, 5, 8)), rng.normal(size=(300, 5))
    block = ad.affine(a, w, b)
    for i in range(len(a)):
        np.testing.assert_array_equal(block[i:i + 1], ad.affine(a[i:i + 1], w[i:i + 1], b[i:i + 1]))


def test_reshape_grad():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 5))
    coeff = np.arange(10.0).reshape(5, 2)
    check_op(lambda t: sumall(ad.mul(ad.reshape(t, (5, 2)), ad.leaf(coeff))), x)


def test_ops_on_plain_arrays_build_no_graph():
    x = np.array([[0.5, 1.5], [2.0, 0.25]])
    w = np.array([[1.0, -1.0], [0.5, 2.0]])
    outs = [
        ad.add(x, x), ad.mul(x, x),
        ad.affine(x, w, np.ones(2)), ad.affine(x, w), ad.reshape(x, (4,)),
        sumall(x), ad.mean(x), ad.log(x), *(apply(kind, x) for kind in KINDS),
    ]
    for out in outs:
        assert isinstance(out, np.ndarray) and not isinstance(out, ad.Tensor)


@pytest.mark.parametrize(
    "kind,ref",
    [
        ("log", np.log),
        ("exp", np.exp),
        ("tanh", np.tanh),
        ("sigmoid", np_sigmoid),
        ("relu", lambda x: np.maximum(x, 0.0)),
    ],
)
def test_elementwise_values_and_grads(kind, ref):
    # log is a tape op; the activations are nodes that activations.apply builds
    op = ad.log if kind == "log" else (lambda t: apply(kind, t))
    rng = np.random.default_rng(5)
    x = rng.uniform(0.5, 2.0, size=(3, 3))  # positive keeps log in-domain
    t = ad.leaf(x.copy())
    node = op(t)
    np.testing.assert_allclose(node.data, ref(x), rtol=1e-12)
    root = sumall(node)
    ad.backward(root)

    def f(arr):
        return float(sumall(op(ad.leaf(arr))).data)

    np.testing.assert_allclose(t.grad, fd_grad(f, x), rtol=1e-5, atol=1e-7)


def test_sigmoid_grad_uses_value_identity():
    x = np.array([-30.0, 0.0, 30.0])
    t = ad.leaf(x)
    ad.backward(sumall(apply("sigmoid", t)))
    a = np_sigmoid(x)
    np.testing.assert_allclose(t.grad, a * (1 - a), atol=1e-15)
    assert np.all(np.isfinite(t.grad))


def test_mean_grad():
    x = np.arange(8.0).reshape(2, 4)
    t = ad.leaf(x.copy())
    ad.backward(ad.mean(t))
    np.testing.assert_allclose(t.grad, np.full((2, 4), 1.0 / 8.0))


def test_grad_accumulates_across_uses():
    x = np.array([2.0])
    t = ad.leaf(x)
    root = sumall(ad.add(ad.mul(t, t), ad.mul(t, t)))  # 2 x^2
    ad.backward(root)
    np.testing.assert_allclose(t.grad, [8.0])  # 4x


def test_grad_linearity_in_root_scale():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4,))

    def run(scale):
        t = ad.leaf(x.copy())
        ad.backward(ad.mul(sumall(apply("tanh", t)), ad.leaf(np.array(scale))))
        return t.grad.copy()

    np.testing.assert_allclose(run(3.0), 3.0 * run(1.0), rtol=1e-14)


def test_needs_flag_prunes_gradients():
    a = ad.leaf(np.array([1.0, 2.0]))  # leaves receive gradients
    b = ad.Tensor(np.array([3.0, 4.0]))  # bare tensors are constants
    root = sumall(ad.mul(a, b))
    ad.backward(root)
    np.testing.assert_allclose(a.grad, b.data)
    assert b.grad is None


def test_backward_requires_scalar_root():
    t = ad.leaf(np.ones(3))
    with pytest.raises(ValueError):
        ad.backward(ad.mul(t, t))


def test_deep_chain_no_recursion_limit():
    # iterative traversal: a graph deeper than any recursion limit still works
    t = ad.leaf(np.array(0.1))
    node = t
    for _ in range(5000):
        node = ad.add(node, ad.leaf(np.array(0.0)))
    ad.backward(node)
    assert float(t.grad) == 1.0


def test_second_order_structure_through_derivative_chain():
    # the pattern the likelihood relies on: a derivative expressed through
    # values (sigmoid' = a(1-a)) must itself be differentiable
    x0 = 0.7
    t = ad.leaf(np.array(x0))
    a = apply("sigmoid", t)
    d1 = ad.mul(a, ad.add(1.0, -a))  # sigmoid'(x) via value
    ad.backward(sumall(d1))
    # d/dx sigmoid'(x) = sigmoid''(x) = a(1-a)(1-2a)
    s = float(np_sigmoid(np.array(x0)))
    want = s * (1 - s) * (1 - 2 * s)
    assert float(t.grad) == pytest.approx(want, rel=1e-12)
