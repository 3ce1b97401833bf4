"""nn's loss, kernels and Adam, and the tape of tests/reference.py that
is their oracle: op semantics, gradients against finite differences."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fraudgnn import nn
from fraudgnn.errors import ShapeError
from fraudgnn.nn import AdamState

from reference import (Tensor, TapeAdam, UsageError, add, add_at_gather_vjp,
                       add_at_neighbor_sum_vjp, backward, chain_bce, concat,
                       fd_gradient, gather, identity, l2_normalize_rows,
                       leaky_relu, matmul, mean_all, mul, neighbor_sum,
                       pick_rows, put_rows, relu, sigmoid, slice_cols,
                       slice_rows, softmax_entries, softmax_rows, sub,
                       sum_all, tanh)


def every_cell(idx):
    """Rows whose entries are every cell of an (n, width) table, in order."""
    n, width = idx.shape
    return nn.CompressedRows(np.arange(0, n * width + 1, width), idx.ravel())


def bce_and_grad(p, y):
    """nn.bce's value and p's gradient, from its stage."""
    loss = nn.bce(p, y)
    (vjp, _), = loss.stages
    (dp,) = vjp(np.ones((1, 1)), True)
    return loss.value, dp


def fd_check(loss_fn, params, rel=1e-4, floor=1e-7):
    """Compare analytic grads (already on params) against central differences."""
    for p in params:
        fd = fd_gradient(loss_fn, p)
        assert p.grad is not None
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(p.grad)), floor)
        err = np.abs(p.grad - fd) / denom
        assert err.max() < rel, f"max rel error {err.max()}"


class TestTensorBasics:
    def test_scalar_becomes_1x1(self):
        assert Tensor(3.0).shape == (1, 1)

    def test_vector_becomes_row(self):
        assert Tensor([1.0, 2.0, 3.0]).shape == (1, 3)

    def test_3d_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2, 2)))

    def test_item_on_non_scalar(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2))).item()

    def test_data_is_float64(self):
        assert Tensor([[1, 2]]).data.dtype == np.float64


class TestOpExamples:
    """Hand-checkable values for the nonlinearities."""

    def test_softmax_two_zeros(self):
        out = softmax_rows(Tensor([[0.0, 0.0]]))
        assert_allclose(out.data, [[0.5, 0.5]], atol=1e-12)

    def test_leaky_relu_negative_one(self):
        out = leaky_relu(Tensor([[-1.0]]))
        assert_allclose(out.data, [[-0.01]], atol=1e-15)

    def test_leaky_relu_positive_passthrough(self):
        assert leaky_relu(Tensor([[2.5]])).item() == 2.5

    def test_sigmoid_zero(self):
        assert sigmoid(Tensor([[0.0]])).item() == 0.5

    def test_relu_clips_negative(self):
        out = relu(Tensor([[-3.0, 0.0, 2.0]]))
        assert_allclose(out.data, [[0.0, 0.0, 2.0]])

    def test_tanh_matches_numpy(self):
        x = np.array([[-2.0, 0.3, 1.7]])
        assert_allclose(tanh(Tensor(x)).data, np.tanh(x), rtol=1e-15)

    def test_clamp_values(self):
        """bce reads p outside [1e-7, 1 - 1e-7] at the nearer bound."""
        out = nn.bce(np.array([[-1.0], [0.5], [2.0]]), [1, 1, 0])
        assert_allclose(out.value, -(2 * math.log(1e-7) + math.log(0.5)) / 3,
                        rtol=1e-8)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        out = softmax_rows(Tensor(rng.normal(size=(5, 6))))
        assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-12)

    def test_softmax_large_values_stable(self):
        out = softmax_rows(Tensor([[1000.0, 1000.0, 999.0]]))
        assert np.isfinite(out.data).all()
        assert_allclose(out.data.sum(), 1.0, atol=1e-12)

    def test_softmax_entries_shift_by_their_own_row(self):
        # rows far apart: a shift by any other row's max overflows
        rows = nn.CompressedRows(np.array([0, 2, 2, 5]), np.zeros(5, int))
        out = softmax_entries(
            Tensor([[-1000.0], [-1001.0], [1000.0], [999.0], [1000.0]]), rows)
        e = math.e
        assert_allclose(out.data[:, 0], [e / (e + 1), 1 / (e + 1),
                                         e / (2 * e + 1), 1 / (2 * e + 1),
                                         e / (2 * e + 1)], rtol=1e-12)


class TestCompressedRows:
    def test_row_reductions(self):
        rows = nn.CompressedRows(np.array([0, 3, 3, 4, 6, 6]),
                                 np.zeros(6, int))
        x = np.array([0.5, -2.0, 1.5, -7.0, 3.0, np.inf])
        assert rows.src.tolist() == [0, 0, 0, 2, 3, 3]
        assert rows.row_sum(x).tolist() == [0.0, 0.0, -7.0, np.inf, 0.0]
        assert rows.row_max(x).tolist() == [1.5, -np.inf, -7.0, np.inf,
                                            -np.inf]

    def test_row_sums_add_in_entry_order(self):
        # in entry order 1e16 + 1 + 1 - 1e16 is 0.0; as
        # (1e16 - 1e16) + (1 + 1) it is 2.0
        rows = nn.CompressedRows(np.array([0, 4]), np.zeros(4, int))
        assert rows.row_sum(np.array([1e16, 1.0, 1.0, -1e16]))[0] == 0.0


class TestShapeErrors:
    def test_matmul_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as e:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        assert "(2, 3)" in str(e.value)

    def test_mul_mismatch(self):
        with pytest.raises(ShapeError):
            mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_bce_needs_one_label_per_row(self):
        with pytest.raises(ShapeError):
            nn.bce(np.full((3, 1), 0.5), [1, 0])

    def test_concat_row_mismatch(self):
        with pytest.raises(ShapeError):
            concat(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))))

    def test_gather_needs_column(self):
        with pytest.raises(ShapeError):
            gather(Tensor(np.zeros((3, 2))),
                      every_cell(np.zeros((2, 2), dtype=int)))

    def test_neighbor_sum_weight_idx_mismatch(self):
        with pytest.raises(ShapeError):
            nn.neighbor_sum(np.zeros((2, 3)), np.zeros((4, 2)),
                            every_cell(np.zeros((2, 4), dtype=int)))


class TestBackwardMechanics:
    def test_backward_before_forward(self):
        t = Tensor([[1.0]])
        with pytest.raises(UsageError):
            backward(t)

    def test_backward_requires_scalar(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        out = mul(w, w)
        with pytest.raises(UsageError):
            backward(out)

    def test_grad_accumulates_across_uses(self):
        # w appears twice in the graph; grads from both paths must add.
        w = Tensor([[3.0]], requires_grad=True)
        loss = sum_all(add(mul(w, w), w))  # w^2 + w
        backward(loss)
        assert_allclose(w.grad, [[2 * 3.0 + 1.0]])

    def test_constant_inputs_get_no_grad(self):
        c = Tensor([[2.0]])
        w = Tensor([[3.0]], requires_grad=True)
        loss = sum_all(mul(c, w))
        backward(loss)
        assert c.grad is None
        assert_allclose(w.grad, [[2.0]])

    def test_constant_operands_get_no_vjp(self):
        c = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        g = np.ones((2, 2))
        dc, dw = matmul(c, w)._vjp(g)
        assert dc is None and dw.shape == (3, 2)
        dh, dk = mul(matmul(c, w), np.full((2, 1), 0.5))._vjp(g)
        assert dk is None and dh.shape == (2, 2)

    def test_auto_wrap_of_raw_arrays(self):
        w = Tensor([[1.0, 2.0]], requires_grad=True)
        loss = sum_all(mul(w, np.array([[3.0, 4.0]])))
        backward(loss)
        assert_allclose(w.grad, [[3.0, 4.0]])


class TestAnalyticGradients:
    def test_sum_of_matmul_is_outer_product_rule(self):
        """d/dW sum(x @ W) = x^T @ ones, checked against the closed form."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        loss = sum_all(matmul(x, w))
        backward(loss)
        expected = x.data.T @ np.ones((4, 5))
        assert_allclose(w.grad, expected, rtol=1e-12)

    def test_broadcast_column_grad_sums_cols(self):
        s = Tensor(np.ones((3, 1)), requires_grad=True)
        x = Tensor(np.arange(6.0).reshape(3, 2))
        backward(sum_all(mul(x, s)))
        assert_allclose(s.grad, x.data.sum(axis=1, keepdims=True))

    def test_logistic_regression_zero_weights_hand_derived(self):
        """With W = 0 the mean-BCE weight gradient is x^T (0.5 - y) / n."""
        rng = np.random.default_rng(3)
        x_np = rng.normal(size=(4, 3))
        y_np = np.array([[1.0], [0.0], [1.0], [1.0]])
        w = Tensor(np.zeros((3, 1)), requires_grad=True)
        loss = chain_bce(sigmoid(matmul(Tensor(x_np), w)), y_np)
        assert_allclose(loss.item(), math.log(2.0), rtol=1e-12)
        backward(loss)
        expected = x_np.T @ (0.5 - y_np) / 4.0
        assert_allclose(w.grad, expected, rtol=1e-12)


class TestFiniteDifferenceGradients:
    """Every structural op against central differences, smooth inputs only."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def test_matmul(self):
        a = Tensor(self.rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(self.rng.normal(size=(4, 2)), requires_grad=True)
        coef = self.rng.normal(size=(3, 2))

        def loss_fn():
            return sum_all(mul(matmul(a, b), coef)).item()

        backward(sum_all(mul(matmul(a, b), coef)))
        fd_check(loss_fn, [a, b])

    def test_concat_and_slices(self):
        a = Tensor(self.rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(self.rng.normal(size=(3, 3)), requires_grad=True)
        coef = self.rng.normal(size=(2, 2))

        def forward():
            cat = concat(a, b)               # (3, 5)
            block = slice_rows(cat, 1, 3)    # (2, 5)
            block = slice_cols(block, 1, 3)  # (2, 2)
            return sum_all(mul(block, coef))

        backward(forward())
        fd_check(lambda: forward().item(), [a, b])

    def test_put_and_pick_rows(self):
        a = Tensor(self.rng.normal(size=(3, 2)), requires_grad=True)
        rows = np.array([4, 0, 2])
        coef = self.rng.normal(size=(5, 2))
        put = put_rows(a, rows, 5)
        assert np.array_equal(put.data[[1, 3]], np.zeros((2, 2)))
        assert np.array_equal(pick_rows(put, rows).data, a.data)

        def forward():
            big = put_rows(a, rows, 5)
            return sum_all(mul(pick_rows(mul(big, coef), rows), coef[:3]))

        backward(forward())
        fd_check(lambda: forward().item(), [a])

    def test_gather_with_duplicates(self):
        v = Tensor(self.rng.normal(size=(5, 1)), requires_grad=True)
        idx = np.array([[0, 4], [2, 2], [1, 0]])
        coef = self.rng.normal(size=(3, 2)).reshape(-1, 1)

        def forward():
            return sum_all(mul(gather(v, every_cell(idx)), coef))

        backward(forward())
        fd_check(lambda: forward().item(), [v])

    def test_neighbor_sum(self):
        w = Tensor(self.rng.normal(size=(3, 4)).reshape(-1, 1),
                   requires_grad=True)
        v = Tensor(self.rng.normal(size=(6, 2)), requires_grad=True)
        idx = self.rng.integers(0, 6, size=(3, 4))
        coef = self.rng.normal(size=(3, 2))

        def forward():
            return sum_all(mul(neighbor_sum(w, v, every_cell(idx)), coef))

        backward(forward())
        fd_check(lambda: forward().item(), [w, v])

    def test_neighbor_sum_matches_loop(self):
        w = self.rng.normal(size=(3, 4))
        v = self.rng.normal(size=(6, 2))
        idx = self.rng.integers(0, 6, size=(3, 4))
        out = nn.neighbor_sum(w.reshape(-1, 1), v, every_cell(idx))
        ref = np.zeros((3, 2))
        for i in range(3):
            for j in range(4):
                ref[i] += w[i, j] * v[idx[i, j]]
        assert_allclose(out, ref, rtol=1e-12)

    def test_softmax_rows_masked(self):
        # rows of 3, 4, 0 and 2 entries: each row's entries are its mask
        a = Tensor(self.rng.normal(size=(9, 1)), requires_grad=True)
        layout = nn.CompressedRows(np.array([0, 3, 7, 7, 9]),
                                   np.zeros(9, dtype=int))
        coef = self.rng.normal(size=(9, 1))

        def forward():
            return sum_all(mul(softmax_entries(a, layout), coef))

        out = softmax_entries(a, layout)
        assert_allclose(layout.row_sum(out.data[:, 0]), [1.0, 1.0, 0.0, 1.0],
                        atol=1e-12)
        backward(forward())
        fd_check(lambda: forward().item(), [a])

    def test_softmax_all_invalid_row_is_zero(self):
        # row 1's entries are all -inf, row 2 has none
        layout = nn.CompressedRows(np.array([0, 2, 4, 4]),
                                   np.zeros(4, dtype=int))
        out = softmax_entries(
            Tensor([[1.0], [2.0], [-np.inf], [-np.inf]]), layout)
        assert_allclose(out.data[2:, 0], [0.0, 0.0])
        assert_allclose(out.data[:2, 0].sum(), 1.0, atol=1e-12)

    def test_l2_normalize(self):
        a = Tensor(self.rng.normal(size=(3, 4)) + 0.5, requires_grad=True)
        coef = self.rng.normal(size=(3, 4))

        def forward():
            return sum_all(mul(l2_normalize_rows(a), coef))

        out = l2_normalize_rows(a)
        assert_allclose(np.linalg.norm(out.data, axis=1), np.ones(3), rtol=1e-12)
        backward(forward())
        fd_check(lambda: forward().item(), [a])

    def test_l2_normalize_zero_row_stays_zero(self):
        a = Tensor(np.array([[0.0, 0.0], [3.0, 4.0]]), requires_grad=True)
        out = l2_normalize_rows(a)
        assert_allclose(out.data, [[0.0, 0.0], [0.6, 0.8]])
        backward(sum_all(out))
        assert_allclose(a.grad[0], [0.0, 0.0])

    def test_nonlinearities(self):
        # keep inputs away from the relu/leaky kinks at zero
        base = self.rng.normal(size=(3, 3))
        base = np.where(np.abs(base) < 0.2, base + 0.5, base)
        for op in (relu, leaky_relu, sigmoid, tanh, identity):
            a = Tensor(base.copy(), requires_grad=True)
            coef = self.rng.normal(size=(3, 3))

            def forward():
                return sum_all(mul(op(a), coef))

            backward(forward())
            fd_check(lambda: forward().item(), [a])

    def test_clamp_gradient_zero_outside(self):
        _, dp = bce_and_grad(np.array([[-2.0], [0.5], [3.0]]), [1, 1, 1])
        assert_allclose(dp, [[0.0], [-2.0 / 3.0], [0.0]], rtol=1e-15)

    def test_bce(self):
        p = Tensor(self.rng.uniform(0.05, 0.95, size=(6, 1)))
        y = np.array([1, 0, 0, 1, 1, 0])
        p.grad = bce_and_grad(p.data, y)[1]
        fd_check(lambda: nn.bce(p.data, y).value, [p])

    def test_two_layer_mlp_all_params(self):
        """Full small network: tanh hidden layer, sigmoid head, squared error."""
        x = Tensor(self.rng.normal(size=(6, 4)))
        y = Tensor(self.rng.integers(0, 2, size=(6, 1)).astype(float))
        w1 = Tensor(self.rng.normal(size=(4, 5)) * 0.4, requires_grad=True)
        b1 = Tensor(np.zeros((1, 5)), requires_grad=True)
        w2 = Tensor(self.rng.normal(size=(5, 1)) * 0.4, requires_grad=True)
        b2 = Tensor(np.zeros((1, 1)), requires_grad=True)

        def forward():
            h = tanh(add(matmul(x, w1), b1))
            p = sigmoid(add(matmul(h, w2), b2))
            d = sub(p, y)
            return mean_all(mul(d, d))

        backward(forward())
        fd_check(lambda: forward().item(), [w1, b1, w2, b2],
                 rel=1e-3, floor=1e-6)


SPECIALS = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan])


def scatter_case(seed, n, z, m, d, dups=False, pad=False, specials=False):
    """Index, weights and upstream gradients for the two scatter vjps.

    dups draws every index from rows 0-2; pad turns each row's trailing
    slots into padding (index 0, weight 0); specials plants -0.0, +-inf and
    NaNs of both signs in the upstream gradients and -0.0 in the weights.
    """
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, min(m, 3) if dups else m, size=(n, z))
    w = rng.normal(size=(n, z))
    if pad:
        fill = rng.integers(0, z + 1, size=n)
        padding = np.arange(z) >= fill[:, None]
        idx[padding] = 0
        w[padding] = 0.0
    # the third draw fed a third scatter; drawing it keeps every case's data
    grads = [rng.normal(size=shape) for shape in ((n, d), (n, z), (n * z, d))]
    if specials:
        w[rng.random(w.shape) < 0.1] = -0.0
        for g in grads:
            hit = rng.random(g.shape) < 0.3
            g[hit] = rng.choice(SPECIALS, size=hit.sum())
    return idx, w, grads[:2]


def assert_bits_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                          np.ascontiguousarray(want).view(np.int64))


SCATTER_CASES = {
    "duplicates_and_padding": dict(n=6, z=5, m=6, d=3, dups=True, pad=True),
    "specials": dict(n=8, z=4, m=5, d=4, dups=True, pad=True, specials=True),
    "z_is_1": dict(n=7, z=1, m=7, d=2, pad=True, specials=True),
    "more_rows_than_nodes": dict(n=3, z=4, m=9, d=3, dups=True),
    "fewer_rows_than_nodes": dict(n=9, z=3, m=4, d=2, pad=True, specials=True),
}


class TestScattersMatchAddAt:
    """The backward scatters equal np.add.at in every bit: same terms, same
    per-row order, multiply then add from +0.0. Padding entries stay in."""

    @pytest.fixture(autouse=True)
    def quiet_specials(self):
        # inf - inf and 0 * inf are the point of the specials cases
        with np.errstate(invalid="ignore"):
            yield

    def check(self, seed, n, z, m, d, **kw):
        idx, w, (g_sum, g_gather) = scatter_case(seed, n, z, m, d, **kw)
        assert_bits_equal(
            nn.neighbor_sum_transpose(w.reshape(-1, 1), g_sum,
                                      every_cell(idx), m),
            add_at_neighbor_sum_vjp(w, m, idx, g_sum))

        column = Tensor(np.ones((m, 1)), requires_grad=True)
        (dv,) = gather(column, every_cell(idx))._vjp(g_gather.reshape(-1, 1))
        assert_bits_equal(dv, add_at_gather_vjp(m, idx, g_gather))

    @pytest.mark.parametrize("case", sorted(SCATTER_CASES))
    def test_named_case(self, case):
        self.check(0, **SCATTER_CASES[case])

    def test_random_shapes(self):
        rng = np.random.default_rng(11)
        for seed in range(200):
            n, z, m, d = (int(x) for x in rng.integers(1, 9, size=4))
            self.check(seed, n, z, m, d, dups=bool(seed % 2),
                       pad=bool(seed % 3), specials=bool(seed % 5 < 3))

    def test_specials_reach_the_result(self):
        # the cases above must exercise inf, NaN and -0.0 sums, not only
        # finite ones
        idx, w, (g_sum, _) = scatter_case(0, **SCATTER_CASES["specials"])
        dv = add_at_neighbor_sum_vjp(w, 5, idx, g_sum)
        assert np.isnan(dv).any() and np.isinf(dv).any()


class TestBceMatchesTheChain:
    """nn.bce's loss and p's gradient equal, bit for bit, those of the
    nine-node chain it replaced (reference.chain_bce)."""

    # the clamp bounds, just inside them, outside them, and 0 and 1
    EDGES = [0.0, 1e-7, np.nextafter(1e-7, 1.0), 0.5,
             np.nextafter(1.0 - 1e-7, 0.0), 1.0 - 1e-7, 1.0, -0.5, 1.5]

    @staticmethod
    def both(p, y):
        value, grad = bce_and_grad(p, y)
        t = Tensor(p, requires_grad=True)
        loss = chain_bce(t, y)
        backward(loss)
        return (np.array([[value]]), grad), (loss.data, t.grad)

    def test_edge_cases(self):
        p = np.repeat(self.EDGES, 2).reshape(-1, 1)
        y = np.tile([0, 1], len(self.EDGES))
        (loss, grad), (want_loss, want_grad) = self.both(p, y)
        assert_bits_equal(loss, want_loss)
        assert_bits_equal(grad, want_grad)
        # the clamp zeroes p's gradient at and beyond its bounds, as -0.0
        # where the unclamped gradient is negative (label 1)
        clamped = ~((p > 1e-7) & (p < 1.0 - 1e-7))[:, 0]
        assert clamped.sum() == 12 and np.all(grad[clamped] == 0.0)
        assert np.array_equal(np.signbit(grad[clamped, 0]), y[clamped] == 1)

    def test_random_batches(self):
        """Lengths past numpy's SIMD widths, and NaN of either sign in
        half the batches: the sum's order decides which NaN survives."""
        rng = np.random.default_rng(5)
        for n in range(1, 40):
            p = rng.random((n, 1))
            edge = rng.random(n) < 0.3
            p[edge, 0] = rng.choice(self.EDGES, size=edge.sum())
            if n % 2:
                p[rng.random(n) < 0.3, 0] = rng.choice([np.nan, -np.nan])
            with np.errstate(invalid="ignore"):
                (loss, grad), (want_loss, want_grad) = self.both(
                    p, rng.integers(0, 2, n))
            assert_bits_equal(loss, want_loss)
            assert_bits_equal(grad, want_grad)


class TestGlorotInit:
    def test_bound_and_determinism(self):
        t1 = nn.glorot_uniform(20, 30, np.random.default_rng(5))
        t2 = nn.glorot_uniform(20, 30, np.random.default_rng(5))
        bound = math.sqrt(6.0 / 50)
        assert t1.shape == (20, 30) and t1.dtype == np.float64
        assert np.abs(t1).max() <= bound
        assert_allclose(t1, t2)


class TestAdam:
    def test_first_step_moves_by_about_lr(self):
        """With any constant gradient the first Adam update has magnitude ~lr."""
        p = np.array([[1.0, -2.0]])
        AdamState([p], lr=0.01).step({0: np.array([[0.5, -3.0]])})
        assert_allclose(p, [[1.0 - 0.01, -2.0 + 0.01]], atol=1e-9)

    def test_zero_gradient_leaves_param_unchanged(self):
        """A slot with no gradient moves as with a zero one: not at all."""
        p, q = np.array([[1.0, 2.0]]), np.array([[-0.0, 3.0]])
        AdamState([p, q], lr=0.1).step({1: np.zeros((1, 2))})
        assert_allclose(p, [[1.0, 2.0]])
        assert np.array_equal(np.signbit(q), [[True, False]])

    def test_gradients_cleared_after_step(self):
        """The tape's Adam, the oracle of nn.AdamState, consumes the
        gradients it steps on."""
        p = Tensor(np.array([[1.0]]), requires_grad=True)
        p.grad = np.array([[1.0]])
        TapeAdam([p], lr=0.1).step()
        assert p.grad is None

    def test_matches_the_tape_adam(self):
        """Arrays and slot gradients step bit for bit as the tape's Adam
        steps tensors and their .grad, a slot left out included."""
        rng = np.random.default_rng(8)
        arrays = [rng.normal(size=shape) for shape in ((3, 2), (4, 1), (2, 2))]
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        opt, tape_opt = AdamState(arrays, lr=0.05), TapeAdam(tensors, lr=0.05)
        for step in range(5):
            grads = {i: rng.normal(size=a.shape) for i, a in enumerate(arrays)
                     if i != step % 3}
            for i, g in grads.items():
                tensors[i].grad = g.copy()
            opt.step(grads)
            tape_opt.step()
            for a, t in zip(arrays, tensors):
                assert np.array_equal(a.view(np.int64), t.data.view(np.int64))

    def test_identical_setups_identical_trajectories(self):
        def run():
            p = np.array([[4.0, -1.0]])
            opt = AdamState([p], lr=0.05)
            for _ in range(25):
                opt.step({0: 2.0 * p})
            return p.copy()

        assert_allclose(run(), run(), rtol=0, atol=0)

    def test_converges_on_quadratic(self):
        target = np.array([[2.0, -3.0, 0.5]])
        p = np.zeros((1, 3))
        opt = AdamState([p], lr=0.1)
        for _ in range(400):
            opt.step({0: 2.0 * (p - target)})
        assert_allclose(p, target, atol=1e-3)
