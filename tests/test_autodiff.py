"""Engine tests: forward anchors, backward closed forms, tape behavior,
and finite-difference agreement for every primitive."""

import math
import types
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dualqa import autodiff as ad
from dualqa import qg
from dualqa.qa import GRUCellParams, glorot_uniform, gru_step

from helpers import GradientCheckError, grad_check, masked_sigmoid, toy_dual_objectives


def _rand(rng, shape, scale=0.8):
    return ad.Tensor(rng.normal(size=shape) * scale)


class TestForwardAnchors:
    def test_softmax_uniform_logits(self):
        out = ad.softmax_lastdim(ad.Tensor([1.0, 1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out.values, [0.25, 0.25, 0.25, 0.25], rtol=0, atol=1e-15)
        assert ad.tanh(ad.Tensor([0.0])).values[0] == 0.0

    def test_matmul_identity(self):
        v = ad.Tensor([2.0, -1.0, 5.0])
        out = ad.matmul(ad.Tensor(np.eye(3)), v)
        np.testing.assert_array_equal(out.values, [2.0, -1.0, 5.0])

    def test_concat_rows_stacks_vectors(self):
        rows = [ad.Tensor([1.0, 2.0]), ad.Tensor([3.0, 4.0])]
        out = ad.concat(rows, axis="rows")
        np.testing.assert_array_equal(out.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_row_lookup_single_and_list(self):
        table = ad.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(ad.row_lookup(table, 1).values, [3.0, 4.0])
        np.testing.assert_array_equal(ad.row_lookup(table, [2, 0]).values,
                                      [[5.0, 6.0], [1.0, 2.0]])

    def test_log_softmax_large_logits_exact(self):
        # exp(700) overflows; the max shift leaves log(1 + e^-10) to round.
        out = ad.log_softmax(ad.Tensor([700.0, 710.0])).values
        lse = math.log1p(math.exp(-10.0))
        np.testing.assert_allclose(out, [-10.0 - lse, -lse], rtol=0, atol=2e-15)


class TestForwardErrors:
    def test_matmul_shape_mismatch_names_kind_and_shapes(self):
        with pytest.raises(ValueError, match=r"matmul.*\(2, 3\).*\(2,\)"):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones(2)))

    def test_matmul_of_two_vectors_rejected(self):
        with pytest.raises(ValueError, match=r"matmul.*\(3,\).*\(3,\)"):
            ad.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones(3)))

    def test_concat_joins_vectors_or_matrices_on_the_last_axis(self):
        matrices = [ad.Tensor(np.ones((2, 3))), ad.Tensor(np.zeros((2, 1)))]
        vectors = [ad.Tensor(np.ones(3)), ad.Tensor(np.ones(2))]
        np.testing.assert_array_equal(ad.concat(matrices).values, [[1, 1, 1, 0]] * 2)
        assert ad.concat(vectors).shape == (5,)
        mismatched = [ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 3)))]
        rank3 = [ad.Tensor(np.ones((2, 2, 3))), ad.Tensor(np.ones((2, 2, 3)))]
        mixed = [ad.Tensor(np.ones(3)), ad.Tensor(np.ones((1, 3)))]
        for parts, axis in ((mismatched, 0), (rank3, 0), (mixed, 0), (matrices, 1),
                            (vectors, -1)):
            with pytest.raises(ValueError, match="concat"):
                ad.concat(parts, axis=axis)

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"add.*\(3,\).*\(4,\)"):
            ad.add(ad.Tensor(np.ones(3)), ad.Tensor(np.ones(4)))

    def test_row_lookup_out_of_range_names_index_and_size(self):
        table = ad.Tensor(np.ones((3, 2)))
        with pytest.raises(IndexError, match="index 5.*3 rows"):
            ad.row_lookup(table, 5)

    def test_target_log_prob_checks_shapes_and_targets(self):
        X, W = ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 3)))
        with pytest.raises(ValueError, match=r"target_log_prob.*\(2, 3\).*\(4, 2\)"):
            ad.target_log_prob(X, ad.Tensor(np.ones((4, 2))), [0, 1])
        with pytest.raises(ValueError, match="3 targets for 2 rows"):
            ad.target_log_prob(X, W, [0, 1, 2])
        with pytest.raises(IndexError, match="target 4 out of range for 4 classes"):
            ad.target_log_prob(X, W, [0, 4])

    def test_tensor_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            ad.Tensor([1.0, float("nan")])


class TestSoftmaxProperties:
    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_normalized_and_nonnegative(self, logits):
        out = ad.softmax_lastdim(ad.Tensor(logits)).values
        assert np.all(out >= 0.0)
        assert abs(out.sum() - 1.0) <= 1e-9

    def test_2d_rows_each_normalized(self):
        rng = np.random.default_rng(0)
        out = ad.softmax_lastdim(ad.Tensor(rng.normal(size=(5, 7)) * 30)).values
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(5), rtol=0, atol=1e-9)

    def test_large_logits_stable(self):
        out = ad.softmax_lastdim(ad.Tensor([700.0, 710.0])).values
        assert np.all(np.isfinite(out)) and abs(out.sum() - 1.0) <= 1e-9

    @settings(deadline=None, max_examples=40)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 6)),
                      elements=st.floats(-50, 50)))
    def test_log_softmax_is_log_of_softmax(self, logits):
        got = ad.log_softmax(ad.Tensor(logits)).values
        np.testing.assert_allclose(np.exp(got), ad.softmax_lastdim(ad.Tensor(logits)).values,
                                   rtol=1e-12, atol=1e-15)


class TestBackwardAnchors:
    def test_sum_of_squares(self):
        x = ad.Tensor([1.0, 2.0, 3.0])
        with ad.ComputationRecord():
            loss = ad.reduce_sum(ad.elementwise_mul(x, x))
        (gx,) = ad.backward(loss, [x])
        np.testing.assert_array_equal(gx, [2.0, 4.0, 6.0])

    def test_softmax_nll_closed_form(self):
        z = ad.Tensor([0.3, -1.2, 0.7])
        with ad.ComputationRecord():
            loss = ad.scalar_scale(ad.row_lookup(ad.log_softmax(z), 2), -1.0)
        (gz,) = ad.backward(loss, [z])
        shifted = np.exp(z.values - z.values.max())
        softmax = shifted / shifted.sum()
        np.testing.assert_allclose(gz, softmax - np.array([0.0, 0.0, 1.0]), atol=1e-12)

    def test_repeated_walks_return_equal_arrays(self):
        x, w = ad.Tensor([1.0, 2.0]), ad.Tensor([[0.5, -1.0], [2.0, 0.25]])
        with ad.ComputationRecord() as rec:
            loss = ad.reduce_sum(ad.tanh(ad.matmul(w, ad.elementwise_mul(x, x))))
        n_nodes = len(rec.nodes)
        first = ad.backward(loss, [x, w])
        second = ad.backward(loss, [x, w])
        assert len(rec.nodes) == n_nodes
        for a, b in zip(first, second):
            assert a is not b
            np.testing.assert_array_equal(a, b)

    def test_nonparticipating_tensor_keeps_zero_grad(self):
        # ``unused`` is never recorded; ``side`` is, but does not feed the loss.
        x, unused, side = ad.Tensor([1.0, 2.0]), ad.Tensor([5.0]), ad.Tensor(np.ones((3, 2)))
        with ad.ComputationRecord():
            ad.matmul(side, x)
            loss = ad.reduce_sum(x)
        g_x, g_unused, g_side = ad.backward(loss, [x, unused, side])
        np.testing.assert_array_equal(g_x, [1.0, 1.0])
        np.testing.assert_array_equal(g_unused, [0.0])
        assert g_side.shape == (3, 2)
        np.testing.assert_array_equal(g_side, np.zeros((3, 2)))

    def test_tensor_recorded_again_later_keeps_its_gradient(self):
        x = ad.Tensor([1.0, 2.0])
        with ad.ComputationRecord():
            first = ad.reduce_sum(ad.square(x))
        with ad.ComputationRecord():
            ad.reduce_sum(x)
        (gx,) = ad.backward(first, [x])
        np.testing.assert_array_equal(gx, [2.0, 4.0])
        # The loss itself feeds a second record.
        with ad.ComputationRecord():
            loss = ad.reduce_sum(ad.square(x))
        with ad.ComputationRecord():
            ad.scalar_scale(loss, 3.0)
        (gx,) = ad.backward(loss, [x])
        np.testing.assert_array_equal(gx, [2.0, 4.0])


class TestBackwardErrors:
    def test_loss_must_be_scalar(self):
        # A vector loss is differentiated channel by channel; a matrix is not.
        x = ad.Tensor(np.ones((2, 2)))
        with ad.ComputationRecord():
            y = ad.square(x)
        with pytest.raises(ValueError, match=r"scalar or a vector.*\(2, 2\)"):
            ad.backward(y, [x])

    def test_loss_without_record(self):
        x = ad.Tensor([1.0])
        loss = ad.reduce_sum(x)
        with pytest.raises(ValueError, match="ComputationRecord"):
            ad.backward(loss, [x])


class TestRecord:
    def test_nodes_topologically_ordered(self):
        x = ad.Tensor([1.0, 2.0])
        with ad.ComputationRecord() as rec:
            ad.reduce_sum(ad.add(ad.square(ad.tanh(x)), x))
        made = set()
        for node in rec.nodes:
            assert all(t._record is None or id(t) in made for t in node.inputs)
            assert node.output._record is rec
            made.add(id(node.output))
        # Recording never writes to its inputs.
        assert x._record is None

    def test_no_recording_suspends_taping(self):
        x = ad.Tensor([1.0])
        with ad.ComputationRecord() as rec:
            with ad.no_recording():
                ad.square(x)
            assert rec.nodes == []
            ad.square(x)
            assert len(rec.nodes) == 1

    def test_clear_resets_state(self):
        x = ad.Tensor([1.0])
        with ad.ComputationRecord() as rec:
            loss = ad.reduce_sum(x)
        ad.backward(loss, [x])
        rec.clear()
        assert rec.nodes == []


def _scalarized(op, rng):
    """Wrap an op output into a scalar loss with a fixed random probe so
    every output entry influences the loss."""
    cache = {}

    def build(inputs):
        out = op(inputs)
        if "probe" not in cache:
            cache["probe"] = rng.normal(size=out.shape)
        return ad.reduce_sum(ad.elementwise_mul(out, ad.Tensor(cache["probe"])))
    return build


# Each primitive's gradient-check case: inputs drawn from an rng, and the op.
PRIMITIVE_CASES = {
    "add": (lambda rng: [_rand(rng, (4, 5)), _rand(rng, (4, 5))],
            lambda p: ad.add(p[0], p[1])),
    "add_broadcast": (lambda rng: [_rand(rng, (4, 5)), _rand(rng, 5)],
                      lambda p: ad.add(p[0], p[1])),
    "mul": (lambda rng: [_rand(rng, 6), _rand(rng, 6)],
            lambda p: ad.elementwise_mul(p[0], p[1])),
    "mul_broadcast": (lambda rng: [_rand(rng, (3, 4)), _rand(rng, 4)],
                      lambda p: ad.elementwise_mul(p[0], p[1])),
    "matmul_mm": (lambda rng: [_rand(rng, (3, 4)), _rand(rng, (4, 2))],
                  lambda p: ad.matmul(p[0], p[1])),
    "matmul_vm": (lambda rng: [_rand(rng, 4), _rand(rng, (4, 3))],
                  lambda p: ad.matmul(p[0], p[1])),
    "matmul_mv": (lambda rng: [_rand(rng, (3, 4)), _rand(rng, 4)],
                  lambda p: ad.matmul(p[0], p[1])),
    "concat_axis0": (lambda rng: [_rand(rng, 3), _rand(rng, 4)],
                     lambda p: ad.concat(p)),
    "concat_rows": (lambda rng: [_rand(rng, 4), _rand(rng, 4), _rand(rng, 4)],
                    lambda p: ad.concat(p, axis="rows")),
    "row_lookup_single": (lambda rng: [_rand(rng, (6, 3))],
                          lambda p: ad.row_lookup(p[0], 2)),
    "row_lookup_list": (lambda rng: [_rand(rng, (6, 3))],
                        lambda p: ad.row_lookup(p[0], [1, 4, 1])),
    "gru_cell": (lambda rng: [_rand(rng, 3), _rand(rng, 4)]
                 + [_rand(rng, (4, n)) for n in (3, 4) * 3],
                 lambda p: ad.gru_cell(*p)),
    "gru_cell_rows": (lambda rng: [_rand(rng, (3, 3)), _rand(rng, (3, 4))]
                      + [_rand(rng, (4, n)) for n in (3, 4) * 3],
                      lambda p: ad.gru_cell(*p)),
    "gru_sequence": (lambda rng: [_rand(rng, (3, 3)), _rand(rng, 4)]
                     + [_rand(rng, (4, n)) for n in (3, 4) * 3],
                     lambda p: ad.gru_sequence(*p)),
    "gru_sequence_block": (lambda rng: [_rand(rng, (6, 3)), _rand(rng, (2, 4))]
                           + [_rand(rng, (4, n)) for n in (3, 4) * 3],
                           lambda p: ad.gru_sequence(*p)),
    "matmul_block_v": (lambda rng: [_rand(rng, (2, 3, 4)), _rand(rng, 4)],
                       lambda p: ad.matmul(p[0], p[1])),
    "concat_last_axis": (lambda rng: [_rand(rng, (3, 2)), _rand(rng, (3, 4))],
                         lambda p: ad.concat(p)),
    "reshape": (lambda rng: [_rand(rng, (3, 4))],
                lambda p: ad.reshape(p[0], (3, 1, 4))),
    "linear_log_softmax": (lambda rng: [_rand(rng, 5), _rand(rng, (6, 5))],
                           lambda p: ad.linear_log_softmax(p[0], p[1])),
    "linear_log_softmax_rows": (lambda rng: [_rand(rng, (3, 5)), _rand(rng, (6, 5))],
                                lambda p: ad.linear_log_softmax(p[0], p[1])),
    "tanh": (lambda rng: [_rand(rng, 7)], lambda p: ad.tanh(p[0])),
    "softmax": (lambda rng: [_rand(rng, (3, 6))],
                lambda p: ad.softmax_lastdim(p[0])),
    "log_softmax": (lambda rng: [_rand(rng, (3, 6))],
                    lambda p: ad.log_softmax(p[0])),
    "target_log_prob": (lambda rng: [_rand(rng, (4, 5)), _rand(rng, (6, 5))],
                        lambda p: ad.target_log_prob(p[0], p[1], [2, 0, 2, 5])),
    "square": (lambda rng: [_rand(rng, (4, 2))], lambda p: ad.square(p[0])),
    "sum": (lambda rng: [_rand(rng, (3, 3))], lambda p: ad.reduce_sum(p[0])),
    "scalar_scale": (lambda rng: [_rand(rng, 5)],
                     lambda p: ad.scalar_scale(p[0], -1.7)),
}


def _attention(p):
    """``qg.attention_step`` on tensors; weights and context as one output."""
    params = types.SimpleNamespace(att_state=p[4], att_history=p[5], att_vector=p[6])
    return ad.concat(qg.attention_step(p[0], p[1], p[2], p[3], params))


# Each row form: inputs with B = 3 rows, the op, and the inputs whose
# leading axis is the row axis (the rest are shared by every row).
ROW_FORMS = {
    "gru_cell": (PRIMITIVE_CASES["gru_cell_rows"][0], lambda p: ad.gru_cell(*p), (0, 1)),
    "matmul_block_v": (lambda rng: [_rand(rng, (3, 2, 4)), _rand(rng, 4)],
                       lambda p: ad.matmul(p[0], p[1]), (0,)),
    "concat_last_axis": (PRIMITIVE_CASES["concat_last_axis"][0], ad.concat, (0, 1)),
    "linear_log_softmax": (PRIMITIVE_CASES["linear_log_softmax_rows"][0],
                           lambda p: ad.linear_log_softmax(p[0], p[1]), (0,)),
    "attention_step": (lambda rng: [_rand(rng, (3, 4)), _rand(rng, (5, 4)), _rand(rng, (5, 2)),
                                    _rand(rng, (3, 4)), _rand(rng, (4, 2)), _rand(rng, (4, 2)),
                                    _rand(rng, 2)],
                       _attention, (0, 3)),
}


class TestPrimitiveGradients:
    """Central differences at eps=1e-5 within 1e-4 for every primitive on
    random tensors with dims <= 8."""

    @pytest.mark.parametrize("case", list(PRIMITIVE_CASES))
    def test_matches_finite_differences(self, case):
        rng = np.random.default_rng(zlib.crc32(case.encode()))
        make_inputs, op = PRIMITIVE_CASES[case]
        err = grad_check(_scalarized(op, rng), make_inputs(rng), epsilon=1e-5, tolerance=1e-4)
        assert err < 1e-4

    @pytest.mark.parametrize("case", list(PRIMITIVE_CASES))
    def test_vector_loss_rows_match_scalar_walks(self, case):
        """Two probes of the op's output give a 2-entry loss; one walk must
        return the two gradients that one scalar walk per probe gives."""
        rng = np.random.default_rng(zlib.crc32(case.encode()))
        make_inputs, op = PRIMITIVE_CASES[case]
        inputs = make_inputs(rng)
        with ad.ComputationRecord():
            out = op(inputs)
            probes = [ad.Tensor(rng.normal(size=out.shape)) for _ in range(2)]
            losses = [ad.reduce_sum(ad.elementwise_mul(out, p)) for p in probes]
            vector = ad.concat(losses, axis="rows")
        jacobians = ad.backward(vector, inputs)
        for row, loss in enumerate(losses):
            for jac, grad in zip(jacobians, ad.backward(loss, inputs)):
                assert jac.shape == (2,) + grad.shape
                np.testing.assert_allclose(jac[row], grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", list(ROW_FORMS))
    def test_row_form_jacobians_equal_per_row_vector_calls(self, case):
        """A 3-entry loss over a row form's output: its one walk gives the
        Jacobian rows that the vector form, called row by row on the same
        probes, gives (rows of the row inputs, summed for shared inputs)."""
        rng = np.random.default_rng(zlib.crc32(case.encode()))
        make_inputs, op, row_inputs = ROW_FORMS[case]
        inputs = make_inputs(rng)
        with ad.ComputationRecord():
            out = op(inputs)
            probes = [ad.Tensor(rng.normal(size=out.shape)) for _ in range(3)]
            vector = ad.concat([ad.reduce_sum(ad.elementwise_mul(out, p)) for p in probes],
                               axis="rows")
        jacobians = ad.backward(vector, inputs)
        want = [np.zeros((3,) + t.shape) for t in inputs]
        for b in range(out.shape[0]):
            row_call = [ad.Tensor(t.values[b]) if i in row_inputs else t
                        for i, t in enumerate(inputs)]
            with ad.ComputationRecord():
                out_b = op(row_call)
                vector_b = ad.concat([ad.reduce_sum(ad.elementwise_mul(
                    out_b, ad.Tensor(p.values[b]))) for p in probes], axis="rows")
            np.testing.assert_allclose(out_b.values, out.values[b], rtol=0, atol=1e-12)
            for i, jac in enumerate(ad.backward(vector_b, row_call)):
                if i in row_inputs:
                    want[i][:, b] = jac
                else:
                    want[i] += jac
        for got, w in zip(jacobians, want):
            np.testing.assert_allclose(got, w, rtol=0, atol=1e-12)

    def test_cases_cover_every_kind_a_toy_dual_step_records(self, tmp_path):
        checked = set()
        for make_inputs, op in PRIMITIVE_CASES.values():
            with ad.ComputationRecord() as rec:
                op(make_inputs(np.random.default_rng(0)))
            checked.update(node.kind for node in rec.nodes)
        record, *_ = toy_dual_objectives(tmp_path)
        recorded = {node.kind for node in record.nodes}
        assert "log_softmax" in recorded
        assert recorded <= checked, recorded - checked


def _reference_gru(x, h, W_z, U_z, W_r, U_r, W_h, U_h):
    """The GRU update composed from numpy operations; it also evaluates at
    complex arguments, which gives complex-step derivatives."""
    z = 1.0 / (1.0 + np.exp(-(W_z @ x + U_z @ h)))
    r = 1.0 / (1.0 + np.exp(-(W_r @ x + U_r @ h)))
    c = np.tanh(W_h @ x + U_h @ (r * h))
    return z * c + (1.0 - z) * h


def _complex_step_grads(inputs, probe, step=1e-30):
    """d sum(probe * gru(inputs)) / d inputs, exact to rounding: no difference is taken."""
    grads = [np.zeros(v.shape) for v in inputs]
    for k, v in enumerate(inputs):
        for idx in np.ndindex(v.shape):
            bumped = [u.astype(complex) for u in inputs]
            bumped[k][idx] += step * 1j
            grads[k][idx] = (probe * _reference_gru(*bumped)).sum().imag / step
    return grads


class TestGRUCell:
    """The fused cell against the composed numpy reference, gates saturated
    or not: forward to 1e-12, every input gradient to 1e-10."""

    @staticmethod
    def _check(inputs):
        x, h, W_z, U_z, W_r, U_r = inputs[:6]
        probe = np.linspace(-1.0, 1.5, h.size)
        tensors = [ad.Tensor(v) for v in inputs]
        with ad.ComputationRecord():
            out = ad.gru_cell(*tensors)
            loss = ad.reduce_sum(ad.elementwise_mul(out, ad.Tensor(probe)))
        np.testing.assert_allclose(out.values, _reference_gru(*inputs), rtol=1e-12, atol=1e-12)
        for got, want in zip(ad.backward(loss, tensors), _complex_step_grads(inputs, probe)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
        return max(np.abs(W_z @ x + U_z @ h).max(), np.abs(W_r @ x + U_r @ h).max())

    @settings(deadline=None, max_examples=40)
    @given(st.data(), st.integers(1, 4), st.integers(1, 4), st.sampled_from([0.5, 5.0, 40.0]))
    def test_matches_composed_reference(self, data, n_in, n_h, scale):
        def draw(shape):
            return data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
        weights = [scale * draw((n_h, n)) for n in (n_in, n_h) * 3]
        self._check([draw(n_in), draw(n_h)] + weights)

    def test_saturated_gates_match_reference(self):
        rng = np.random.default_rng(5)
        weights = [40.0 * rng.uniform(-1, 1, size=(4, n)) for n in (3, 4) * 3]
        assert self._check([rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 4)] + weights) >= 40.0

    @pytest.mark.parametrize("B, n_in, n_h", [(10, 100, 50), (5, 100, 128), (4, 20, 12)])
    def test_rows_equal_vector_calls_exactly(self, B, n_in, n_h):
        """Each row of a row-form forward is the vector call on that row,
        bit for bit, a repeated row included."""
        rng = np.random.default_rng(B * n_in + n_h)
        x, h = rng.normal(size=(B, n_in)), rng.normal(size=(B, n_h))
        x[-1], h[-1] = x[0], h[0]
        weights = [_rand(rng, (n_h, n), 0.3) for n in (n_in, n_h) * 3]
        block = ad.gru_cell(ad.Tensor(x), ad.Tensor(h), *weights).values
        for b in range(B):
            row = ad.gru_cell(ad.Tensor(x[b]), ad.Tensor(h[b]), *weights).values
            np.testing.assert_array_equal(block[b], row)

    def test_zero_weights_halve_the_state(self):
        h = ad.Tensor([0.4, -2.0])
        weights = [ad.zeros((2, n)) for n in (3, 2) * 3]
        with ad.ComputationRecord():
            out = ad.gru_cell(ad.Tensor([1.0, 2.0, 3.0]), h, *weights)
            loss = ad.reduce_sum(out)
        np.testing.assert_array_equal(out.values, [0.2, -1.0])
        np.testing.assert_array_equal(ad.backward(loss, [h])[0], [0.5, 0.5])


def _gru_chain(X, h0, *weights):
    """The per-token reference of ``gru_sequence``: one ``gru_cell`` per
    row of ``X``, the states stacked as rows."""
    states, h = [], h0
    for t in range(X.shape[0]):
        h = ad.gru_cell(ad.row_lookup(X, t), h, *weights)
        states.append(h)
    return ad.concat(states, axis="rows")


def _probed(op, inputs, probes):
    """``op``'s output values and the gradients of a loss of one entry per
    probe, sum(probe * output), from one walk (a scalar loss for one probe)."""
    with ad.ComputationRecord():
        out = op(*inputs)
        losses = [ad.reduce_sum(ad.elementwise_mul(out, ad.Tensor(p))) for p in probes]
        loss = losses[0] if len(losses) == 1 else ad.concat(losses, axis="rows")
    return out.values, ad.backward(loss, inputs)


class TestGRUSequence:
    """One node for a whole GRU pass: its rows equal the per-token
    ``gru_cell`` chain bit for bit, and the gradients of all eight inputs
    equal the chain's to 1e-12, with one and with two channels."""

    @staticmethod
    def _check(rng, T, n_in, n_h, channels, scale=0.8):
        inputs = ([_rand(rng, (T, n_in)), _rand(rng, n_h)]
                  + [_rand(rng, (n_h, n), scale) for n in (n_in, n_h) * 3])
        probes = rng.normal(size=(channels, T, n_h))
        got, got_grads = _probed(ad.gru_sequence, inputs, probes)
        want, want_grads = _probed(_gru_chain, inputs, probes)
        np.testing.assert_array_equal(got, want)
        for g, w in zip(got_grads, want_grads):
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 6), st.integers(1, 6),
           st.sampled_from([1, 2]))
    def test_equals_per_token_chain(self, seed, T, n_in, n_h, channels):
        self._check(np.random.default_rng(seed), T, n_in, n_h, channels)

    @pytest.mark.parametrize("n_h", [50, 128])
    def test_equals_per_token_chain_at_mid_dims(self, n_h):
        self._check(np.random.default_rng(n_h), 20, 100, n_h, 2, scale=0.15)

    # The last case is 3 rows for a block of 2 sequences.
    @pytest.mark.parametrize("shapes", [((0, 3), (4,)), ((3,), (4,)), ((1, 2, 3), (4,)),
                                        ((3, 3), (2, 4))])
    def test_empty_or_misranked_inputs_rejected(self, shapes):
        x_shape, h_shape = shapes
        weights = [ad.zeros((4, n)) for n in (3, 4) * 3]
        with pytest.raises(ValueError, match="gru_sequence"):
            ad.gru_sequence(ad.zeros(x_shape), ad.zeros(h_shape), *weights)


def _block_check(rng, lens, n_in, n_h, channels, copies=(), scale=0.8):
    """B sequences of the given lengths (sequence b a verbatim copy of
    sequence a for each (b, a) in ``copies``) as one time-major block with
    random padding rows, against one B = 1 call per sequence: rows equal
    bit for bit; the gradients of every input, with probes that read no
    padded state, equal the per-sequence ones (weights summed) to 1e-12;
    the padded input rows get exactly zero."""
    lens = list(lens)
    seqs = [[_rand(rng, (n, n_in)), _rand(rng, n_h)] for n in lens]
    for b, a in copies:
        seqs[b], lens[b] = seqs[a], lens[a]
    weights = [_rand(rng, (n_h, n), scale) for n in (n_in, n_h) * 3]
    B, T = len(lens), max(lens)
    X = rng.normal(size=(T, B, n_in))
    probes = np.zeros((channels, T, B, n_h))

    def channel_grads(inputs, probe):  # gradients with their channel axis, one per probe
        out, grads = _probed(ad.gru_sequence, inputs, probe)
        return out, [g.reshape((channels,) + t.shape) for g, t in zip(grads, inputs)]

    per_sequence = []
    for b, ((X_b, h0_b), n) in enumerate(zip(seqs, lens)):
        X[:n, b] = X_b.values
        probes[:, :n, b] = rng.normal(size=(channels, n, n_h))
        per_sequence.append(channel_grads([X_b, h0_b] + weights, probes[:, :n, b]))
    h0 = ad.Tensor(np.stack([h0_b.values for _, h0_b in seqs]))
    got, (d_X, d_h0, *d_weights) = channel_grads(
        [ad.Tensor(X.reshape(T * B, n_in)), h0] + weights, probes.reshape(channels, T * B, n_h))
    got, d_X = got.reshape(T, B, n_h), d_X.reshape(channels, T, B, n_in)
    want_weights = [0.0] * 6
    for b, (n, (want, (want_X, want_h0, *want_w))) in enumerate(zip(lens, per_sequence)):
        np.testing.assert_array_equal(got[:n, b], want)
        np.testing.assert_allclose(d_X[:, :n, b], want_X, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(d_h0[:, b], want_h0, rtol=1e-12, atol=1e-12)
        assert np.all(d_X[:, n:, b] == 0.0)
        want_weights = [acc + w for acc, w in zip(want_weights, want_w)]
    for g, w in zip(d_weights, want_weights):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


class TestGRUSequenceBlock:
    """B ragged sequences as one ``gru_sequence`` block equal B separate
    passes: see ``_block_check``."""

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 12), min_size=1, max_size=6),
           st.integers(1, 6), st.integers(1, 6), st.sampled_from([1, 2]), st.data())
    def test_equals_per_sequence_calls(self, seed, lens, n_in, n_h, channels, data):
        copies = [(b, data.draw(st.integers(0, b - 1))) for b in range(1, len(lens))
                  if data.draw(st.booleans())]
        _block_check(np.random.default_rng(seed), lens, n_in, n_h, channels, copies)

    @pytest.mark.parametrize("n_h", [50, 128])
    def test_equals_per_sequence_calls_at_mid_dims(self, n_h):
        rng = np.random.default_rng(n_h)
        lens = rng.integers(4, 16, size=16)
        _block_check(rng, lens, 100, n_h, 2, copies=[(15, 0), (9, 3)], scale=0.15)


SIGMOID_EDGES = [0.0, -0.0, 1e-320, -1e-320, 710.0, -710.0, 745.0, -745.0]


class TestStableSigmoid:
    @settings(deadline=None, max_examples=200)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=16),
                      elements=st.one_of(st.floats(-800, 800), st.sampled_from(SIGMOID_EDGES))))
    @example(np.array(SIGMOID_EDGES))
    @example(np.array(SIGMOID_EDGES).reshape(2, 4))
    def test_equals_masked_form_byte_for_byte(self, x):
        with np.errstate(over="raise", invalid="raise"):
            got, want = ad._stable_sigmoid(x), masked_sigmoid(x)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


class TestGradCheck:
    def test_linear_layer_nll(self):
        rng = np.random.default_rng(1)
        W, b, v = _rand(rng, (3, 4), 0.4), _rand(rng, 3, 0.1), _rand(rng, 4)

        def build(params):
            logits = ad.add(ad.matmul(params[0], params[2]), params[1])
            return ad.scalar_scale(ad.row_lookup(ad.log_softmax(logits), 1), -1.0)

        assert grad_check(build, [W, b, v], epsilon=1e-5) < 1e-4

    def test_full_gru_cell_three_tokens(self):
        rng = np.random.default_rng(2)
        cell = GRUCellParams(*(glorot_uniform(rng, shape) for shape in [(8, 4), (8, 8)] * 3))
        tokens = [_rand(rng, 4) for _ in range(3)]
        probe = ad.Tensor(rng.normal(size=8))
        params = [cell.W_z, cell.U_z, cell.W_r, cell.U_r, cell.W_h, cell.U_h] + tokens

        def build(params):
            h = ad.zeros(8)
            for x in tokens:
                h = gru_step(cell, x, h)
            return ad.reduce_sum(ad.elementwise_mul(h, probe))

        assert grad_check(build, params, epsilon=1e-5) < 1e-4

    def test_gru_sequence_three_tokens(self):
        rng = np.random.default_rng(4)
        params = ([_rand(rng, (3, 4)), _rand(rng, 8)]
                  + [glorot_uniform(rng, shape) for shape in [(8, 4), (8, 8)] * 3])
        probe = ad.Tensor(rng.normal(size=(3, 8)))

        def build(params):
            return ad.reduce_sum(ad.elementwise_mul(ad.gru_sequence(*params), probe))

        assert grad_check(build, params, epsilon=1e-5) < 1e-4

    def test_corrupted_gradient_fails(self):
        rng = np.random.default_rng(3)
        x = _rand(rng, 5)

        def build(params):
            return ad.reduce_sum(ad.square(params[0]))

        with pytest.raises(GradientCheckError) as excinfo:
            grad_check(build, [x], analytic_scale=1.1)
        assert excinfo.value.max_relative_error > 1e-2

    def test_nondeterministic_loss_detected(self):
        state = {"calls": 0}
        x = ad.Tensor([1.0])

        def build(params):
            state["calls"] += 1
            return ad.scalar_scale(ad.reduce_sum(params[0]), float(state["calls"]))

        with pytest.raises(ValueError, match="not deterministic"):
            grad_check(build, [x])

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError, match="epsilon"):
            grad_check(lambda p: ad.reduce_sum(p[0]), [ad.Tensor([1.0])], epsilon=0.0)


class TestOutputsFinite:
    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
    def test_chained_ops_stay_finite(self, raw):
        x = ad.Tensor(raw)
        out = ad.softmax_lastdim(ad.tanh(ad.square(x)))
        assert np.all(np.isfinite(out.values))
        # Logits up to 900 apart: softmax underflows, log_softmax does not.
        out2 = ad.log_softmax(ad.square(x))
        assert np.all(np.isfinite(out2.values))
