"""Reverse-mode automatic differentiation over dense float64 tensors.

A small tape-based engine: primitives compute eagerly on numpy arrays
and, while a :class:`ComputationRecord` is active, append nodes to it;
recording writes only to the tensor a node creates.
``backward(loss, wrt)`` walks the record that produced ``loss`` once in
reverse and returns the gradients of the requested tensors as arrays; it
leaves the record and the tensors unchanged, so one record can be walked
for several losses.
Desk-scale on purpose: float64 everywhere, two fused primitives (the GRU
update ``gru_cell`` and the max-shifted ``log_softmax`` that gives every
log-probability), no sparse storage, no higher-order derivatives.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "ComputationRecord",
    "GradientCheckError",
    "backward",
    "grad_check",
    "no_recording",
    "zeros",
    "add",
    "elementwise_mul",
    "matmul",
    "concat",
    "row_lookup",
    "gru_cell",
    "tanh",
    "softmax_lastdim",
    "log_softmax",
    "square",
    "reduce_sum",
    "scalar_scale",
]


class GradientCheckError(ValueError):
    """Raised when analytic gradients disagree with central differences."""

    def __init__(self, message, max_relative_error):
        super().__init__(message)
        self.max_relative_error = max_relative_error


class Tensor:
    """Dense float64 array.

    ``_record`` is the ComputationRecord whose primitive created the
    tensor, and None for leaves (parameters, constants) and for tensors
    computed outside any record.  Size-1 tensors (shape ``()`` or
    ``(1,)``) play the role of scalars.
    """

    __slots__ = ("values", "_record")

    def __init__(self, values):
        v = np.array(values, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise ValueError("tensor values must be finite")
        self.values = v
        self._record = None

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError(f"item() needs a size-1 tensor, got shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def _wrap(arr) -> Tensor:
    """Adopt a freshly computed array without re-validating or copying."""
    values = np.asarray(arr, dtype=np.float64)
    if values.ndim > 0 and not values.flags["C_CONTIGUOUS"]:
        values = np.ascontiguousarray(values)
    t = Tensor.__new__(Tensor)
    t.values = values
    t._record = None
    return t


def zeros(shape) -> Tensor:
    return _wrap(np.zeros(shape))


class _Node:
    __slots__ = ("kind", "inputs", "output", "ctx")

    def __init__(self, kind, inputs, output, ctx):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.ctx = ctx


_STACK: list["ComputationRecord | None"] = []


def _active() -> "ComputationRecord | None":
    return _STACK[-1] if _STACK else None


class no_recording:
    """Context manager that suspends recording (e.g. for inference)."""

    def __enter__(self):
        _STACK.append(None)
        return self

    def __exit__(self, *exc):
        _STACK.pop()
        return False


class ComputationRecord:
    """Topologically ordered tape of primitive applications.

    One record per training step; single-threaded by contract.  Each node
    references its input tensors and owns its output, the only tensor
    recording writes to.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self):
        _STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _STACK.pop()
        if popped is not self:
            raise RuntimeError("mismatched ComputationRecord nesting")
        return False

    def add_node(self, kind, inputs, output, ctx):
        output._record = self
        self.nodes.append(_Node(kind, list(inputs), output, ctx))

    def clear(self):
        self.nodes.clear()


def _check_broadcast(kind, a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(
            f"{kind}: incompatible shapes {a.shape} and {b.shape}"
        ) from None


def _stable_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _forward_values(kind, vals, ctx):
    if kind == "add":
        a, b = vals
        _check_broadcast("add", a, b)
        return a + b
    if kind == "elementwise_mul":
        a, b = vals
        _check_broadcast("elementwise_mul", a, b)
        return a * b
    if kind == "matmul":
        a, b = vals
        if a.ndim not in (1, 2) or b.ndim not in (1, 2):
            raise ValueError(f"matmul: only 1-D/2-D operands, got {a.shape} and {b.shape}")
        if a.shape[-1] != b.shape[0]:
            raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
        return a @ b
    if kind == "concat":
        axis = ctx["axis"]
        if not vals:
            raise ValueError("concat: needs at least one input")
        if axis == "rows":
            if any(v.ndim != 1 for v in vals) or len({v.shape[0] for v in vals}) != 1:
                raise ValueError(
                    "concat: row stacking needs equal-length vectors, got "
                    f"{[v.shape for v in vals]}"
                )
            return np.stack(vals, axis=0)
        try:
            return np.concatenate(vals, axis=axis)
        except ValueError as e:
            raise ValueError(f"concat: {e}") from None
    if kind == "row_lookup":
        (table,) = vals
        idx = ctx["indices"]
        n = table.shape[0]
        for i in idx:
            if not 0 <= i < n:
                raise IndexError(
                    f"row_lookup: index {i} out of range for table with {n} rows"
                )
        out = table[idx[0]] if ctx["single"] else table[idx]
        return np.array(out, dtype=np.float64)
    if kind == "gru_cell":
        x, h, W_z, U_z, W_r, U_r, W_h, U_h = vals
        z = ctx["z"] = _stable_sigmoid(W_z @ x + U_z @ h)
        r = ctx["r"] = _stable_sigmoid(W_r @ x + U_r @ h)
        rh = ctx["rh"] = r * h
        c = ctx["c"] = np.tanh(W_h @ x + U_h @ rh)
        return z * c + (1.0 - z) * h
    if kind == "tanh":
        return np.tanh(vals[0])
    if kind == "softmax_lastdim":
        x = vals[0]
        if x.ndim < 1:
            raise ValueError("softmax_lastdim: needs at least one dimension")
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)
    if kind == "log_softmax":
        shifted = vals[0] - vals[0].max(axis=-1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    if kind == "square":
        return vals[0] * vals[0]
    if kind == "sum":
        return np.asarray(vals[0].sum())
    if kind == "scalar_scale":
        return vals[0] * ctx["factor"]
    raise ValueError(f"unknown primitive kind: {kind!r}")


def _apply(kind, inputs, ctx=None) -> Tensor:
    ctx = ctx or {}
    out = _wrap(_forward_values(kind, [t.values for t in inputs], ctx))
    rec = _active()
    if rec is not None:
        rec.add_node(kind, inputs, out, ctx)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    return _apply("add", [a, b])


def elementwise_mul(a: Tensor, b: Tensor) -> Tensor:
    return _apply("elementwise_mul", [a, b])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return _apply("matmul", [a, b])


def concat(parts, axis=0) -> Tensor:
    """Concatenate along ``axis``; ``axis="rows"`` stacks equal-length
    vectors into a matrix (one row per input)."""
    return _apply("concat", list(parts), {"axis": axis})


def row_lookup(table: Tensor, indices) -> Tensor:
    """Select rows of ``table``.  An int index returns a single row; a
    sequence returns one row per entry."""
    single = isinstance(indices, (int, np.integer))
    idx = [int(indices)] if single else [int(i) for i in indices]
    return _apply("row_lookup", [table], {"indices": idx, "single": single})


def gru_cell(x: Tensor, h: Tensor, W_z: Tensor, U_z: Tensor, W_r: Tensor,
             U_r: Tensor, W_h: Tensor, U_h: Tensor) -> Tensor:
    """One bias-free GRU update (Cho et al. 2014) as a single node:
    z = sigmoid(W_z x + U_z h), r = sigmoid(W_r x + U_r h),
    c = tanh(W_h x + U_h (r * h)), and the result z * c + (1 - z) * h."""
    return _apply("gru_cell", [x, h, W_z, U_z, W_r, U_r, W_h, U_h])


def tanh(x: Tensor) -> Tensor:
    return _apply("tanh", [x])


def softmax_lastdim(x: Tensor) -> Tensor:
    return _apply("softmax_lastdim", [x])


def log_softmax(x: Tensor) -> Tensor:
    """log(softmax(x)) over the last axis, finite wherever ``x`` is."""
    return _apply("log_softmax", [x])


def square(x: Tensor) -> Tensor:
    return _apply("square", [x])


def reduce_sum(x: Tensor) -> Tensor:
    return _apply("sum", [x])


def scalar_scale(x: Tensor, factor: float) -> Tensor:
    return _apply("scalar_scale", [x], {"factor": float(factor)})


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _input_grads(node: _Node, g):
    """The node's contribution to the gradient of each of its inputs, in
    input order, given the gradient ``g`` of its output.  For
    ``row_lookup`` the contribution is ``g`` itself, which the walk
    scatters into the looked-up rows."""
    kind, ins, ctx = node.kind, node.inputs, node.ctx
    y = node.output.values
    if kind == "add":
        a, b = ins
        return _unbroadcast(g, a.values.shape), _unbroadcast(g, b.values.shape)
    if kind == "elementwise_mul":
        a, b = ins
        return (_unbroadcast(g * b.values, a.values.shape),
                _unbroadcast(g * a.values, b.values.shape))
    if kind == "matmul":
        av, bv = ins[0].values, ins[1].values
        if av.ndim == 2 and bv.ndim == 2:
            return g @ bv.T, av.T @ g
        if av.ndim == 1 and bv.ndim == 2:
            return bv @ g, np.outer(av, g)
        if av.ndim == 2 and bv.ndim == 1:
            return np.outer(g, bv), av.T @ g
        return g * bv, g * av
    if kind == "concat":
        axis = ctx["axis"]
        if axis == "rows":
            return list(g)
        lead = (slice(None),) * (axis % g.ndim)
        parts, offset = [], 0
        for t in ins:
            n = t.values.shape[axis]
            parts.append(g[lead + (slice(offset, offset + n),)])
            offset += n
        return parts
    if kind == "row_lookup":
        return (g,)
    if kind == "gru_cell":
        x, h, W_z, U_z, W_r, U_r, W_h, U_h = (t.values for t in ins)
        z, r, rh, c = ctx["z"], ctx["r"], ctx["rh"], ctx["c"]
        # Gradients of the three pre-activations, then of the cell's inputs.
        a_h = g * z * (1.0 - c * c)
        a_z = g * (c - h) * z * (1.0 - z)
        g_rh = U_h.T @ a_h
        a_r = g_rh * h * r * (1.0 - r)
        return (W_z.T @ a_z + W_r.T @ a_r + W_h.T @ a_h,
                g * (1.0 - z) + g_rh * r + U_z.T @ a_z + U_r.T @ a_r,
                np.outer(a_z, x), np.outer(a_z, h), np.outer(a_r, x),
                np.outer(a_r, h), np.outer(a_h, x), np.outer(a_h, rh))
    if kind == "tanh":
        return (g * (1.0 - y * y),)
    if kind == "softmax_lastdim":
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)
    if kind == "log_softmax":
        return (g - np.exp(y) * g.sum(axis=-1, keepdims=True),)
    if kind == "square":
        return (2.0 * ins[0].values * g,)
    if kind == "sum":
        return (g,)
    if kind == "scalar_scale":
        return (ctx["factor"] * g,)
    raise ValueError(f"unknown primitive kind: {kind!r}")  # pragma: no cover


def backward(loss: Tensor, wrt) -> list[np.ndarray]:
    """d(loss)/d(t) for each tensor ``t`` in ``wrt``, in order.

    One reverse walk over the record that produced ``loss``, whatever
    records have used ``loss`` or its inputs since.  Its gradient buffers
    are keyed by ``id(tensor)``, which is sound because the record keeps
    every tensor it references alive during the walk; the buffers live
    only for the walk, so the record and the tensors are left as they were
    and the same record can be walked again for another loss.  A tensor
    the walk never reaches gets zeros of its shape.
    """
    rec = loss._record
    if rec is None:
        raise ValueError("backward: loss was not produced under an active ComputationRecord")
    if loss.values.size != 1:
        raise ValueError(f"backward: loss must be a scalar, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones(loss.shape)}
    for node in reversed(rec.nodes):
        g = grads.get(id(node.output))
        if g is None or not g.any():
            continue
        for t, part in zip(node.inputs, _input_grads(node, g)):
            buf = grads.get(id(t))
            if buf is None:
                # Zeros then add: ``part`` may be a view of ``g``.
                buf = grads[id(t)] = np.zeros(t.values.shape)
            if node.kind == "row_lookup":
                idx = node.ctx["indices"]
                np.add.at(buf, idx[0] if node.ctx["single"] else idx, part)
            else:
                buf += part
    return [grads[id(t)] if id(t) in grads else np.zeros(t.values.shape) for t in wrt]


def grad_check(build_loss, params, epsilon=1e-5, tolerance=1e-4, analytic_scale=1.0):
    """Compare backward() gradients against central finite differences.

    ``build_loss(params)`` must deterministically rebuild the scalar loss
    from the given parameter tensors.  Returns the max relative error
    over every entry of every parameter,
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``, and
    raises :class:`GradientCheckError` when it exceeds ``tolerance``.
    ``analytic_scale`` deliberately corrupts the analytic side so
    negative controls can prove the check is able to fail.
    """
    if epsilon <= 0:
        raise ValueError("grad_check: epsilon must be positive")
    with ComputationRecord():
        loss = build_loss(params)
    base = loss.item()
    analytic = [g * analytic_scale for g in backward(loss, params)]
    with no_recording():
        again = build_loss(params).item()
        if again != base:
            raise ValueError("grad_check: build_loss is not deterministic")
        max_err = 0.0
        for p, ana in zip(params, analytic):
            flat = p.values.reshape(-1)
            aflat = ana.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                hi = build_loss(params).item()
                flat[i] = orig - epsilon
                lo = build_loss(params).item()
                flat[i] = orig
                numeric = (hi - lo) / (2.0 * epsilon)
                a = aflat[i]
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                if err > max_err:
                    max_err = err
    if max_err > tolerance:
        raise GradientCheckError(
            f"gradient check failed: max relative error {max_err:.3e} > {tolerance:.1e}",
            max_err,
        )
    return max_err
