"""Reverse-mode automatic differentiation over dense float64 tensors.

A small tape-based engine: primitives compute eagerly on numpy arrays
and, while a :class:`ComputationRecord` is active, append nodes to it;
recording writes only to the tensor a node creates.  Each primitive is
one function holding its forward computation and its gradient rule, a
closure over the arrays the rule needs, which the recorded node carries.
``backward(loss, wrt)`` walks the record that produced ``loss`` once in
reverse and returns the gradients of the requested tensors as arrays; it
leaves the record and the tensors unchanged.  A vector ``loss`` of k
entries is differentiated in the same single walk (vector reverse mode,
Griewank & Walther 2008, ch. 3): every gradient carries a leading axis of
k channels, one per entry, so each rule below maps a (k, *output)
gradient to (k, *input) contributions.
``gru_sequence`` runs B sequences at once over time-major rows, and
every GRU pass of training and ranking is one of its blocks; the GRU
cell, attention and the output layer also take B rows in place of one
vector, which decoding uses.
``reduce_sum`` is test support: no code here calls it, and the tests
build scalar losses with it.
Desk-scale on purpose: float64 everywhere, five fused primitives (the
GRU update ``gru_cell``, B whole GRU passes ``gru_sequence``, the
max-shifted ``log_softmax``, the decoder's output layer
``linear_log_softmax``, and ``target_log_prob``, a whole sequence's
output layer and target log-probabilities in one node), no sparse
storage, no higher-order derivatives.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "ComputationRecord",
    "backward",
    "no_recording",
    "zeros",
    "add",
    "elementwise_mul",
    "matmul",
    "concat",
    "reshape",
    "row_lookup",
    "gru_cell",
    "gru_sequence",
    "tanh",
    "softmax_lastdim",
    "log_softmax",
    "linear_log_softmax",
    "target_log_prob",
    "square",
    "reduce_sum",
    "scalar_scale",
]


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
    """One primitive application.  ``vjp`` is its gradient rule: given the
    (channels, *output shape) gradient of ``output`` it returns each
    input's contribution, in input order; ``row_lookup``'s contribution is
    an (index, gradient) pair that the walk scatters into the table's
    gradient."""

    __slots__ = ("kind", "inputs", "output", "vjp")

    def __init__(self, kind, inputs, output, vjp):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


_STACK: list["ComputationRecord | None"] = []


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

    def clear(self):
        self.nodes.clear()


def _emit(kind, inputs, values, vjp) -> Tensor:
    """Wrap a primitive's result and, while a record is active, append
    the node that gives it the gradient rule ``vjp``."""
    out = _wrap(values)
    rec = _STACK[-1] if _STACK else None
    if rec is not None:
        out._record = rec
        rec.nodes.append(_Node(kind, inputs, out, vjp))
    return out


def _check_broadcast(kind, a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(
            f"{kind}: incompatible shapes {a.shape} and {b.shape}"
        ) from None


def _unbroadcast(grad, shape):
    """Sum a (channels, *broadcast shape) ``grad`` down to (channels,
    *shape): the inverse of numpy broadcasting, channel axis kept."""
    extra = grad.ndim - 1 - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(1, 1 + extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape[1:], shape), 1)
                 if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(grad.shape[:1] + shape)


def _stable_sigmoid(x):
    e = np.exp(-np.abs(x))  # never overflows; exp(x) where x < 0
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    av, bv = a.values, b.values
    return _emit("add", (a, b), av + bv,
                 lambda g: (_unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)))


def elementwise_mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("elementwise_mul", a, b)
    av, bv = a.values, b.values
    return _emit("elementwise_mul", (a, b), av * bv,
                 lambda g: (_unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix-matrix, vector-matrix or matrix-vector product, or a rank-3
    block times a vector (one matrix-vector product per leading index)."""
    av, bv = a.values, b.values
    if (av.ndim, bv.ndim) not in ((1, 2), (2, 1), (2, 2), (3, 1)):
        raise ValueError("matmul: needs a 2-D operand, or a 3-D one by a vector, "
                         f"got {a.shape} and {b.shape}")
    if av.shape[-1] != bv.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def vjp(g):
        if av.ndim == 1:
            return g @ bv.T, av[:, None] * g[:, None, :]
        if av.ndim == 3:
            return g[..., None] * bv, g.reshape(g.shape[0], -1) @ av.reshape(-1, bv.size)
        if bv.ndim == 1:
            return g[:, :, None] * bv, g @ av
        return g @ bv.T, av.T @ g
    return _emit("matmul", (a, b), av @ bv, vjp)


def concat(parts, axis=0) -> Tensor:
    """Join vectors, or matrices with equal leading shape, end to end along
    the last axis (``axis=0``), or stack equal-shaped scalars or vectors,
    one row per input (``axis="rows"``)."""
    parts = tuple(parts)
    vals = [t.values for t in parts]
    if axis not in (0, "rows"):
        raise ValueError(f"concat: axis must be 0 or 'rows', got {axis!r}")
    if not vals:
        raise ValueError("concat: needs at least one input")
    if axis == "rows":
        if vals[0].ndim > 1 or len({v.shape for v in vals}) != 1:
            raise ValueError("concat: row stacking needs equal-shaped scalars or vectors, "
                             f"got {[v.shape for v in vals]}")
        return _emit("concat", parts, np.stack(vals, axis=0),
                     lambda g: list(g.swapaxes(0, 1)))
    ends = [0]
    lead = vals[0].shape[:-1]
    for v in vals:
        if v.ndim not in (1, 2) or v.shape[:-1] != lead:
            raise ValueError("concat: parts must be vectors or matrices with equal leading "
                             f"shape, got {[v.shape for v in vals]}")
        ends.append(ends[-1] + v.shape[-1])
    return _emit("concat", parts, np.concatenate(vals, axis=-1),
                 lambda g: [g[..., i:j] for i, j in zip(ends, ends[1:])])


def reshape(x: Tensor, shape) -> Tensor:
    """The same values in a new shape, e.g. a (B, n) block as (B, 1, n)."""
    v = x.values
    return _emit("reshape", (x,), v.reshape(shape),
                 lambda g: (g.reshape(g.shape[:1] + v.shape),))


def row_lookup(table: Tensor, indices) -> Tensor:
    """Select rows of ``table``.  An int index returns a single row; a
    sequence returns one row per entry."""
    single = isinstance(indices, (int, np.integer))
    rows = int(indices) if single else [int(i) for i in indices]
    n = table.shape[0]
    for i in [rows] if single else rows:
        if not 0 <= i < n:
            raise IndexError(f"row_lookup: index {i} out of range for table with {n} rows")
    return _emit("row_lookup", (table,), np.array(table.values[rows], dtype=np.float64),
                 lambda g: (((slice(None), rows), g),))


def _gru_gates(mv, p_z, p_r, p_h, h, U_z, U_r, U_h):
    """z, r, r * h and the candidate c of a GRU update from the input
    projections p_z = W_z x, p_r = W_r x, p_h = W_h x and the state ``h``."""
    z = _stable_sigmoid(p_z + mv(U_z, h))
    r = _stable_sigmoid(p_r + mv(U_r, h))
    rh = r * h
    return z, r, rh, np.tanh(p_h + mv(U_h, rh))


def _gru_pre_grads(g, z, r, c, h, U_z, U_r, U_h):
    """Gradients of the three pre-activations and of the previous state
    ``h`` from the gradient ``g`` of the update's result (channels first)."""
    a_h = g * z * (1.0 - c * c)
    a_z = g * (c - h) * z * (1.0 - z)
    g_rh = a_h @ U_h
    a_r = g_rh * h * r * (1.0 - r)
    return a_z, a_r, a_h, g * (1.0 - z) + g_rh * r + a_z @ U_z + a_r @ U_r


def _rows_mv(W, v):
    """``W @ v[b]`` bit for bit for each row b, as one stacked product; a GEMM
    (W @ v.T) rounds differently from W @ v, even between two equal rows."""
    return np.matmul(W, v[:, :, None])[:, :, 0]


def gru_cell(x: Tensor, h: Tensor, W_z: Tensor, U_z: Tensor, W_r: Tensor,
             U_r: Tensor, W_h: Tensor, U_h: Tensor) -> Tensor:
    """One bias-free GRU update (Cho et al. 2014) as a single node:
    z = sigmoid(W_z x + U_z h), r = sigmoid(W_r x + U_r h),
    c = tanh(W_h x + U_h (r * h)), and the result z * c + (1 - z) * h.
    ``x`` and ``h`` may be (B, in) and (B, hidden) blocks of B states;
    each row then equals the vector call on that row bit for bit."""
    inputs = (x, h, W_z, U_z, W_r, U_r, W_h, U_h)
    x, h, W_z, U_z, W_r, U_r, W_h, U_h = [t.values for t in inputs]
    rows = x.ndim == 2
    mv = _rows_mv if rows else np.matmul
    z, r, rh, c = _gru_gates(mv, *(mv(W, x) for W in (W_z, W_r, W_h)), h, U_z, U_r, U_h)

    def vjp(g):
        a_z, a_r, a_h, d_h = _gru_pre_grads(g, z, r, c, h, U_z, U_r, U_h)
        d_x = a_z @ W_z + a_r @ W_r + a_h @ W_h
        if not rows:  # one outer product per weight
            a_z3, a_r3, a_h3 = a_z[:, :, None], a_r[:, :, None], a_h[:, :, None]
            return d_x, d_h, a_z3 * x, a_z3 * h, a_r3 * x, a_r3 * h, a_h3 * x, a_h3 * rh
        # Rows: one product per weight sums over the row axis.
        return d_x, d_h, *(a.swapaxes(1, 2) @ v for a, v in
                           ((a_z, x), (a_z, h), (a_r, x), (a_r, h), (a_h, x), (a_h, rh)))
    return _emit("gru_cell", inputs, z * c + (1.0 - z) * h, vjp)


def gru_sequence(X: Tensor, h0: Tensor, W_z: Tensor, U_z: Tensor, W_r: Tensor,
                 U_r: Tensor, W_h: Tensor, U_h: Tensor) -> Tensor:
    """The states of T ``gru_cell`` updates of B sequences at once, as one
    node.  ``h0`` is one (hidden,) state (B = 1) or a (B, hidden) block;
    ``X`` holds T * B input rows in time-major order, row t * B + b token t
    of sequence b, and so does the (T * B, hidden) result.  Each input
    projection is one stacked product over all rows (Appleyard et al.
    2016), each step advances every sequence with one stacked product per
    weight, and each row equals its sequence's per-token ``gru_cell`` chain
    bit for bit.  A sequence shorter than T is left-aligned and padded: its
    states past its end are computed, and where no caller reads them their
    gradient, and that of their input rows, is exactly zero.  The rule
    runs backpropagation through time (Werbos 1990) over (channels, B,
    hidden) blocks and forms each weight's gradient as one product over
    all T * B rows."""
    inputs = (X, h0, W_z, U_z, W_r, U_r, W_h, U_h)
    X, h0, W_z, U_z, W_r, U_r, W_h, U_h = [t.values for t in inputs]
    B = h0.shape[0] if h0.ndim == 2 else 1
    if X.ndim != 2 or h0.ndim not in (1, 2) or not X.shape[0] or X.shape[0] % B:
        raise ValueError("gru_sequence: needs (T * B >= 1, in) and (h,) or (B, h), "
                         f"got {X.shape}, {h0.shape}")
    T, n_h = X.shape[0] // B, h0.shape[-1]
    px = [_rows_mv(W, X).reshape(T, B, n_h) for W in (W_z, W_r, W_h)]
    H = np.empty((T + 1, B, n_h))  # H[0] is h0, H[t + 1] the states after token t
    Z, R, RH, C = (np.empty((T, B, n_h)) for _ in range(4))
    H[0] = h0
    for t, px_t in enumerate(zip(*px)):
        z, r, rh, c = Z[t], R[t], RH[t], C[t] = _gru_gates(_rows_mv, *px_t, H[t], U_z, U_r, U_h)
        H[t + 1] = z * c + (1.0 - z) * H[t]

    def vjp(g):
        k = g.shape[0]
        g = g.reshape(k, T, B, n_h)
        A = np.empty((3, k, T, B, n_h))  # pre-activation gradients of z, r and c
        d_h = np.zeros((k, B, n_h))
        for t in range(T - 1, -1, -1):
            A[0, :, t], A[1, :, t], A[2, :, t], d_h = _gru_pre_grads(
                g[:, t] + d_h, Z[t], R[t], C[t], H[t], U_z, U_r, U_h)
        A = A.reshape(3, k, T * B, n_h)
        a_z, a_r, a_h = A.swapaxes(2, 3)  # each (channels, hidden, T * B)
        H_prev = H[:-1].reshape(T * B, n_h)
        return (A[0] @ W_z + A[1] @ W_r + A[2] @ W_h, d_h.reshape((k,) + h0.shape),
                a_z @ X, a_z @ H_prev, a_r @ X, a_r @ H_prev, a_h @ X,
                a_h @ RH.reshape(T * B, n_h))
    return _emit("gru_sequence", inputs, H[1:].reshape(T * B, n_h), vjp)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.values)
    return _emit("tanh", (x,), y, lambda g: (g * (1.0 - y * y),))


def softmax_lastdim(x: Tensor) -> Tensor:
    v = x.values
    if v.ndim < 1:
        raise ValueError("softmax_lastdim: needs at least one dimension")
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    return _emit("softmax_lastdim", (x,), y,
                 lambda g: (y * (g - (g * y).sum(axis=-1, keepdims=True)),))


def _log_softmax(v):
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax(x: Tensor) -> Tensor:
    """log(softmax(x)) over the last axis, finite wherever ``x`` is."""
    y = _log_softmax(x.values)
    return _emit("log_softmax", (x,), y,
                 lambda g: (g - np.exp(y) * g.sum(axis=-1, keepdims=True),))


def _output_log_softmax(kind, xv, wv, ranks):
    """log(softmax(X W^T)) over the last axis, for an ``X`` of rank in ``ranks``."""
    if xv.ndim not in ranks or wv.ndim != 2 or xv.shape[-1] != wv.shape[1]:
        raise ValueError(f"{kind}: incompatible shapes {xv.shape} and {wv.shape}")
    return _log_softmax(xv @ wv.T)


def linear_log_softmax(X: Tensor, W: Tensor) -> Tensor:
    """log(softmax(W x)) for a vector ``X``, or for each row x of a (B, n)
    block: the output layer of one decoding step as one node."""
    xv, wv = X.values, W.values
    y = _output_log_softmax("linear_log_softmax", xv, wv, (1, 2))

    def vjp(g):
        G = g - np.exp(y) * g.sum(axis=-1, keepdims=True)
        rows = G.reshape(g.shape[0], -1, wv.shape[0])
        return G @ wv, rows.swapaxes(1, 2) @ xv.reshape(-1, wv.shape[1])
    return _emit("linear_log_softmax", (X, W), y, vjp)


def target_log_prob(X: Tensor, W: Tensor, targets) -> Tensor:
    """Sum over the rows x_t of ``X`` of log(softmax(W x_t))[targets[t]]:
    one product ``X @ W.T``, one max-shifted log-softmax per row and one
    gather, so the gradient of ``W`` is one product rather than one outer
    product per row."""
    xv, wv = X.values, W.values
    y = _output_log_softmax("target_log_prob", xv, wv, (2,))
    cols = np.array([int(t) for t in targets], dtype=np.intp)
    if cols.shape != (xv.shape[0],):
        raise ValueError(f"target_log_prob: {cols.size} targets for {xv.shape[0]} rows")
    n = wv.shape[0]
    bad = cols[(cols < 0) | (cols >= n)]
    if bad.size:
        raise IndexError(f"target_log_prob: target {bad[0]} out of range for {n} classes")
    rows = np.arange(cols.size)

    def vjp(g):
        # G = g * (onehot(targets) - softmax) per channel; then dX = G W and
        # dW = G^T X, one GEMM per channel.
        G = -np.exp(y)
        G[rows, cols] += 1.0
        G = g[:, None, None] * G
        return G @ wv, G.swapaxes(1, 2) @ xv
    # Summed in token order, the order in which decoding accumulates a
    # hypothesis's score, so that the two agree whenever the terms do.
    total = 0.0
    for term in y[rows, cols].tolist():
        total += term
    return _emit("target_log_prob", (X, W), np.asarray(total), vjp)


def square(x: Tensor) -> Tensor:
    v = x.values
    return _emit("square", (x,), v * v, lambda g: (2.0 * v * g,))


def reduce_sum(x: Tensor) -> Tensor:
    expand = (-1,) + (1,) * x.values.ndim
    return _emit("sum", (x,), np.asarray(x.values.sum()), lambda g: (g.reshape(expand),))


def scalar_scale(x: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    return _emit("scalar_scale", (x,), x.values * factor, lambda g: (factor * g,))


def backward(loss: Tensor, wrt) -> list[np.ndarray]:
    """d(loss)/d(t) for each tensor ``t`` in ``wrt``, in order.

    A scalar ``loss`` gives arrays of each tensor's shape.  A vector
    ``loss`` of k entries gives each tensor's (k, *shape) Jacobian, row i
    the gradient of ``loss[i]``: the walk seeds channel i with entry i and
    carries all k channels through every rule at once.

    One reverse walk over the record that produced ``loss``, whatever
    records have used ``loss`` or its inputs since.  Its gradient buffers
    are keyed by ``id(tensor)``, which is sound because the record keeps
    every tensor it references alive during the walk; the buffers live
    only for the walk, so the record and the tensors are left as they were
    and the same record can be walked again.  A tensor the walk never
    reaches gets zeros.
    """
    rec = loss._record
    if rec is None:
        raise ValueError("backward: loss was not produced under an active ComputationRecord")
    scalar = loss.values.size == 1
    if not scalar and loss.values.ndim != 1:
        raise ValueError(f"backward: loss must be a scalar or a vector, got shape {loss.shape}")
    seed = np.ones((1,) + loss.shape) if scalar else np.eye(loss.values.size)
    channels = seed.shape[:1]
    grads: dict[int, np.ndarray] = {id(loss): seed}
    for node in reversed(rec.nodes):
        g = grads.get(id(node.output))
        if g is None:
            continue
        for t, part in zip(node.inputs, node.vjp(g)):
            buf = grads.get(id(t))
            if buf is None:
                # Zeros then add: ``part`` may be a view of ``g``.
                buf = grads[id(t)] = np.zeros(channels + t.values.shape)
            if node.kind == "row_lookup":
                np.add.at(buf, *part)
            else:
                buf += part
    out = [grads[id(t)] if id(t) in grads else np.zeros(channels + t.values.shape) for t in wrt]
    return [g[0] for g in out] if scalar else out
