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
every GRU pass of training and ranking is one of its blocks.  Decoding
runs on plain arrays through the forward helpers the primitives share:
``_gru_run`` (the GRU recurrence), ``_softmax`` and ``_log_softmax``.
A training step's teacher-forced attention and loss layer work on batch
blocks whose rows equal the per-sequence computations bit for bit:
``attention_sequence`` steps the sequences of each answer length
together, ``matmul_rows`` is ``matmul``'s matrix-vector product on each
row of a block, ``log_share`` and ``target_log_prob`` reduce each
segment of their input over its own length, and ``reduce_sum`` folds in
index order.
Desk-scale on purpose: float64 everywhere, five fused primitives (B
whole GRU passes ``gru_sequence``; the attention contexts of B whole
sequences ``attention_sequence``; the max-shifted ``log_softmax``;
``log_share``, the log softmax share of each segment's first entry; and
``target_log_prob``, the output layer and target log-probabilities of B
whole sequences in one node), no sparse storage, no higher-order
derivatives.
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
    "matmul_rows",
    "concat",
    "row_lookup",
    "gru_sequence",
    "tanh",
    "attention_sequence",
    "log_softmax",
    "log_share",
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


def _unbroadcast(g, shape):
    """Sum a (channels, *broadcast shape) gradient ``g`` down to (channels,
    *shape): the inverse of numpy broadcasting, channel axis kept."""
    extra = g.ndim - 1 - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(1, 1 + extra)))
    axes = tuple(i for i, (n, s) in enumerate(zip(g.shape[1:], shape), 1)
                 if s == 1 and n != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(g.shape[:1] + shape)


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
    """Matrix-matrix, vector-matrix or matrix-vector product."""
    av, bv = a.values, b.values
    if (av.ndim, bv.ndim) not in ((1, 2), (2, 1), (2, 2)):
        raise ValueError(f"matmul: needs a 2-D operand, got {a.shape} and {b.shape}")
    if av.shape[-1] != bv.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def vjp(g):
        if av.ndim == 1:
            return g @ bv.T, av[:, None] * g[:, None, :]
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


def row_lookup(table: Tensor, indices, column=None) -> Tensor:
    """Select rows of ``table``.  An int index returns a single row; a
    sequence returns one row per entry.  With a ``column``, each selected
    row's entry in that column of the matrix ``table`` instead."""
    single = isinstance(indices, (int, np.integer))
    rows = int(indices) if single else [int(i) for i in indices]
    n = table.shape[0]
    for i in [rows] if single else rows:
        if not 0 <= i < n:
            raise IndexError(f"row_lookup: index {i} out of range for table with {n} rows")
    index = (rows,) if column is None else (rows, int(column))
    return _emit("row_lookup", (table,), np.array(table.values[index], dtype=np.float64),
                 lambda g: (((slice(None),) + index, g),))


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


def matmul_rows(W: Tensor, X: Tensor) -> Tensor:
    """The (N, m) block whose row n is ``matmul(W, X[n])`` bit for bit, for
    an (m, F) matrix ``W`` and an (N, F) block ``X`` (``_rows_mv``); the
    gradient of ``W`` is one product over all rows."""
    wv, xv = W.values, X.values
    if wv.ndim != 2 or xv.ndim != 2 or wv.shape[1] != xv.shape[1]:
        raise ValueError(f"matmul_rows: incompatible shapes {wv.shape} and {xv.shape}")
    return _emit("matmul_rows", (W, X), _rows_mv(wv, xv),
                 lambda g: (g.swapaxes(1, 2) @ xv, g @ wv))


def _gru_run(X, h0, W_z, U_z, W_r, U_r, W_h, U_h):
    """T bias-free GRU updates (Cho et al. 2014) of B sequences on arrays:
    z = sigmoid(W_z x + U_z h), r = sigmoid(W_r x + U_r h),
    c = tanh(W_h x + U_h (r * h)), and the new state z * c + (1 - z) * h.
    ``h0`` is one (hidden,) state (B = 1) or a (B, hidden) block, and ``X``
    holds T * B input rows in time-major order, row t * B + b token t of
    sequence b.  Each input projection is one stacked product over all
    rows (Appleyard et al. 2016) and each step advances every sequence
    with one stacked product per weight, so each row is computed as the
    vector products on it would be.  Returns the (T + 1, B, hidden) states
    H, H[0] = h0 and H[t + 1] the states after token t, and the
    (T, B, hidden) gates Z and R, products R * H[:-1] and candidates C."""
    B = h0.shape[0] if h0.ndim == 2 else 1
    T, n_h = X.shape[0] // B, h0.shape[-1]
    p_z, p_r, p_h = (_rows_mv(W, X).reshape(T, B, n_h) for W in (W_z, W_r, W_h))
    H = np.empty((T + 1, B, n_h))
    Z, R, RH, C = (np.empty((T, B, n_h)) for _ in range(4))
    H[0] = h0
    for t in range(T):
        h = H[t]
        z = Z[t] = _stable_sigmoid(p_z[t] + _rows_mv(U_z, h))
        r = R[t] = _stable_sigmoid(p_r[t] + _rows_mv(U_r, h))
        rh = RH[t] = r * h
        c = C[t] = np.tanh(p_h[t] + _rows_mv(U_h, rh))
        H[t + 1] = z * c + (1.0 - z) * h
    return H, Z, R, RH, C


def gru_sequence(X: Tensor, h0: Tensor, W_z: Tensor, U_z: Tensor, W_r: Tensor,
                 U_r: Tensor, W_h: Tensor, U_h: Tensor) -> Tensor:
    """B GRU passes at once (``_gru_run``) as one node, whose (T * B, hidden)
    result is time-major as ``X`` is.  Each row equals its sequence's chain
    of T = 1 calls bit for bit.  A sequence shorter than T is left-aligned
    and padded: its states past its end are computed, and where no caller
    reads them their gradient, and that of their input rows, is exactly
    zero.  The rule runs backpropagation through time (Werbos 1990) over
    (channels, B, hidden) blocks and forms each weight's gradient as one
    product over all T * B rows."""
    inputs = (X, h0, W_z, U_z, W_r, U_r, W_h, U_h)
    X, h0, W_z, U_z, W_r, U_r, W_h, U_h = [t.values for t in inputs]
    B = h0.shape[0] if h0.ndim == 2 else 1
    if X.ndim != 2 or h0.ndim not in (1, 2) or not X.shape[0] or X.shape[0] % B:
        raise ValueError("gru_sequence: needs (T * B >= 1, in) and (h,) or (B, h), "
                         f"got {X.shape}, {h0.shape}")
    H, Z, R, RH, C = _gru_run(X, h0, W_z, U_z, W_r, U_r, W_h, U_h)
    T, B, n_h = Z.shape

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


def _softmax(v):
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(v):
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def attention_sequence(S: Tensor, H: Tensor, W_s: Tensor, W_e: Tensor, W_h: Tensor,
                       v: Tensor, state_rows, spans) -> Tensor:
    """Teacher-forced additive attention (Bahdanau et al. 2015) of N
    sequences as one node.  Sequence b reads its decoder states from the
    rows ``state_rows[b]`` of ``S``, in token order, and attends over the
    rows ``spans[b] = (start, end)`` of ``H``; duplicate spans share rows.
    At each token, with s its state and c the previous context (zero at
    the first token), weights alpha = softmax(tanh(H_b W_e + s W_s + c W_h) v)
    give the context alpha H_b.  Returns the (sum of lengths, width of H)
    contexts, sequence-major in token order.

    Sequences are grouped by answer length and stepped together, longest
    question first, so the sequences still live at a token are a prefix of
    their group.  Every product keeps a leading axis of sequences, so each
    is the BLAS call of the one-sequence vector product and each row equals
    it bit for bit; no group is padded, as that would change the terms of
    each sum.  The rule runs backpropagation through the context recurrence
    over (channels, sequences, ...) blocks and forms each weight's gradient
    as one product over all steps."""
    inputs = (S, H, W_s, W_e, W_h, v)
    Sv, Hv, W_s, W_e, W_h, v = [t.values for t in inputs]
    rows = [np.asarray(r, dtype=np.intp) for r in state_rows]
    spans = [(int(a), int(e)) for a, e in spans]
    n_h, n_a = Hv.shape[-1], v.shape[0]
    if (Sv.ndim != 2 or Hv.ndim != 2 or W_s.shape != (Sv.shape[1], n_a) or v.ndim != 1
            or W_e.shape != (n_h, n_a) or W_h.shape != (n_h, n_a)):
        raise ValueError("attention_sequence: incompatible shapes "
                         f"{[t.shape for t in inputs]}")
    if not rows or len(rows) != len(spans):
        raise ValueError(f"attention_sequence: {len(rows)} state row lists for "
                         f"{len(spans)} spans")
    for r, (a, e) in zip(rows, spans):
        if not r.size or r.min() < 0 or r.max() >= Sv.shape[0] or not 0 <= a < e <= Hv.shape[0]:
            raise IndexError(f"attention_sequence: state rows or span ({a}, {e}) out of "
                             f"range for {Sv.shape[0]} states and {Hv.shape[0]} answer rows")
    lengths = np.array([r.size for r in rows])
    starts = np.cumsum(lengths) - lengths
    out = np.empty((int(lengths.sum()), n_h))
    groups: dict[int, list[int]] = {}
    for b, (a, e) in enumerate(spans):
        groups.setdefault(e - a, []).append(b)
    # U holds every step's tanh rows, each group's steps one after another.
    U = np.empty((int(sum(lengths[g].sum() * L for L, g in groups.items())), n_a))
    plan, offset = [], 0
    for L, members in groups.items():
        order = sorted(members, key=lambda b: -lengths[b])
        T, n = lengths[order[0]], len(order)
        H_rows = np.array([spans[b][0] for b in order])[:, None] + np.arange(L)
        Hg = Hv[H_rows]
        keys = np.matmul(Hg, W_e)
        live = (lengths[order][None, :] > np.arange(T)[:, None]).sum(axis=1)
        s_at, o_at = np.zeros((2, n, T), dtype=np.intp)  # state and output rows
        for i, b in enumerate(order):
            s_at[i, :lengths[b]] = rows[b]
            o_at[i, :lengths[b]] = np.arange(starts[b], starts[b] + lengths[b])
        steps = []
        context = np.zeros((n, n_h))
        for t in range(T):
            m = live[t]
            proj = (keys[:m] + np.matmul(Sv[s_at[:m, t]][:, None, :], W_s)
                    + np.matmul(context[:m, None, :], W_h))
            u = np.tanh(proj, out=U[offset:offset + m * L].reshape(m, L, n_a))
            alpha = _softmax(np.matmul(u, v))
            context = np.matmul(alpha[:, None, :], Hg[:m])[:, 0]
            out[o_at[:m, t]] = context
            steps.append((m, o_at[:m, t], offset, alpha, u))
            offset += m * L
        plan.append((H_rows.reshape(-1), Hg, steps))

    def vjp(g):
        k = g.shape[0]
        all_rows = np.concatenate(rows)
        history = np.zeros_like(out)  # each row's previous context
        history[1:] = out[:-1]
        history[starts] = 0.0
        dS, dH = np.zeros((k,) + Sv.shape), np.zeros((k,) + Hv.shape)
        dA = np.empty((k, out.shape[0], n_a))  # of each row's s W_s and c W_h
        d_scores = np.empty((k, U.shape[0]))
        d_We = np.zeros((k, n_h, n_a))
        for H_rows, Hg, steps in plan:
            n, L = Hg.shape[:2]
            d_keys, dHg = np.zeros((k, n, L, n_a)), np.zeros((k, n, L, n_h))
            d_ctx_next = np.zeros((k, n, n_h))
            for m, o_at, offset, alpha, u in reversed(steps):
                d_ctx = g[:, o_at] + d_ctx_next[:, :m]
                dHg[:, :m] += alpha[:, :, None] * d_ctx[:, :, None, :]
                d_alpha = np.matmul(Hg[:m], d_ctx[..., None])[..., 0]
                d_sc = alpha * (d_alpha - (d_alpha * alpha).sum(axis=-1, keepdims=True))
                d_scores[:, offset:offset + m * L] = d_sc.reshape(k, -1)
                d_proj = d_sc[..., None] * v * (1.0 - u * u)
                d_keys[:, :m] += d_proj
                d_a = dA[:, o_at] = d_proj.sum(axis=2)
                d_ctx_next[:, :m] = d_a @ W_h.T
            d_We += Hg.reshape(-1, n_h).T @ d_keys.reshape(k, -1, n_a)
            dHg += d_keys @ W_e.T
            np.add.at(dH, (slice(None), H_rows), dHg.reshape(k, -1, n_h))
        np.add.at(dS, (slice(None), all_rows), dA @ W_s.T)
        return (dS, dH, Sv[all_rows].T @ dA, d_We, history.T @ dA, d_scores @ U)
    return _emit("attention_sequence", inputs, out, vjp)


def _segments(lengths, total, kind):
    """Start and end of each consecutive segment of the given lengths, which
    must cover ``total`` entries; one segment of all of them for None."""
    ends = np.cumsum([total] if lengths is None else lengths)
    if ends.size == 0 or ends[-1] != total or np.any(np.diff(ends, prepend=0) < 1):
        raise ValueError(f"{kind}: segment lengths {lengths} do not cover {total} entries")
    return np.concatenate([[0], ends[:-1]]), ends


def _fold(values):
    """Sum in index order, ``((v0 + v1) + v2) + ...``: the order of a
    running total, which numpy's pairwise ``sum`` departs from at 8 terms."""
    return np.add.accumulate(values)[-1]


def log_softmax(x: Tensor) -> Tensor:
    """log(softmax(x)) over the last axis, finite wherever ``x`` is."""
    y = _log_softmax(x.values)
    return _emit("log_softmax", (x,), y,
                 lambda g: (g - np.exp(y) * g.sum(axis=-1, keepdims=True),))


def log_share(x: Tensor, lengths=None) -> Tensor:
    """log(softmax(s))[0], the log of the first entry's softmax share, for
    each consecutive segment s of the vector ``x`` with the given
    ``lengths``: a vector with one entry per segment, each computed over
    its own segment alone, so that it equals ``log_softmax`` of that
    segment bit for bit (padding the segments to one length would change
    numpy's pairwise sum from 8 terms on).  Without ``lengths``, the share
    of the whole vector as a scalar."""
    v = x.values
    if v.ndim != 1:
        raise ValueError(f"log_share: needs a vector, got shape {v.shape}")
    starts, ends = _segments(lengths, v.size, "log_share")
    y = np.concatenate([_log_softmax(v[s:e]) for s, e in zip(starts, ends)])
    hot = np.zeros(v.size)
    hot[starts] = 1.0
    sizes = ends - starts

    def vjp(g):
        g = g.reshape(g.shape[0], sizes.size)
        return (np.repeat(g, sizes, axis=1) * (hot - np.exp(y)),)
    out = y[starts]
    return _emit("log_share", (x,), out if lengths is not None else out[0], vjp)


def target_log_prob(X: Tensor, W: Tensor, targets, lengths=None) -> Tensor:
    """Sum over the rows x_t of ``X`` of log(softmax(W x_t))[targets[t]],
    for each consecutive segment of rows with the given ``lengths``: a
    vector with one sum per segment, or without ``lengths`` the sum over
    all rows as a scalar.  Each segment's logits are one product of its
    rows with ``W.T`` (a product over all rows rounds differently), then
    one max-shifted log-softmax per row and one gather; the gradients of
    ``X`` and of ``W`` are one product each over all rows."""
    xv, wv = X.values, W.values
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[1]:
        raise ValueError(f"target_log_prob: incompatible shapes {xv.shape} and {wv.shape}")
    starts, ends = _segments(lengths, xv.shape[0], "target_log_prob")
    y = np.concatenate([_log_softmax(xv[s:e] @ wv.T) for s, e in zip(starts, ends)])
    cols = np.array([int(t) for t in targets], dtype=np.intp)
    if cols.shape != (xv.shape[0],):
        raise ValueError(f"target_log_prob: {cols.size} targets for {xv.shape[0]} rows")
    n = wv.shape[0]
    bad = cols[(cols < 0) | (cols >= n)]
    if bad.size:
        raise IndexError(f"target_log_prob: target {bad[0]} out of range for {n} classes")
    rows = np.arange(cols.size)
    sizes = ends - starts

    def vjp(g):
        # G = g * (onehot(targets) - softmax), each row scaled by its
        # segment's channel gradients; then dX = G W and dW = G^T X.
        G = -np.exp(y)
        G[rows, cols] += 1.0
        G = np.repeat(g.reshape(g.shape[0], sizes.size), sizes, axis=1)[:, :, None] * G
        return G @ wv, G.swapaxes(1, 2) @ xv
    # Summed in token order, the order in which decoding accumulates a
    # hypothesis's score, so that the two agree whenever the terms do.
    picked = y[rows, cols]
    totals = np.array([_fold(picked[s:e]) for s, e in zip(starts, ends)])
    return _emit("target_log_prob", (X, W), totals if lengths is not None else totals[0], vjp)


def square(x: Tensor) -> Tensor:
    v = x.values
    return _emit("square", (x,), v * v, lambda g: (2.0 * v * g,))


def reduce_sum(x: Tensor) -> Tensor:
    """The sum of every entry in index order (``_fold``), so that a batch's
    vector of terms sums as a running total of one node per term would."""
    expand = (-1,) + (1,) * x.values.ndim
    return _emit("sum", (x,), np.asarray(_fold(x.values.reshape(-1))),
                 lambda g: (g.reshape(expand),))


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
