"""Dense/recurrent network kernel with explicit forward and backward passes.

Two wirings over shared building blocks:

  single — token sequence -> embedding -> bidirectional LSTM -> final-state
      concat, joined with the dense-projected engineered features, then a
      dense stack with dropout and a softmax head;
  multi — r token sequences encoded with shared weights, aggregated over the
      non-padded slots (mean/sum/concatenation/weighted_sum), then the same
      tail as single.

A single batch holds ids (B, T), lengths (B,) and feats (B, F).  A multi
batch holds each distinct slot text once: ids (U, T) and lengths (U,), one row
per distinct text. A sample's real slots are the first counts[i] of its r
(counts (B,)), and occ (S,) gives each real slot its row, sample by sample in
slot order.  An encoded text does not depend on its slot, so inference and
training encode each row once and gather the result into every slot that
holds it; backward adds those slots' gradients into the row.

The bidirectional LSTM steps both directions together in one time loop, as
cuDNN's fused RNNs do (Appleyard et al. 2016): the forward ids and the
length-reversed ids are embedded into one (2, N, T, E) array, and the model
holds each of Wx, Wh and b as one array stacked on axis 0, fw then bw, so a
step is one batched matmul, one sigmoid over the (2, n, 4H) gate slab and one
tanh over its g block. Like a fused RNN's weights, the stacks persist: they
are built where parameters are made (init_params, load_bundle, train_model's
copy of the best ones), never per forward. The named parameters stay one set
per direction (lstm_fw_*, lstm_bw_*), each a view of its half of the stack
(stack_lstm), so an in-place update of either, such as Adam's, is one of the
stack, and a saved bundle is as it was. Backward's LSTM gradients come out
in the same layout.

Nothing in the network is masked: padding is stated once, by each row's length
and by each sample's count of real slots. As in cuDNN's variable-length RNNs,
each row's final state is read at its own length, and it is all the encoder
uses; backward lets a row's gradient in at that same step. So the encoder
embeds the padded positions as they are, and no step reads them for a row
inside its length. The slot head of mean, sum and weighted_sum adds each
sample's real slots only, in slot order, the bits of a sum over a (B, R, 2H)
array with zero padded slots, which only concatenation's head, whose text it
is, and weighted_sum's backward build; backward takes each real slot's
gradient straight out of the text gradient, by its (b, r) index.

A forward is one of three kinds (_layout). A packed one computes at each
step only the n rows still inside their length, in row order. The set of
rows changes only where a row ends, so one index array serves every step
between two lengths. It holds nothing of its padding: it embeds only the P
positions inside a length, multiplies x @ Wx + b for them only, keeps the
hidden and cell state of the current span's rows only, handing them to the
next span with one gather. So its memory grows with P, as cuDNN's
variable-length RNNs do, not with N x T. A step in which every row is inside
its length, as every step of a one-row batch is, runs on the whole batch
with no index at all.

  packed training — every train_mode forward. It records the hidden state
      before each step into a packed (2, P, H) array, beside the inputs and
      each step's activations, and backward reads that one cache format.
  packed inference — a forward without history of more than INFER_BLOCK
      positions, padded or not, such as validation's longest chunk and a
      predict_many group forward. It takes x @ Wx + b a block of whole
      steps at a time, INFER_BLOCK stepped positions at most, inside the one
      step loop, so its working set is one block and its steps' own rows.
  unpacked inference — any other forward without history whose padding is
      small against its number of distinct lengths (PACK_SPAN_COST), such as
      the per-vote forwards of one column. It is one block: it embeds all
      N x T positions, writes the hidden state after each step into the gate
      array and reads each row's final state there at its own length; a row
      past its length keeps stepping on its padded input, which costs fewer
      numpy calls than the indexing would, and nothing reads what it
      computes.

All three share one step body, written inline: a helper function called per
step costs about 3 us per step at one row.

A lone row is stepped as two equal rows where the batch has more: numpy
sends a one-row matmul to gemv, which rounds differently from the many-row
kernel. Inside its length a row's arithmetic is that of a masked loop, whose
blend m * x + (1 - m) * y returns x exactly where m = 1. A row's product with
Wx does not depend on how many rows or steps share its matmul, as long as
there are two (one goes to gemv). So every kind of forward is bit-identical
to one masked loop per direction over every row (tests/lstm_oracle.py, also
at the bench's widths).

An inference forward keeps no step history: it drops the inputs once their
product with Wx is taken, and each step's cell state and activations once
the next step has read them. Backward on its cache, which only gradient
checks call, recomputes the history from the cache's ids and lengths in a
packed training forward, as recompute-for-backward does (Chen et al. 2016,
"Training Deep Nets with Sublinear Memory Cost"): the forward is
deterministic, so its gradients are those of a training cache, bit for bit.

Backward keeps only the recurrence in its time loop, as the forward keeps
x @ Wx + b out of it (Appleyard et al. 2016). A step computes the gate
gradients dA and dh = dA @ Wh^T for the rows the forward stepped, and packs
its dA rows into one slab over every stepped position. dX and db are then
one product and one sum over that slab, the weight gradients products summed
GRAD_BLOCK positions at a time, and the embedding gradient one np.bincount.
Per-step products over a few rows cost more in call overhead than in
arithmetic: a step holds 5-6 of 32 rows on average in a bench single epoch.
A step's dA is the one a masked loop computes, but the products after the
loop add in another order, so training gradients match the oracle within
1e-12 of their largest entry, not bit for bit.

Everything is float64 and deterministic for a fixed rng; gradients are checked
against finite differences in the test suite.
"""

from __future__ import annotations

import bisect

import numpy as np

from .core import TrainingConfig
from .errors import ConfigError, DiagnosticError
from .features import FEATURE_NAMES


def text_dim(config: TrainingConfig) -> int:
    """Width of the encoded text that joins the feature projection."""
    per_slot = 2 * config.hidden_size
    if config.mode == "multi" and config.aggregation == "concatenation":
        return config.r * per_slot
    return per_slot


def param_shapes(config: TrainingConfig, vocab_size: int, n_classes: int) -> dict:
    """Name -> shape of every parameter, in initialization order."""
    E, H, D = config.embedding_dim, config.hidden_size, config.feature_dim
    shapes = {
        "embedding": (vocab_size, E),
        "feat_W": (len(FEATURE_NAMES), D),
        "feat_b": (D,),
    }
    for d in ("fw", "bw"):
        shapes.update({f"lstm_{d}_Wx": (E, 4 * H), f"lstm_{d}_Wh": (H, 4 * H),
                       f"lstm_{d}_b": (4 * H,)})
    if config.mode == "multi" and config.aggregation == "weighted_sum":
        shapes["agg_w"] = (config.r,)
    prev = text_dim(config) + D
    for i, width in enumerate(config.dense_widths):
        shapes[f"dense_{i}_W"] = (prev, width)
        shapes[f"dense_{i}_b"] = (width,)
        prev = width
    shapes["out_W"] = (prev, n_classes)
    shapes["out_b"] = (n_classes,)
    return shapes


def init_params(config: TrainingConfig, vocab_size: int, n_classes: int, rng) -> dict:
    """Xavier-uniform weight matrices, zero biases; LSTM forget-gate bias starts
    at 1 and slot weights at 1/r. ConfigError for a shape numpy cannot allocate."""
    params = {}
    for name, shape in param_shapes(config, vocab_size, n_classes).items():
        try:
            if len(shape) == 2:
                fan_in, fan_out = shape
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                params[name] = rng.uniform(-limit, limit, size=shape)
            elif name == "agg_w":
                params[name] = np.full(shape, 1.0 / config.r)
            else:
                params[name] = np.zeros(shape)
        except (ValueError, OverflowError, MemoryError) as exc:
            raise ConfigError(f"cannot allocate parameter {name} of shape {shape}: "
                              f"{exc}") from None
        if name.startswith("lstm_") and name.endswith("_b"):
            H = config.hidden_size
            params[name][H : 2 * H] = 1.0
    stack_lstm(params)
    return params


def zeros_like_params(params: dict) -> dict:
    return {k: np.zeros_like(v) for k, v in params.items()}


LSTM_WEIGHTS = ("Wx", "Wh", "b")


def stack_lstm(params: dict) -> tuple:
    """The LSTM weights of params as the model holds them: one array for each
    of Wx, Wh and b, stacked on axis 0, fw then bw. lstm_fw_* and lstm_bw_*
    become views of the halves, so an in-place update of either is one of
    the stack. A weight whose two entries are already the halves of one
    array keeps it, so a view taken of an entry still reaches the stack;
    any other is stacked anew, and its entries rebound."""
    stacks = []
    for k in LSTM_WEIGHTS:
        fw, bw = params[f"lstm_fw_{k}"], params[f"lstm_bw_{k}"]
        W = fw.base
        if not (W is not None and bw.base is W and W.shape == (2, *fw.shape)):
            W = np.stack([fw, bw])
            params[f"lstm_fw_{k}"], params[f"lstm_bw_{k}"] = W
        stacks.append(W)
    return tuple(stacks)


# Packing costs a fixed set of numpy calls per span, about what stepping this
# many padded positions costs, so a batch is packed only where its padding
# outweighs that. Packing every padded batch made multi's per-vote forwards,
# about 6 rows of 2 steps, up to 20% slower.
PACK_SPAN_COST = 12


# Backward sums the weight gradients over this many stepped positions at a
# time. One product over every position is not thread-invariant: OpenBLAS
# 0.3.31 (Haswell kernels) rounds (32 x K) @ (K x 192) differently under 1 and
# 2 threads for K of 385, 450, 513 or 600, and alike for every K up to 129,
# also at 48 x 192 and 32 x 128.
GRAD_BLOCK = 128

# An inference forward of more than this many positions (one row at one
# step) is packed, and takes x @ Wx + b this many stepped positions at a
# time, a block of whole steps, so its gate array does not grow with the
# batch: validation's longest chunk and a predict_many group forward hold
# one block's. In a sweep on the bench (ROADMAP) a validation pass peaked at
# 2.8 MB (tracemalloc) here against 11.1 MB unblocked, and took the same
# time at 128 to 1024 positions. 512 leaves room over the bench's largest
# per-vote forward, 168 positions, which so runs in one block as it did
# before blocks.
INFER_BLOCK = 512


def _stepped_positions(lengths, T):
    """The (row, t) positions inside a length, time-major, rows in row order
    at each step, as a packed forward steps them. Returns (rows, t,
    offsets): step t's positions start at offsets[t]."""
    stepped = np.arange(T)[:, None] < lengths
    t, rows = np.nonzero(stepped)
    offsets = np.zeros(T + 1, dtype=np.int64)
    np.cumsum(stepped.sum(axis=1), out=offsets[1:])
    return rows, t, offsets.tolist()


def _stepped(rows):
    """The rows a packed step computes. numpy sends a one-row matmul to gemv,
    which rounds differently from the many-row kernel: a lone row is stepped
    as two equal rows."""
    return rows if rows.size > 1 else rows.repeat(2)


def _layout(lengths, T, history):
    """(packed, spans) of a forward over rows of these lengths, padded to T.

    spans cut the T steps where the set of rows inside their length changes:
    (start, stop, rows) in time order, rows None while every row is inside
    its length, else the indices, in row order, of the rows whose length
    reaches stop (empty once every row has ended). One index array serves all
    the steps of a span. An unpacked forward is one span of every row,
    [(0, T, None)].

    Three kinds of forward: a training one (history) is packed, so backward
    reads one cache format; an inference one of more than INFER_BLOCK
    positions is packed, so that only a packed forward is cut into blocks
    (_step_blocks); any other inference forward, a per-vote one among them, is
    packed only where its padding outweighs PACK_SPAN_COST per span. The
    padding is checked first, as a packed batch has two spans at least, so a
    forward of little padding never counts its lengths. A packed forward
    without padding is one span of every row, stepped with no index.
    """
    padding = len(lengths) * T - lengths.sum()
    forced = history or len(lengths) * T > INFER_BLOCK
    if not forced and (padding == 0 or padding < 2 * PACK_SPAN_COST):
        return False, [(0, T, None)]
    stops = sorted(set(lengths.tolist()) | {T})
    if not forced and padding < PACK_SPAN_COST * len(stops):
        return False, [(0, T, None)]
    spans, start = [], 0
    for stop in stops:
        if stop > start:
            live = lengths > start
            spans.append((start, stop, None if live.all() else np.flatnonzero(live)))
            start = stop
    return True, spans


def _packed_gates(embedding, ids, ids_p, positions, Wx, b, t0, t1, out=None):
    """The inputs of a packed batch's stepped positions of steps t0..t1,
    X_p (2, p, E), and their part of the gates, x @ Wx + b, hoisted out of
    the time loop: gates[t] is (2, n, 4H) for the n rows step t computes.
    The gates go into out (2, >= p, 4H) if given.

    Where the packed product, or a per-row one (T == 1), has one row it goes
    to gemv, which rounds differently: then each stepped row's product is
    taken at full width, as a loop per row does, and its positions picked
    after."""
    rows, t, offsets = positions
    T = ids.shape[2]
    lo, hi = offsets[t0], offsets[t1]
    X_p = embedding[ids_p[:, lo:hi]]
    if T > 1 and hi - lo > 1:
        gates = np.matmul(X_p, Wx, out=None if out is None else out[:, : hi - lo])
    else:
        per_row = np.matmul(embedding[ids[:, rows[lo:hi]]], Wx[:, None])
        gates = per_row[:, np.arange(hi - lo), t[lo:hi]]
    gates += b[:, None]
    return X_p, [None] * t0 + [gates[:, offsets[s] - lo : offsets[s + 1] - lo]
                               for s in range(t0, t1)]


def _step_blocks(offsets):
    """Cut the steps of a packed inference forward into blocks of whole steps.

    offsets[t] is the number of stepped positions before step t
    (_stepped_positions). A block holds at most INFER_BLOCK positions, but
    one step at least. Returns the steps at which the blocks start, then T.
    """
    T = len(offsets) - 1
    starts = [0]
    while True:
        t = max(starts[-1] + 1,
                bisect.bisect_right(offsets, offsets[starts[-1]] + INFER_BLOCK) - 1)
        if t >= T:
            return starts + [T]
        starts.append(t)


def _lstm_forward(embedding, ids, lengths, Wx, Wh, b, history=True):
    """Both directions of an LSTM over rows of their own lengths, stepped
    together in one time loop.

    ids is (2, N, T) with the direction on axis 0, embedded through embedding
    (V, E); Wx (2, E, 4H), Wh (2, H, 4H) and b (2, 4H) stack each direction's
    weights the same way. lengths (N,) serves both, since reversal keeps
    padding in place: a row's tokens are its first lengths[n] positions. A
    row's final state, h_final (2, N, H), is read at its own length, so a row
    of length 0 keeps the zero state.

    One step body serves three kinds of forward (_layout): packed training,
    packed inference and unpacked inference. A packed forward holds its
    stepped positions only, time-major, rows in row order
    (_stepped_positions, kept in the cache as positions): it embeds their ids
    as X_p (2, P, E) and keeps h and c for the span's rows only, handing them
    to the next span with one gather of the rows that go on and writing them
    into h_final at the span's end. So its memory grows with P, not with
    N x T. An unpacked forward embeds all N x T positions, computes each
    step's activations in place in gates[t] and writes the hidden state after
    step t over its input-gate activation, which nothing reads by then: Hs
    (T + 1, 2, N, H) lives in the gate array, one step longer, and each row's
    final state is read there at its own length. A row past its length keeps
    stepping on its padded input, and nothing reads what it computes.

    With history, as training needs, the cache holds what backward reads:
    X_p, the hidden state before each step, H_p (2, P, H), and steps[t],
    for the rows step t computed, its gate activations (2, n, 4H) in i, f, g,
    o order, the cell state before it and tanh of the cell state after it.
    Without history, as inference runs, the inputs are dropped once
    x @ Wx + b is taken, and a step's cell state and activations once the
    next step has read them. The cache holds ids, lengths and h_final, from
    which Model._encode_backward recomputes the history.

    A packed inference forward of more than INFER_BLOCK stepped positions is
    cut into blocks: it takes x @ Wx + b a block of whole steps at a time
    (_step_blocks), as the loop reaches the block, a contiguous range of its
    time-major positions, whose gates overwrite the last block's in one
    array. Any other forward is one block.
    """
    _, N, T = ids.shape
    H = Wh.shape[1]
    packed, spans = _layout(lengths, T, history)
    cache = {"ids": ids, "lengths": lengths, "spans": spans}
    blocks = [0, T]
    if packed:
        positions = rows_p, t_p, offsets = _stepped_positions(lengths, T)
        ids_p = ids[:, rows_p, t_p]
        cache["positions"] = positions
        out = None
        if not history and len(t_p) > INFER_BLOCK:
            blocks = _step_blocks(offsets)
        if len(blocks) > 2:
            # One gate array serves every block: a fresh one per block can
            # cost its page faults anew, which made a 32 x 96 forward up to
            # 20% slower than the same product into a reused array.
            width = max(offsets[j] - offsets[i] for i, j in zip(blocks, blocks[1:]))
            out = np.empty((2, width, 4 * H))
        X, gates = _packed_gates(embedding, ids, ids_p, positions, Wx, b, 0, blocks[1], out)
        h_final = np.zeros((2, N, H))
        if history:
            H_p = np.empty((2, len(t_p), H))
            cache.update(ids_p=ids_p, X_p=X, H_p=H_p)
    else:
        slab = np.empty((T + 1, 2, N, 4 * H))
        gates = slab[1:]
        X = embedding[ids]  # padded positions too; nothing reads them
        np.matmul(X, Wx[:, None], out=gates.transpose(1, 2, 0, 3))
        gates += b[:, None]
        # The hidden state after step t overwrites that step's input gate
        # activation, which nothing reads once the cell state is taken:
        # Hs[t + 1] is gates[t][..., :H], and Hs[0] the zero state in the
        # slab's first slot. It costs no allocation, and a separate Hs
        # would be the largest array of a long batch after the gates.
        Hs = slab[..., :H]
        Hs[0] = 0.0
        h = c = Hs[0]
    del X
    k = 1  # the next block starts at blocks[k]
    steps = {}
    prev = None  # the rows whose state h and c hold, None for every row
    for start, stop, rows in spans:
        n = N if rows is None else rows.size
        if n == 0:
            break
        if packed:
            # A packed span works on its own rows in fresh arrays: a strided
            # slab is slower to work in than to read once. Rows only leave.
            if start == 0:
                h = c = np.zeros((2, N if rows is None else _stepped(rows).size, H))
            else:
                keep = _stepped(rows if prev is None else np.searchsorted(prev, rows))
                h, c = h[:, keep], c[:, keep]
        for t in range(start, stop):
            if t == blocks[k]:  # the next block of a packed inference forward
                gates = None  # the last block's step views go before the next's are made
                gates = _packed_gates(embedding, ids, ids_p, positions, Wx, b, t,
                                      blocks[k + 1], out)[1]
                k += 1
            if history:
                H_p[:, offsets[t] : offsets[t] + n] = h[:, :n]  # a lone row once
            a = np.matmul(h, Wh)
            a += gates[t]  # a lone row's (2, 1, 4H) slab broadcasts over its copies
            # one sigmoid over the whole slab, then tanh over g
            s = np.negative(a, out=None if packed else gates[t])
            np.exp(s, out=s)
            s += 1.0
            np.divide(1.0, s, out=s)
            i, f, g, o = s[..., :H], s[..., H : 2 * H], s[..., 2 * H : 3 * H], s[..., 3 * H :]
            np.tanh(a[..., 2 * H : 3 * H], out=g)
            c_new = f * c
            c_new += i * g
            tanh_c = np.tanh(c_new)
            if history:
                steps[t] = (s, c, tanh_c)
            h = np.multiply(tanh_c, o, out=None if packed else Hs[t + 1])
            c = c_new
        if packed:  # a row's last write is its final state
            h_final[:, slice(None) if rows is None else rows] = h[:, :n]
        prev = rows
    if not packed:
        h_final = Hs[lengths, :, np.arange(N)].swapaxes(0, 1)
    if history:
        cache["steps"] = steps
    cache["h_final"] = h_final
    return cache


def _lstm_backward(cache, dh_final, Wx, Wh):
    """Backprop through both directions in one reversed loop; dh_final is (2, N, H).

    The cache is a training forward's (_lstm_forward with history), which is
    always packed: it holds positions, X_p and H_p. Only the recurrence stays
    in the loop (Appleyard et al. 2016). A step computes dc, the gate
    gradients dA and dh = dA @ Wh^T for the rows the forward stepped, and
    writes its rows of dA, a lone row once, into one packed (2, P, 4H) slab,
    in the order of X_p and H_p. A row's gradient enters at its last step,
    and a packed span's rows join only at its last step, so dh and dc are
    set, gathered and scattered at span boundaries only.

    After the loop, dX = dA @ Wx^T is one product over the P rows, which
    OpenBLAS splits among its threads by rows, so its bits do not depend on
    the thread count, and db is one sum. dWx = X_p^T dA and dWh = H_p^T dA
    are summed GRAD_BLOCK positions at a time, the blocks added in order.

    A row's dA inside its length is the one a masked loop computes; the
    products that follow it have other shapes and sum in another order. So
    gradients match one masked loop per direction within 1e-12 of their
    largest entry (about 1e-15 at the bench's widths), not bit for bit.

    A step writes the gradients of the four gate outputs into one (2, n, 4H)
    slab, dS, takes the sigmoid derivative over the whole slab as
    (dS * s) * (1 - s), the order of a per-gate d * i * (1 - i), and then
    overwrites the g block with dg * (1 - g**2).

    Returns dX (2, P, E), the gradient of the embedded inputs at the stepped
    positions, their ids (2, P), and dWx, dWh and db."""
    lengths, steps, spans = cache["lengths"], cache["steps"], cache["spans"]
    offsets = cache["positions"][2]
    N = len(lengths)
    H = Wh.shape[1]
    WhT = Wh.transpose(0, 2, 1)
    dA_p = np.empty((2, offsets[-1], 4 * H))
    # the steps at which rows' gradients enter, and those rows
    ending = {L - 1: np.flatnonzero(lengths == L) for L in set(lengths.tolist()) - {0}}
    # Going back in time rows only join, each at its span's last step: a row's
    # dh is set as it joins, and its cell gradient is zero until then.
    dh = np.zeros((2, N, H))
    dc = np.zeros((2, N, H))
    for start, stop, rows in reversed(spans):
        if rows is None:
            n, at = N, slice(None)
        elif rows.size == 0:
            continue
        else:
            n, at = rows.size, _stepped(rows)
        if stop - 1 in ending:
            dh[:, ending[stop - 1]] = dh_final[:, ending[stop - 1]]
        dh_s, dc_s = dh[:, at], dc[:, at]
        dS = np.empty_like(steps[stop - 1][0])
        dA = np.empty_like(dS)
        for t in range(stop - 1, start - 1, -1):
            s, c_prev, tanh_c = steps[t]
            i, f, g, o = s[..., :H], s[..., H : 2 * H], s[..., 2 * H : 3 * H], s[..., 3 * H :]
            dc_new = dc_s + dh_s * o * (1.0 - tanh_c**2)
            dg = dS[..., 2 * H : 3 * H]
            np.multiply(dc_new, g, out=dS[..., :H])
            np.multiply(dc_new, c_prev, out=dS[..., H : 2 * H])
            np.multiply(dc_new, i, out=dg)
            np.multiply(dh_s, tanh_c, out=dS[..., 3 * H :])
            dc_s = dc_new * f
            np.multiply(dS, s, out=dA)
            dA *= 1 - s
            dA[..., 2 * H : 3 * H] = dg * (1 - g**2)
            dA_p[:, offsets[t] : offsets[t] + n] = dA[:, :n]  # a lone row is written once
            dh_s = np.matmul(dA, WhT)
        dh[:, at] = dh_s
        dc[:, at] = dc_s
    dX = np.matmul(dA_p, Wx.transpose(0, 2, 1))
    db = dA_p.sum(axis=1)
    X_p, H_p = cache["X_p"], cache["H_p"]
    dWx = np.zeros_like(Wx)
    dWh = np.zeros_like(Wh)
    for k in range(0, offsets[-1], GRAD_BLOCK):
        block = slice(k, k + GRAD_BLOCK)
        dWx += np.matmul(X_p[:, block].transpose(0, 2, 1), dA_p[:, block])
        dWh += np.matmul(H_p[:, block].transpose(0, 2, 1), dA_p[:, block])
    return dX, cache["ids_p"], dWx, dWh, db


def _add_rows(index, values, n):
    """The (n, w) sums of the rows of values (..., w) by their index (...):
    np.add.at into zeros, as one np.bincount, which adds in the same order
    and is 2-4x faster."""
    w = values.shape[-1]
    flat = (index[..., None] * w + np.arange(w)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n * w).reshape(n, w)


def _sum_slots(enc_rows, b, occ, counts, weights=None):
    """The (B, w) sum of each sample's real slot encodings enc_rows[occ],
    times weights (one per real slot) if given: b, occ and weights are in
    (b, r) order, and counts holds the real slots of each sample.

    A sample's slots add in r order, as a sum over a (B, R, w) array with
    zero padded slots adds them, so the bits are that sum's; no such array is
    built. Where every sample holds as many slots (a forward of one column's
    samples) that is one reshape and sum. Where most counts have one or two
    samples (training and validation batches, one sample per column) it is
    one np.bincount over every slot (_add_rows), whose cost does not grow
    with the counts. Otherwise (a predict_many group, k samples per column)
    the samples of each count are summed in one reshape, gathering only
    their slots: a few numpy calls per count, about half the bincount's time
    and a small part of its memory on a 320-sample group."""

    def slot_encodings(at):
        enc = enc_rows[occ[at]]
        if weights is not None:
            enc *= weights[at, None]
        return enc

    distinct = set(counts.tolist())
    if len(distinct) == 1:
        return slot_encodings(slice(None)).reshape(len(counts), distinct.pop(), -1).sum(axis=1)
    if 2 * len(distinct) > len(counts):
        return _add_rows(b, slot_encodings(slice(None)), len(counts))
    text = np.empty((len(counts), enc_rows.shape[1]))
    starts = np.cumsum(counts) - counts
    for c in distinct:
        rows = np.flatnonzero(counts == c)
        enc = slot_encodings((starts[rows, None] + np.arange(c)).ravel())
        text[rows] = enc.reshape(len(rows), c, -1).sum(axis=1)
    return text


def _slot_array(enc_rows, b, r, occ, B, R):
    """The (B, R, 2H) encoding of every slot: each real slot (b, r) that of
    its row occ, a padded slot zeros."""
    enc = np.zeros((B, R, enc_rows.shape[1]))
    enc[b, r] = enc_rows[occ]
    return enc


def _reverse_within_length(ids, lengths):
    """Per-row reversal of the first lengths[n] tokens; padding stays in place.
    Where every row fills T, as every per-vote forward of a single column
    does, that is one reversed view."""
    if (lengths == ids.shape[1]).all():
        return ids[:, ::-1]
    pos = np.arange(ids.shape[1])[None, :]
    rev = np.where(pos < lengths[:, None], lengths[:, None] - 1 - pos, pos)
    return np.take_along_axis(ids, rev, axis=1)


class Model:
    """Parameter container plus batched forward/backward for both wirings.

    The model holds the LSTM weights stacked (stack_lstm), Wx, Wh and b one
    (2, ...) array each, and reads them so in every forward and backward.
    params' lstm_fw_* and lstm_bw_* are views of their halves, built where
    the parameters were made; where they are not, as in a dict built by
    hand, the model stacks them once here and rebinds the entries. So an
    in-place update of an entry (adam_step) reaches the model; an entry
    rebound to another array while the model lives does not."""

    def __init__(self, config: TrainingConfig, params: dict):
        self.config = config
        self.params = params
        self.lstm_weights = stack_lstm(params)  # (Wx, Wh, b)

    # -- text encoder (shared by both modes) --------------------------------

    def _encode(self, ids, lengths, history):
        """The (N, 2H) encoding of each row, its first lengths[n] ids, and the
        cache backward reads; only with history does the cache hold the step
        history (_lstm_forward). Both directions read the held weight stacks:
        nothing is stacked per forward but the ids and their reversal."""
        ids2 = np.stack([ids, _reverse_within_length(ids, lengths)])  # (2, N, T): fw, bw
        lstm = _lstm_forward(self.params["embedding"], ids2, lengths, *self.lstm_weights, history)
        enc = np.concatenate(lstm["h_final"], axis=1)
        return enc, lstm

    def _encode_backward(self, lstm, denc, grads):
        """Backward through the encoder: sets the LSTM gradients in grads,
        views of the halves of stacked ones as the weights are, and adds the
        embedding's."""
        H = self.config.hidden_size
        Wx, Wh, b = self.lstm_weights
        if "steps" not in lstm:
            # An inference forward kept no step history: recompute it, with the
            # same weights, as a packed training forward, the one cache format
            # backward reads. The forward is deterministic, so backward reads
            # what a training forward would have kept, bit for bit.
            lstm = _lstm_forward(self.params["embedding"], lstm["ids"], lstm["lengths"],
                                 Wx, Wh, b)
        dh = np.stack([denc[:, :H], denc[:, H:]])
        dX, ids, *dW = _lstm_backward(lstm, dh, Wx, Wh)
        for k, dW_k in zip(LSTM_WEIGHTS, dW):
            grads[f"lstm_fw_{k}"], grads[f"lstm_bw_{k}"] = dW_k
        # one scatter over the fw positions, then the bw ones
        grads["embedding"] += _add_rows(ids, dX, len(grads["embedding"]))

    # -- multi slot head -----------------------------------------------------

    def _aggregate(self, cache):
        """The (B, text_dim) text of a multi batch from the encoding of each
        row (cache: enc_rows, the real slots b, r in (b, r) order as forward
        derives them from counts, the row occ of each and the counts of real
        slots per sample). mean, sum and weighted_sum add each sample's real
        slots only (_sum_slots), which gives the bits of a sum over a
        (B, R, 2H) array with zero padded slots; concatenation's text is that
        array, padded slots zeros."""
        cfg = self.config
        enc_rows, b, r, occ, counts = (cache[k] for k in ("enc_rows", "b", "r", "occ", "counts"))
        if cfg.aggregation == "concatenation":
            return _slot_array(enc_rows, b, r, occ, len(counts), cfg.r).reshape(len(counts), -1)
        weights = self.params["agg_w"][r] if cfg.aggregation == "weighted_sum" else None
        text = _sum_slots(enc_rows, b, occ, counts, weights)
        if cfg.aggregation == "mean":
            text /= counts[:, None]
        return text

    def _aggregate_backward(self, cache, dtext, grads):
        """The gradient of each real slot's encoding, in (b, r) order, given
        that of the text; adds agg_w's into grads."""
        cfg = self.config
        b, r = cache["b"], cache["r"]
        if cfg.aggregation == "mean":
            return (dtext / cache["counts"][:, None])[b]
        if cfg.aggregation == "sum":
            return dtext[b]
        if cfg.aggregation == "weighted_sum":
            enc = _slot_array(cache["enc_rows"], b, r, cache["occ"], len(dtext), cfg.r)
            grads["agg_w"] += np.einsum("brh,bh->r", enc, dtext)
            return dtext[b] * self.params["agg_w"][r, None]
        return dtext.reshape(len(dtext), cfg.r, -1)[b, r]

    # -- forward -------------------------------------------------------------

    def forward(self, batch, train_mode=False, dropout_rng=None):
        """Run a batch; returns (probs (B, C), cache for backward)."""
        cfg = self.config
        p = self.params
        feats = np.asarray(batch["feats"], dtype=np.float64)
        cache = {"feats": feats}

        if cfg.mode == "single":
            text, cache["lstm"] = self._encode(batch["ids"], batch["lengths"], train_mode)
        else:
            occ, counts = np.asarray(batch["occ"]), np.asarray(batch["counts"])
            if counts.min() < 1 or counts.max() > cfg.r:
                raise ConfigError(f"a sample must have 1 to r={cfg.r} real slots")
            # the real slots, in (b, r) order: sample i's are its first counts[i]
            b = np.repeat(np.arange(len(counts)), counts)
            r = np.arange(len(occ)) - np.repeat(np.cumsum(counts) - counts, counts)
            # an encoded text does not depend on its slot: encode each row once
            ids, lengths = batch["ids"], batch["lengths"]
            if len(ids) == 1 < len(occ):
                # numpy sends a one-row matmul to gemv, which rounds
                # differently from the many-row kernel: encode the row twice
                ids, lengths = np.repeat(ids, 2, 0), np.repeat(lengths, 2)
            enc_rows, cache["lstm"] = self._encode(ids, lengths, train_mode)
            cache.update(enc_rows=enc_rows, b=b, r=r, counts=counts, occ=occ, n_rows=len(ids))
            text = self._aggregate(cache)

        pre_feat = feats @ p["feat_W"] + p["feat_b"]
        fproj = np.maximum(pre_feat, 0.0)
        z = np.concatenate([text, fproj], axis=1)
        cache.update(pre_feat=pre_feat, z=z)

        a = z
        hidden = []
        keep = 1.0 - cfg.dropout
        for i in range(len(cfg.dense_widths)):
            s = a @ p[f"dense_{i}_W"] + p[f"dense_{i}_b"]
            act = np.maximum(s, 0.0)
            if train_mode and cfg.dropout > 0.0:
                if dropout_rng is None:
                    raise ConfigError("train_mode with dropout requires a dropout rng")
                drop = (dropout_rng.random(act.shape) >= cfg.dropout) / keep
            else:
                drop = None
            hidden.append({"input": a, "s": s, "drop": drop})
            a = act if drop is None else act * drop
        logits = a @ p["out_W"] + p["out_b"]
        if not np.all(np.isfinite(logits)):
            raise DiagnosticError("non-finite activation at the output layer")
        shifted = logits - logits.max(axis=1, keepdims=True)
        expd = np.exp(shifted)
        probs = expd / expd.sum(axis=1, keepdims=True)
        cache.update(hidden=hidden, last_hidden=a, probs=probs)
        return probs, cache

    # -- backward ------------------------------------------------------------

    def backward(self, cache, dlogits):
        """Gradients of all parameters given d(loss)/d(logits). Params untouched."""
        cfg = self.config
        p = self.params
        grads = zeros_like_params(p)

        grads["out_W"] += cache["last_hidden"].T @ dlogits
        grads["out_b"] += dlogits.sum(axis=0)
        da = dlogits @ p["out_W"].T
        for i in range(len(cfg.dense_widths) - 1, -1, -1):
            layer = cache["hidden"][i]
            if layer["drop"] is not None:
                da = da * layer["drop"]
            ds = da * (layer["s"] > 0.0)
            grads[f"dense_{i}_W"] += layer["input"].T @ ds
            grads[f"dense_{i}_b"] += ds.sum(axis=0)
            da = ds @ p[f"dense_{i}_W"].T

        width = text_dim(cfg)
        dtext = da[:, :width]
        dfproj = da[:, width:]
        dpre = dfproj * (cache["pre_feat"] > 0.0)
        grads["feat_W"] += cache["feats"].T @ dpre
        grads["feat_b"] += dpre.sum(axis=0)

        if cfg.mode == "single":
            self._encode_backward(cache["lstm"], dtext, grads)
            return grads

        # each encoded row collects the gradients of its occurrences
        denc_rows = _add_rows(cache["occ"], self._aggregate_backward(cache, dtext, grads),
                              cache["n_rows"])
        self._encode_backward(cache["lstm"], denc_rows, grads)
        return grads
