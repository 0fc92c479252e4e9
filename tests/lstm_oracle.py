"""Reference bidirectional LSTM encoder: one Python time loop per direction.

Each direction runs its own masked LSTM over its own (N, T, E) inputs with its
own weights, and the backward pass walks each direction back separately.  Slow
(two loops of per-gate numpy calls) but short enough to check by eye.  Used as
the oracle for the fused loop in dcom.nn: ``OracleModel`` is
``dcom.nn.Model`` with the text encoder swapped for this one.  The fused
loop's probabilities must be bit-identical to the oracle's.  Its gradients
must be within 1e-12 of the largest entry: its backward takes dX and the
weight gradients out of the time loop, as products over every stepped
position summed in blocks, which add in another order than the per-step
products here.
"""

import numpy as np

from dcom.nn import Model


def reverse_within_mask(ids, mask):
    """Each row's unmasked tokens in reverse order; masked positions keep
    their ids."""
    out = ids.copy()
    for n, keep in enumerate(mask.astype(bool)):
        out[n, keep] = ids[n, keep][::-1]
    return out


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm_forward(X, mask, Wx, Wh, b):
    """Masked LSTM over X (N, T, E); the state freezes past each row's length."""
    N, T, _ = X.shape
    H = Wh.shape[0]
    Hs = np.zeros((T + 1, N, H))
    Cs = np.zeros((T + 1, N, H))
    gates = np.zeros((T, N, 4 * H))
    C_new = np.zeros((T, N, H))
    XW = X @ Wx + b
    for t in range(T):
        a = XW[:, t, :] + Hs[t] @ Wh
        i = _sigmoid(a[:, :H])
        f = _sigmoid(a[:, H : 2 * H])
        g = np.tanh(a[:, 2 * H : 3 * H])
        o = _sigmoid(a[:, 3 * H :])
        c_new = f * Cs[t] + i * g
        h_new = o * np.tanh(c_new)
        m = mask[:, t : t + 1]
        Cs[t + 1] = m * c_new + (1.0 - m) * Cs[t]
        Hs[t + 1] = m * h_new + (1.0 - m) * Hs[t]
        gates[t] = np.concatenate([i, f, g, o], axis=1)
        C_new[t] = c_new
    return {"Hs": Hs, "Cs": Cs, "gates": gates, "C_new": C_new, "h_final": Hs[T]}


def lstm_backward(cache, dh_final, X, mask, Wx, Wh):
    """Backprop through the masked LSTM, gradient entering at the final state."""
    N, T, E = X.shape
    H = Wh.shape[0]
    Hs, Cs, gates, C_new = cache["Hs"], cache["Cs"], cache["gates"], cache["C_new"]
    dWx = np.zeros_like(Wx)
    dWh = np.zeros_like(Wh)
    db = np.zeros(4 * H)
    dX = np.zeros_like(X)
    dh = dh_final.copy()
    dc = np.zeros((N, H))
    for t in range(T - 1, -1, -1):
        m = mask[:, t : t + 1]
        i = gates[t][:, :H]
        f = gates[t][:, H : 2 * H]
        g = gates[t][:, 2 * H : 3 * H]
        o = gates[t][:, 3 * H :]
        tanh_c = np.tanh(C_new[t])
        dh_new = dh * m
        dc_new = dc * m
        dh_prev = dh * (1.0 - m)
        dc_prev = dc * (1.0 - m)
        do = dh_new * tanh_c
        dc_new = dc_new + dh_new * o * (1.0 - tanh_c**2)
        df = dc_new * Cs[t]
        di = dc_new * g
        dg = dc_new * i
        dc_prev = dc_prev + dc_new * f
        dA = np.concatenate(
            [di * i * (1 - i), df * f * (1 - f), dg * (1 - g**2), do * o * (1 - o)],
            axis=1,
        )
        dWx += X[:, t, :].T @ dA
        dWh += Hs[t].T @ dA
        db += dA.sum(axis=0)
        dX[:, t, :] = dA @ Wx.T
        dh = dh_prev + dA @ Wh.T
        dc = dc_prev
    return dX, dWx, dWh, db


class OracleModel(Model):
    """dcom.nn.Model whose text encoder runs one LSTM loop per direction."""

    def _encode(self, ids, lengths, history):
        # history: this encoder always keeps what its backward reads
        p = self.params
        mask = np.arange(ids.shape[1]) < lengths[:, None]
        maskf = mask.astype(np.float64)
        X_fw = p["embedding"][ids] * maskf[..., None]
        fw = lstm_forward(X_fw, maskf, p["lstm_fw_Wx"], p["lstm_fw_Wh"], p["lstm_fw_b"])
        ids_bw = reverse_within_mask(ids, mask)
        X_bw = p["embedding"][ids_bw] * maskf[..., None]
        bw = lstm_forward(X_bw, maskf, p["lstm_bw_Wx"], p["lstm_bw_Wh"], p["lstm_bw_b"])
        enc = np.concatenate([fw["h_final"], bw["h_final"]], axis=1)
        cache = {"ids": ids, "ids_bw": ids_bw, "maskf": maskf, "X_fw": X_fw,
                 "X_bw": X_bw, "fw": fw, "bw": bw}
        return enc, cache

    def _encode_backward(self, cache, denc, grads):
        p = self.params
        H = self.config.hidden_size
        for d, dh in (("fw", denc[:, :H]), ("bw", denc[:, H:])):
            dX, dWx, dWh, db = lstm_backward(
                cache[d], dh, cache[f"X_{d}"], cache["maskf"],
                p[f"lstm_{d}_Wx"], p[f"lstm_{d}_Wh"],
            )
            grads[f"lstm_{d}_Wx"] += dWx
            grads[f"lstm_{d}_Wh"] += dWh
            grads[f"lstm_{d}_b"] += db
            ids = cache["ids"] if d == "fw" else cache["ids_bw"]
            dX = dX * cache["maskf"][..., None]
            np.add.at(
                grads["embedding"],
                ids.reshape(-1),
                dX.reshape(-1, self.config.embedding_dim),
            )
