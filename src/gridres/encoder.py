"""Temporal feature encoder for PV/load observations.

Compresses each slot's input window (current values plus the forecast
horizon, one row per device; ``dataio.ForecastTable``) into a 16-dimensional
characteristic vector with an embedding layer, a two-layer GRU and a
rectified linear head.
Inputs are normalized by device capacity before the embedding so MW-scale
differences between devices do not dominate training.
"""

from __future__ import annotations

import numpy as np

from . import diffkit as dk

VECTOR_DIM = 16


class GruEncoder:
    """Embedding -> two GRU layers -> linear + ReLU head, all float64.

    One shared instance produces the characteristic vector for every agent;
    its parameters are updated through the actors' gradient paths.
    """

    def __init__(self, capacities: np.ndarray, rng: np.random.Generator,
                 embed: int = 32, hidden: int = 32, layers: int = 2,
                 out_dim: int = VECTOR_DIM):
        self.hidden = hidden
        self.layers = layers
        self.out_dim = out_dim
        self.capacities = np.asarray(capacities, dtype=float)
        self.params: dict[str, np.ndarray] = {
            "emb/W": dk.uniform_init(rng, (len(self.capacities), embed)),
            "emb/b": np.zeros(embed),
        }
        for layer in range(layers):
            in_size = embed if layer == 0 else hidden
            self.params.update(dk.gru_init(rng, in_size, hidden, prefix=f"l{layer}/"))
        self.params["head/W"] = dk.uniform_init(rng, (hidden, out_dim))
        self.params["head/b"] = np.zeros(out_dim)

    def forward(self, windows: np.ndarray):
        """Encode a (batch, rows, T) stack of windows; returns (v, cache)
        with v of shape (batch, out_dim)."""
        batch, rows, horizon = windows.shape
        if rows != len(self.capacities):
            raise dk.ShapeError(f"window rows {rows} vs {len(self.capacities)} capacities")
        x_norm = windows / self.capacities[None, :, None]
        h = [np.zeros((batch, self.hidden)) for _ in range(self.layers)]
        steps = []
        for t in range(horizon):
            col = x_norm[:, :, t]
            emb_pre, emb_cache = dk.dense_forward(col, self.params["emb/W"],
                                                  self.params["emb/b"])
            inp, relu_cache = dk.relu_forward(emb_pre)
            cell_caches = []
            for layer in range(self.layers):
                h_new, cache = dk.gru_cell_forward(self.params, inp, h[layer],
                                                   prefix=f"l{layer}/")
                cell_caches.append(cache)
                h[layer] = h_new
                inp = h_new
            steps.append((emb_cache, relu_cache, cell_caches))
        head_pre, head_cache = dk.dense_forward(h[-1], self.params["head/W"],
                                                self.params["head/b"])
        v, head_relu = dk.relu_forward(head_pre)
        return v, (steps, head_cache, head_relu, batch, horizon)

    def backward(self, cache, grad_v: np.ndarray) -> dict[str, np.ndarray]:
        """Backpropagate through time; returns parameter gradients."""
        steps, head_cache, head_relu, batch, horizon = cache
        grads: dict[str, np.ndarray] = {}
        d_head_pre = dk.relu_backward(head_relu, grad_v)
        dh_last, dW, db = dk.dense_backward(head_cache, d_head_pre)
        dk.accumulate(grads, {"head/W": dW, "head/b": db})

        # dh[layer] is the gradient flowing into that layer's hidden state.
        dh = [np.zeros((batch, self.hidden)) for _ in range(self.layers)]
        dh[-1] = dh_last
        for t in reversed(range(horizon)):
            emb_cache, relu_cache, cell_caches = steps[t]
            for layer in reversed(range(self.layers)):
                dx, dh_prev, cell_grads = dk.gru_cell_backward(
                    self.params, cell_caches[layer], dh[layer],
                    prefix=f"l{layer}/")
                dk.accumulate(grads, cell_grads)
                dh[layer] = dh_prev
                if layer > 0:
                    dh[layer - 1] = dh[layer - 1] + dx
                else:
                    d_inp = dx
            d_emb_pre = dk.relu_backward(relu_cache, d_inp)
            _, dW, db = dk.dense_backward(emb_cache, d_emb_pre)
            dk.accumulate(grads, {"emb/W": dW, "emb/b": db})
        return grads


class DayEncoding:
    """Characteristic vectors of one day's window stack, encoded in batched
    passes of ``span`` slots (default: the rest) from a slot no pass covers.

    A window depends only on (day, slot), so the vectors stay valid until
    the encoder's parameters change; ``clear`` then drops them and the next
    ``vector`` call encodes from its slot under the new parameters.
    """

    def __init__(self, encoder: GruEncoder, windows: np.ndarray,
                 span: int | None = None):
        self.encoder = encoder
        self.windows = windows
        self.span = len(windows) if span is None else span
        self.clear()

    def clear(self) -> None:
        self._first = 0
        self._v: np.ndarray | None = None

    def vector(self, slot: int) -> np.ndarray:
        if self._v is None or slot >= self._first + len(self._v):
            stop = slot + self.span
            if stop == len(self.windows) - 1:
                stop += 1  # no one-window pass later: it would take other bits
            self._first = slot
            self._v, _ = self.encoder.forward(self.windows[slot:stop])
        return self._v[slot - self._first]
