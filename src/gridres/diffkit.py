"""Minimal reverse-mode kit for the fixed network shapes used here.

Everything is float64 numpy. Each op exposes a forward returning
``(output, cache)`` and a backward mapping the upstream gradient to input
and parameter gradients; there is no general graph, the networks compose
these by hand. All backward passes are verified against central finite
differences in the test suite. The one composite is the network block,
dense -> LayerNorm -> ReLU (``block_init``/``block_forward``/
``block_backward``), which every hidden layer of the actor and critic uses.

Batched arrays are (batch, features). The dense and LayerNorm layers also
run a stack of G same-shaped layers in one pass, forward and backward: every
parameter and parameter gradient has a leading group axis, and so do the
activations, except that a dense layer may take one (batch, features) input
shared by every group. Each group's slice is then the same arithmetic as its
2-D call. Parameter collections are plain dicts with deterministic insertion
order.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field

import numpy as np

LN_EPS = 1e-12


class ShapeError(ValueError):
    pass


def _check_matmul(x: np.ndarray, w: np.ndarray) -> None:
    if x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"cannot multiply {x.shape} by {w.shape}")


# ---------------------------------------------------------------- basic ops

def dense_forward(x, w, b):
    _check_matmul(x, w)
    z = x @ w
    # b[..., None, :]: a stacked (G, H) bias would otherwise broadcast along
    # the batch axis of (G, batch, H) whenever batch is 1 or G.
    z += b[..., None, :]
    return z, (x, w)


def dense_backward(cache, grad_out):
    x, w = cache
    return (grad_out @ w.swapaxes(-1, -2), x.swapaxes(-1, -2) @ grad_out,
            grad_out.sum(axis=-2))


def layernorm_forward(x, gain, bias):
    """Per-row normalization to zero mean / unit variance, then affine.

    The mean and variance are ``np.var``'s arithmetic, done once. It works
    in place on two full-size arrays: a stacked (G, batch, H) array can
    exceed glibc's 128 KiB mmap threshold, and each fresh one is then
    mapped and page-faulted anew."""
    if x.shape[-1] != gain.shape[-1]:
        raise ShapeError(f"layernorm params {gain.shape} do not fit input {x.shape}")
    n = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / n
    y = np.square(xhat)
    inv = 1.0 / np.sqrt(y.sum(axis=-1, keepdims=True) / n + LN_EPS)
    xhat *= inv
    np.multiply(gain[..., None, :], xhat, out=y)
    y += bias[..., None, :]
    return y, (xhat, inv, gain)


def layernorm_backward(cache, grad_out):
    """In place on two full-size arrays, as the forward."""
    xhat, inv, gain = cache
    dx = grad_out * gain[..., None, :]  # dxhat
    tmp = grad_out * xhat
    dgain, dbias = tmp.sum(axis=-2), grad_out.sum(axis=-2)
    m1 = dx.mean(axis=-1, keepdims=True)
    m2 = np.multiply(dx, xhat, out=tmp).mean(axis=-1, keepdims=True)
    # dx = inv * (dxhat - m1 - xhat * m2)
    dx -= m1
    dx -= np.multiply(xhat, m2, out=tmp)
    dx *= inv
    return dx, dgain, dbias


def relu_forward(x):
    return np.maximum(x, 0.0), (x > 0.0)


def relu_backward(cache, grad_out):
    return grad_out * cache


def tanh_forward(x):
    y = np.tanh(x)
    return y, y


def tanh_backward(cache, grad_out):
    return grad_out * (1.0 - cache ** 2)


def sigmoid_forward(x):
    y = 1.0 / (1.0 + np.exp(-x))
    return y, y


def sigmoid_backward(cache, grad_out):
    return grad_out * cache * (1.0 - cache)


def mse_loss(pred, target):
    """Mean squared error along the last axis; returns (losses, d sum / dpred)."""
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")
    diff = pred - target
    return (diff ** 2).mean(axis=-1), 2.0 * diff / diff.shape[-1]


# ------------------------------------------------------------ network block

def block_init(rng: np.random.Generator, in_dim: int, out_dim: int,
               tag: str) -> dict[str, np.ndarray]:
    """Parameters of one dense -> LayerNorm -> ReLU block, named ``W{tag}``,
    ``b{tag}``, ``g{tag}`` and ``be{tag}``; draws only the weight."""
    return {f"W{tag}": uniform_init(rng, (in_dim, out_dim)),
            f"b{tag}": np.zeros(out_dim),
            f"g{tag}": np.ones(out_dim), f"be{tag}": np.zeros(out_dim)}


def block_forward(x, params, tag: str):
    z, cd = dense_forward(x, params[f"W{tag}"], params[f"b{tag}"])
    n, cn = layernorm_forward(z, params[f"g{tag}"], params[f"be{tag}"])
    cr = n > 0.0
    return np.maximum(n, 0.0, out=n), (cd, cn, cr)  # the ReLU, in place


def block_backward(cache, grad_out, tag: str):
    """Returns (dx, grads), the grads in ``block_init`` order."""
    cd, cn, cr = cache
    dz, dg, dbe = layernorm_backward(cn, relu_backward(cr, grad_out))
    dx, dw, db = dense_backward(cd, dz)
    return dx, {f"W{tag}": dw, f"b{tag}": db, f"g{tag}": dg, f"be{tag}": dbe}


# ----------------------------------------------------------------- GRU cell

def gru_init(rng: np.random.Generator, in_dim: int, hidden: int,
             prefix: str = "") -> dict[str, np.ndarray]:
    p = {}
    for gate in ("z", "r", "h"):
        p[f"{prefix}W{gate}"] = uniform_init(rng, (in_dim, hidden))
        p[f"{prefix}U{gate}"] = uniform_init(rng, (hidden, hidden))
        p[f"{prefix}b{gate}"] = np.zeros(hidden)
    return p


def gru_cell_forward(params, x, h_prev, prefix: str = ""):
    """One GRU step: update/reset gates, candidate, convex combination."""
    g = lambda name: params[f"{prefix}{name}"]
    _check_matmul(x, g("Wz"))
    z, zc = sigmoid_forward(x @ g("Wz") + h_prev @ g("Uz") + g("bz"))
    r, rc = sigmoid_forward(x @ g("Wr") + h_prev @ g("Ur") + g("br"))
    rh = r * h_prev
    c, cc = tanh_forward(x @ g("Wh") + rh @ g("Uh") + g("bh"))
    h = (1.0 - z) * h_prev + z * c
    return h, (x, h_prev, z, zc, r, rc, rh, c, cc)


def gru_cell_backward(params, cache, grad_h, prefix: str = ""):
    """Returns (dx, dh_prev, grads) for one step."""
    x, h_prev, z, zc, r, rc, rh, c, cc = cache
    g = lambda name: params[f"{prefix}{name}"]
    grads: dict[str, np.ndarray] = {}

    dz = grad_h * (c - h_prev)
    dc = grad_h * z
    dh_prev = grad_h * (1.0 - z)

    dc_pre = tanh_backward(cc, dc)
    grads[f"{prefix}Wh"] = x.T @ dc_pre
    grads[f"{prefix}Uh"] = rh.T @ dc_pre
    grads[f"{prefix}bh"] = dc_pre.sum(axis=0)
    dx = dc_pre @ g("Wh").T
    drh = dc_pre @ g("Uh").T
    dr = drh * h_prev
    dh_prev = dh_prev + drh * r

    dr_pre = sigmoid_backward(rc, dr)
    grads[f"{prefix}Wr"] = x.T @ dr_pre
    grads[f"{prefix}Ur"] = h_prev.T @ dr_pre
    grads[f"{prefix}br"] = dr_pre.sum(axis=0)
    dx += dr_pre @ g("Wr").T
    dh_prev = dh_prev + dr_pre @ g("Ur").T

    dz_pre = sigmoid_backward(zc, dz)
    grads[f"{prefix}Wz"] = x.T @ dz_pre
    grads[f"{prefix}Uz"] = h_prev.T @ dz_pre
    grads[f"{prefix}bz"] = dz_pre.sum(axis=0)
    dx += dz_pre @ g("Wz").T
    dh_prev = dh_prev + dz_pre @ g("Uz").T

    return dx, dh_prev, grads


# ------------------------------------------------------------ param handling

def uniform_init(rng: np.random.Generator, shape: tuple[int, ...],
                 scale: float | None = None) -> np.ndarray:
    """Uniform in +-1/sqrt(fan_in) unless an explicit scale is given."""
    bound = scale if scale is not None else 1.0 / np.sqrt(shape[0])
    return rng.uniform(-bound, bound, size=shape)


PARAMSET_VERSION = "gridres-params-2"


@dataclass
class ParamSet:
    """Named tensors plus optimizer moments with a stable serialization.

    Save/load round-trips are bit exact: float64 buffers are written raw via
    the npz container and the name order is stored explicitly.
    """

    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    version: str = PARAMSET_VERSION

    def save(self, path: str) -> None:
        order = np.array(list(self.tensors), dtype=np.str_)
        np.savez(path, __version__=np.array(self.version, dtype=np.str_),
                 __order__=order, **self.tensors)

    @classmethod
    def load(cls, path: str) -> "ParamSet":
        try:
            with np.load(path) as data:
                version = str(data["__version__"])
                if version != PARAMSET_VERSION:
                    raise ValueError(f"unsupported checkpoint version {version!r}")
                order = [str(n) for n in data["__order__"]]
                tensors = {name: data[name].copy() for name in order}
        except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: unreadable checkpoint: {exc}") from None
        return cls(tensors=tensors, version=version)


@dataclass
class AdamState:
    """First/second moment accumulators for one parameter dict."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One adaptive-moment update, in place; ``grads`` has every key of ``params``."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for key, p in params.items():
        g = grads[key]
        state.m[key] = ADAM_BETA1 * state.m[key] + (1.0 - ADAM_BETA1) * g
        state.v[key] = ADAM_BETA2 * state.v[key] + (1.0 - ADAM_BETA2) * np.square(g)
        m_hat = state.m[key] / bc1
        v_hat = state.v[key] / bc2
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def soft_update(target: dict[str, np.ndarray], source: dict[str, np.ndarray],
                tau: float) -> None:
    """target <- tau * source + (1 - tau) * target, elementwise in place."""
    if target.keys() != source.keys():
        raise ShapeError("parameter schemas differ between target and source")
    for key in target:
        if target[key].shape != source[key].shape:
            raise ShapeError(f"{key}: {target[key].shape} vs {source[key].shape}")
        target[key] *= 1.0 - tau
        target[key] += tau * source[key]


def clip_grads(grads: dict[str, np.ndarray], max_norm: float,
               stacked: bool = False):
    """Scale the whole gradient dict to a global norm cap, in place; returns
    the norm. ``stacked``: each slice along the leading group axis is one
    net's gradient, capped on its own, and the (G,) norms are returned."""
    rows = (len(next(iter(grads.values()))), -1) if stacked else (-1,)
    total = np.sqrt(sum(np.square(g).reshape(rows).sum(axis=-1)
                        for g in grads.values()))
    if (total > max_norm).any():
        scale = np.divide(max_norm, total, out=np.ones_like(total), where=total > max_norm)
        for g in grads.values():
            g *= scale.reshape(scale.shape + (1,) * (g.ndim - scale.ndim))
    return total if stacked else float(total)


def accumulate(into: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
    for key, g in grads.items():
        if key in into:
            into[key] = into[key] + g
        else:
            into[key] = g.copy()

