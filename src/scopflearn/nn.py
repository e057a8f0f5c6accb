"""Dense neural network kernel: affine layers, ReLU, layer normalization,
exact reverse-mode gradients, and Adam.  Everything is float64 numpy; no
external ML framework.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

LN_EPS = 1e-5
FINAL_LAYER_SCALE = 1e-3
HIDDEN_FACTOR = 1.5   # hidden width per input feature


@functools.lru_cache(maxsize=None)
def _layout(sizes: tuple, use_layernorm: bool) -> tuple:
    """(name, shape, start, stop) of each array of a network in its flat
    buffer; cached, since every backward pass lays out a gradient buffer."""
    out, lo = [], 0
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        arrays = [(f"w{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,))]
        if use_layernorm:
            arrays += [(f"ln_g{i}", (fan_in,)), (f"ln_b{i}", (fan_in,))]
        for name, shape in arrays:
            out.append((name, shape, lo, lo + math.prod(shape)))
            lo = out[-1][3]
    return tuple(out)


def param_count(sizes: tuple, use_layernorm: bool) -> int:
    """Length of the flat buffer of a network of these sizes."""
    layout = _layout(sizes, use_layernorm)
    return layout[-1][3] if layout else 0


@dataclass
class MlpParams:
    """Per-layer weights/biases plus optional layer-norm affine parameters.

    ``sizes`` lists the widths including input and output; layer i maps
    sizes[i] -> sizes[i+1].  When layer norm is enabled it is applied to the
    input of every affine layer.  Every array is a view, in ``shapes``
    order, of one contiguous float64 buffer ``flat`` (zeros unless given),
    so Adam updates a network in one element-wise pass, and a checkpoint
    stores the network as that one buffer.
    """

    sizes: tuple
    use_layernorm: bool
    flat: np.ndarray = None

    def __post_init__(self):
        if self.flat is None:
            self.flat = np.zeros(param_count(self.sizes, self.use_layernorm))
        views = self.split(self.flat)
        per = 4 if self.use_layernorm else 2
        self.weights, self.biases = views[0::per], views[1::per]
        self.ln_gain = views[2::per] if self.use_layernorm else []
        self.ln_offset = views[3::per] if self.use_layernorm else []

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def shapes(self):
        """(name, shape) of each array, in its order in ``flat``."""
        return [(name, shape) for name, shape, _, _ in _layout(self.sizes, self.use_layernorm)]

    def split(self, flat: np.ndarray) -> list:
        """Views of a buffer laid out like ``flat`` (parameters, gradients or
        Adam moments), one per named array."""
        return [flat[lo:hi].reshape(shape)
                for _, shape, lo, hi in _layout(self.sizes, self.use_layernorm)]

    def arrays(self):
        return self.split(self.flat)

    def copy(self) -> "MlpParams":
        return MlpParams(self.sizes, self.use_layernorm, self.flat.copy())


@dataclass
class AdamState:
    """Adam moments, flat and laid out like the network's ``flat``;
    ``MlpParams.split`` gives their per-array views."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: MlpParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def init_mlp(sizes, rng: np.random.Generator, use_layernorm: bool = False) -> MlpParams:
    """He-uniform weights for the ReLU layers; the output layer is scaled
    down by FINAL_LAYER_SCALE so the initial outputs sit near zero."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2:
        raise ConfigError("network needs at least input and output sizes")
    params = MlpParams(sizes=sizes, use_layernorm=use_layernorm)
    last = len(sizes) - 2
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        bound = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        if i == last:
            w *= FINAL_LAYER_SCALE
        params.weights[i][:] = w
        if use_layernorm:
            params.ln_gain[i][:] = 1.0
    return params


def hidden_width(dim_x: int) -> int:
    return int(round(HIDDEN_FACTOR * dim_x))


def mlp_forward(params: MlpParams, x: np.ndarray):
    """Forward pass; returns (output, tape) with the activations needed for
    the backward pass.  Accepts (batch, in) or a single (in,) vector."""
    x = np.asarray(x, float)
    single = x.ndim == 1
    h = np.atleast_2d(x)
    if h.shape[-1] != params.sizes[0]:
        raise ConfigError(
            f"input size {h.shape[-1]} does not match network input {params.sizes[0]}")
    tape = []
    last = params.n_layers - 1
    for i in range(params.n_layers):
        if params.use_layernorm:
            # np.mean and np.var without their Python wrappers, same arithmetic
            k = h.shape[-1]
            xc = h - h.sum(-1, keepdims=True) / k
            inv_std = 1.0 / np.sqrt((xc * xc).sum(-1, keepdims=True) / k + LN_EPS)
            xhat = xc * inv_std
            a = params.ln_gain[i] * xhat + params.ln_offset[i]
        else:
            xhat, inv_std, a = None, None, h
        pre = a @ params.weights[i] + params.biases[i]
        out = np.maximum(pre, 0.0) if i < last else pre
        tape.append((a, xhat, inv_std, pre))
        h = out
    return (h[0], tape) if single else (h, tape)


def mlp_backward(params: MlpParams, tape, grad_output: np.ndarray):
    """Exact gradients of the forward map.

    Returns (grads, grad_input) where grads mirrors MlpParams, in a new
    flat buffer, and the parameter gradients are summed over the batch axis.
    """
    grad_output = np.atleast_2d(np.asarray(grad_output, float))
    grads = MlpParams(params.sizes, params.use_layernorm, np.empty_like(params.flat))
    g = grad_output
    last = params.n_layers - 1
    for i in range(last, -1, -1):
        a, xhat, inv_std, pre = tape[i]
        if i < last:
            g = g * (pre > 0)
        np.matmul(a.T, g, out=grads.weights[i])
        g.sum(0, out=grads.biases[i])
        g = g @ params.weights[i].T
        if params.use_layernorm:
            (g * xhat).sum(0, out=grads.ln_gain[i])
            g.sum(0, out=grads.ln_offset[i])
            gx = g * params.ln_gain[i]
            # standard layer-norm backward over the feature axis
            k = gx.shape[-1]
            g = inv_std * (gx - gx.sum(-1, keepdims=True) / k
                           - xhat * ((gx * xhat).sum(-1, keepdims=True) / k))
    return grads, g


def adam_step(params: MlpParams, grads: MlpParams, state: AdamState, lr: float) -> None:
    """One in-place Adam update with bias correction, element-wise over the
    network's flat buffers."""
    state.step += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    g, m, v = grads.flat, state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    params.flat -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def lr_schedule(base_lr: float, step: int, total_steps: int) -> float:
    """Constant learning rate with a 10x cut at 90% of the run (boundary
    included in the decayed region)."""
    if step >= 0.9 * total_steps:
        return 0.1 * base_lr
    return base_lr
