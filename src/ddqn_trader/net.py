"""From-scratch Q-network: two ReLU hidden layers, linear 3-way output.

Forward, analytic backprop, inverted dropout (after the second hidden layer
only), an L2 penalty on hidden activations, and Adam are all implemented here
on plain numpy arrays. The loss regressed is

    mean_i [ (y_i - q(s_i)[a_i])^2
             + l2_activity * (sum_j a1_ij^2 + sum_j a2_ij^2) ]

so gradients flow only through each sample's taken action plus the activity
penalty, and the learning rate is batch-size invariant.

Parameters live in one float64 vector with per-layer views into it, and the
activations and gradients of a batch live in a reusable :class:`Workspace`,
so a gradient step that keeps its workspace allocates no [batch, width]
activation or gradient arrays.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ConfigError, NumericsError

# Adam's moment decay rates and denominator epsilon (Kingma & Ba's defaults).
# Constants, not settings: checkpoints hold only m, v and t.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class NetConfig:
    input_dim: int
    hidden_dims: tuple[int, int] = (64, 64)
    output_dim: int = 3
    dropout_rate: float = 0.1
    l2_activity: float = 1e-6
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        if len(self.hidden_dims) != 2:
            raise ConfigError(f"exactly two hidden layers supported, got {self.hidden_dims}")
        if min(self.input_dim, *self.hidden_dims, self.output_dim) < 1:
            raise ConfigError("all layer dims must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.l2_activity < 0:
            raise ConfigError(f"l2_activity must be >= 0, got {self.l2_activity}")

    @property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        h1, h2 = self.hidden_dims
        return ((self.input_dim, h1), (h1, h2), (h2, self.output_dim))


class NetParams:
    """Per-layer weight matrices [in, out] and bias vectors [out], stored in one vector.

    ``flat`` holds W1, b1, W2, b2, W3, b3 back to back; ``weights[i]`` and
    ``biases[i]`` are reshaped views into it. Writing through a view writes
    ``flat``, and one vector op on ``flat`` updates every layer.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        blocks = [np.ravel(a) for pair in zip(weights, biases) for a in pair]
        self._bind(np.concatenate(blocks, dtype=np.float64), [np.shape(w) for w in weights])

    @classmethod
    def from_flat(cls, flat: np.ndarray, shapes) -> "NetParams":
        """Views over an existing vector laid out as W1, b1, W2, b2, W3, b3."""
        params = cls.__new__(cls)
        params._bind(flat, shapes)
        return params

    def _bind(self, flat: np.ndarray, shapes) -> None:
        self.flat = flat
        self.shapes = tuple(tuple(s) for s in shapes)
        self.weights, self.biases = [], []
        offset = 0
        for fan_in, fan_out in self.shapes:
            self.weights.append(flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
            offset += fan_in * fan_out
            self.biases.append(flat[offset : offset + fan_out])
            offset += fan_out

    def clone(self) -> "NetParams":
        return NetParams.from_flat(self.flat.copy(), self.shapes)


@dataclass
class AdamState:
    """First and second moments laid out like ``NetParams.flat``."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def param_count(config: NetConfig) -> int:
    return sum(i * o + o for i, o in config.layer_shapes)


def init_params(config: NetConfig, rng: np.random.Generator | None = None) -> NetParams:
    """He-uniform weights scaled by fan-in, zero biases; deterministic per seed."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    weights, biases = [], []
    for fan_in, fan_out in config.layer_shapes:
        limit = math.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return NetParams(weights, biases)


def init_adam(config: NetConfig) -> AdamState:
    n = param_count(config)
    return AdamState(m=np.zeros(n), v=np.zeros(n))


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray | None = None):
    out = np.matmul(x, w, out=out)
    out += b
    return out


def _all_finite(arr: np.ndarray, flags: np.ndarray) -> bool:
    """np.isfinite(arr).all(), written into the bool scratch ``flags``."""
    ok = np.isfinite(arr, out=flags[: arr.size].reshape(arr.shape))
    return bool(ok.all())


def _hidden(params: NetParams, x: np.ndarray, a1=None, a2=None, flags=None, checked: int = 0):
    """Layers 1–2, each ReLU applied in place on its pre-activation (a > 0
    exactly where z > 0, so the backward pass reads the mask off a).

    Returns (a2, bad): bad names the first layer whose pre-activations on
    the first ``checked`` rows hold a non-finite value, else None.
    """
    w, b = params.weights, params.biases
    bad = None
    a1 = _affine(x, w[0], b[0], a1)
    if checked and not _all_finite(a1[:checked], flags):
        bad = "hidden layer 1"
    np.maximum(a1, 0.0, out=a1)
    a2 = _affine(a1, w[1], b[1], a2)
    if checked and bad is None and not _all_finite(a2[:checked], flags):
        bad = "hidden layer 2"
    np.maximum(a2, 0.0, out=a2)
    return a2, bad


class Workspace:
    """Activation and gradient buffers for batches of up to ``batch`` rows.

    A gradient step that reuses one allocates no [batch, width] arrays. With
    ``stacked``, the input and online hidden buffers have room for twice the
    rows, so one pass runs layers 1–2 on [states; next_states]. The target
    network's forward buffers are reused as dL/dz1 and dL/dz2, and the
    dropped-out layer 2 as the L2 scratch once dW3 is computed.

    Use: :meth:`hidden`, then any of :meth:`head` and :meth:`target_q`, then
    :meth:`train_q` or :meth:`loss_and_grads`. Returned arrays and gradients
    are views into the buffers, overwritten by the next call.
    """

    def __init__(self, config: NetConfig, batch: int, stacked: bool = False):
        h1, h2 = config.hidden_dims
        rows = 2 * batch if stacked else batch
        self.config = config
        self.x = np.empty((rows, config.input_dim))
        self.a1 = np.empty((rows, h1))
        self.a2 = np.empty((rows, h2))
        self.q = np.empty((rows, config.output_dim))
        self.t1 = np.empty((batch, h1))  # target layer 1, then dL/dz1
        self.t2 = np.empty((batch, h2))  # target layer 2, then dL/dz2
        self.tq = np.empty((batch, config.output_dim))
        self.dq = np.empty((batch, config.output_dim))
        self._mask = np.empty((batch, h2))
        self._scratch = np.empty(batch * max(h1, h2))  # dropped-out a2, then L2 terms
        self._flags = np.empty(batch * max(h1, h2, config.output_dim), dtype=bool)
        self.grads = NetParams.from_flat(np.empty(param_count(config)), config.layer_shapes)
        self.rows = 0  # train rows of the last hidden pass
        self.mask: np.ndarray | None = None  # dropout mask of the last train_q
        self._dropped: np.ndarray | None = None
        self._bad: str | None = None

    def _view(self, buf: np.ndarray, width: int) -> np.ndarray:
        return buf[: self.rows * width].reshape(self.rows, width)

    def hidden(self, params: NetParams, states: np.ndarray,
               next_states: np.ndarray | None = None) -> None:
        """Layers 1–2 over ``states``, stacked with ``next_states`` if given.

        ``states`` are the train rows; a non-finite pre-activation in them is
        reported by the next :meth:`loss_and_grads`.
        """
        n = len(states)
        end = n if next_states is None else n + len(next_states)
        self.x[:n] = states
        if next_states is not None:
            self.x[n:end] = next_states
        self.rows = n
        _, self._bad = _hidden(params, self.x[:end], self.a1[:end], self.a2[:end],
                               self._flags, checked=n)

    def head(self, params: NetParams, start: int, stop: int) -> np.ndarray:
        """Eval-mode Q-values of stacked rows [start, stop) of the last hidden pass."""
        return _affine(self.a2[start:stop], params.weights[2], params.biases[2],
                       self.q[start:stop])

    def target_q(self, params: NetParams, states: np.ndarray) -> np.ndarray:
        """Eval-mode Q-values of a second network (the target) on ``states``."""
        n = len(states)
        a2, _ = _hidden(params, states, self.t1[:n], self.t2[:n])
        return _affine(a2, params.weights[2], params.biases[2], self.tq[:n])

    def train_q(self, params: NetParams, rng: np.random.Generator | None) -> np.ndarray:
        """Train-mode Q-values of the train rows: a fresh inverted-dropout mask
        over layer 2, drawn from ``rng``, then the output layer."""
        n, rate = self.rows, self.config.dropout_rate
        a2 = self.a2[:n]
        if rate > 0.0:
            if rng is None:
                raise ValueError("train-mode forward with dropout needs an rng")
            keep = 1.0 - rate
            self.mask = rng.random(out=self._mask[:n])
            np.less(self.mask, keep, out=self.mask)
            self.mask /= keep
            self._dropped = np.multiply(a2, self.mask, out=self._view(self._scratch, a2.shape[1]))
        else:
            self.mask = None
            self._dropped = a2
        return _affine(self._dropped, params.weights[2], params.biases[2], self.q[:n])

    def loss_and_grads(
        self,
        params: NetParams,
        actions: np.ndarray,
        targets: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> tuple[float, NetParams]:
        """Loss and gradients for the train rows of the last hidden pass; see
        :func:`loss_and_grads`. The gradients are ``self.grads``."""
        actions = np.asarray(actions, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.float64)
        n = self.rows
        if len(actions) != n or len(targets) != n:
            raise ValueError(f"need {n} actions and targets, got {len(actions)} and {len(targets)}")
        if not np.all(np.isfinite(targets)):
            raise NumericsError("non-finite targets")
        q = self.train_q(params, rng)
        if self._bad is not None:
            raise NumericsError(f"non-finite values in {self._bad}")
        if not _all_finite(q, self._flags):
            raise NumericsError("non-finite values in output layer")

        x, a1, a2 = self.x[:n], self.a1[:n], self.a2[:n]
        rows = np.arange(n)
        err = q[rows, actions] - targets
        l2 = self.config.l2_activity
        loss = float(np.mean(err**2))
        if l2 > 0.0:
            sq1 = np.square(a1, out=self.t1[:n])
            sq2 = np.square(a2, out=self.t2[:n])
            loss += l2 * float(np.sum(sq1) + np.sum(sq2)) / n
        if not math.isfinite(loss):
            raise NumericsError("non-finite loss")

        w, g = params.weights, self.grads
        dq = self.dq[:n]
        dq.fill(0.0)
        dq[rows, actions] = 2.0 * err / n
        np.matmul(self._dropped.T, dq, out=g.weights[2])
        np.sum(dq, axis=0, out=g.biases[2])
        dz2 = np.matmul(dq, w[2].T, out=self.t2[:n])
        if self.mask is not None:
            dz2 *= self.mask
        if l2 > 0.0:
            dz2 += np.multiply(a2, 2.0 * l2 / n, out=self._view(self._scratch, a2.shape[1]))
        dz2 *= np.greater(a2, 0.0, out=self._view(self._flags, a2.shape[1]))
        np.matmul(a1.T, dz2, out=g.weights[1])
        np.sum(dz2, axis=0, out=g.biases[1])
        dz1 = np.matmul(dz2, w[1].T, out=self.t1[:n])
        if l2 > 0.0:
            dz1 += np.multiply(a1, 2.0 * l2 / n, out=self._view(self._scratch, a1.shape[1]))
        dz1 *= np.greater(a1, 0.0, out=self._view(self._flags, a1.shape[1]))
        np.matmul(x.T, dz1, out=g.weights[0])
        np.sum(dz1, axis=0, out=g.biases[0])
        return loss, g


def _as_states(states, config: NetConfig) -> np.ndarray:
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != config.input_dim:
        raise ValueError(
            f"states must be [batch, {config.input_dim}], got shape {states.shape}"
        )
    return states


def forward(
    params: NetParams,
    states: np.ndarray,
    config: NetConfig,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, Workspace | None]:
    """Q-values for a batch of states, shape [batch, 3].

    Eval mode is deterministic (no dropout, no cache). Train mode samples a
    fresh inverted-dropout mask over the second hidden layer and returns the
    fresh workspace holding its activations (``.mask`` is the mask).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    states = _as_states(states, config)
    if mode == "eval":
        a2, _ = _hidden(params, states)
        return _affine(a2, params.weights[2], params.biases[2]), None
    ws = Workspace(config, len(states))
    ws.hidden(params, states)
    return ws.train_q(params, rng), ws


def loss_and_grads(
    params: NetParams,
    states: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    config: NetConfig,
    mode: str = "train",
    rng: np.random.Generator | None = None,
) -> tuple[float, NetParams]:
    """Mean squared TD error plus activity penalty, with analytic gradients.

    ``actions`` selects the output unit each sample's error flows through.
    Dropout masks sampled in the forward are applied consistently backward.
    Raises NumericsError naming the layer if anything goes non-finite.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if len(actions) == 0:
        raise ValueError("empty batch")
    if mode == "eval":  # dropout off regardless of config, used by gradient checks
        config = dataclasses.replace(config, dropout_rate=0.0)
    states = _as_states(states, config)
    ws = Workspace(config, len(states))
    ws.hidden(params, states)
    return ws.loss_and_grads(params, actions, targets, rng)


def adam_step(
    params: NetParams, grads: NetParams, state: AdamState, lr: float
) -> tuple[NetParams, AdamState]:
    """One bias-corrected Adam update on the flat vectors; returns fresh params
    and state and leaves its inputs untouched."""
    t = state.t + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    g = grads.flat
    m = b1 * state.m + (1.0 - b1) * g
    v = b2 * state.v + (1.0 - b2) * g**2
    flat = params.flat - lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return NetParams.from_flat(flat, params.shapes), AdamState(m, v, t=t)


def params_to_dict(params: NetParams) -> dict:
    """Flat per-layer arrays in layer order; JSON float repr round-trips bit-exactly."""
    return {
        "weights": [w.flatten().tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }


def params_from_dict(d: dict, config: NetConfig) -> NetParams:
    layers = len(config.layer_shapes)
    if len(d["weights"]) != layers or len(d["biases"]) != layers:
        raise CheckpointError(f"expected {layers} weight and bias blocks, got "
                              f"{len(d['weights'])} and {len(d['biases'])}")
    weights, biases = [], []
    for shape, flat, bias in zip(config.layer_shapes, d["weights"], d["biases"]):
        w = np.array(flat, dtype=np.float64)
        if w.size != shape[0] * shape[1] or len(bias) != shape[1]:
            raise CheckpointError(f"parameter block does not match layer shape {shape}")
        weights.append(w.reshape(shape))
        biases.append(np.array(bias, dtype=np.float64))
    return NetParams(weights, biases)
