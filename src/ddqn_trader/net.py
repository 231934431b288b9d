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

The gradient step's elementwise chains (the dropout draw and mask, the dropped
layer 2, and the dropout, L2 and ReLU factors of dL/dz2 and dL/dz1) run over
row blocks of ``TRAIN_BLOCK_ROWS``, so each chain reads a block from memory
once and not once per operation. Every value is computed by the same
operations as in one whole-batch pass, so the gradients and the dropout
generator's state are the same bit for bit. The products stay whole-batch:
the three weight gradients and the bias sums reduce over rows, the output
layer keeps its row count (a row of a 3-wide product can round differently at
another), and dL/dz2 @ W2^T loses OpenBLAS's second thread when blocked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import Action
from .errors import ConfigError, NumericsError

# Adam's moment decay rates and denominator epsilon (Kingma & Ba's defaults).
# Constants, not settings: checkpoints hold only m, v and t.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Rows per layers-1–2 block of an eval forward. OpenBLAS runs products this
# small on one thread, whose speed does not depend on where the operands sit in
# memory; the output layer still runs once over all rows, since a row of the
# 3-wide product can round differently at another row count.
EVAL_BLOCK_ROWS = 128

# Rows per block of the gradient step's elementwise passes. A 512-row block of
# a 64-wide float64 array is 256 KiB, so the chain of passes over one block
# runs in a core's L2, where a [4096, 64] array (2 MiB) streams from L3.
TRAIN_BLOCK_ROWS = 512


def _row_blocks(n: int) -> list[slice]:
    """Slices of ``TRAIN_BLOCK_ROWS`` rows covering rows 0..n-1; the last is partial."""
    return [slice(s, s + TRAIN_BLOCK_ROWS) for s in range(0, n, TRAIN_BLOCK_ROWS)]


@dataclass(frozen=True)
class NetConfig:
    input_dim: int
    hidden_dims: tuple[int, int] = (64, 64)
    dropout_rate: float = 0.1
    l2_activity: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        if len(self.hidden_dims) != 2:
            raise ConfigError(f"exactly two hidden layers supported, got {self.hidden_dims}")
        if min(self.input_dim, *self.hidden_dims) < 1:
            raise ConfigError("all layer dims must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not 0 <= self.l2_activity < math.inf:
            raise ConfigError(f"l2_activity must be finite and >= 0, got {self.l2_activity}")

    @property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        """[in, out] of each layer; the output layer has one unit per :class:`Action`."""
        h1, h2 = self.hidden_dims
        return ((self.input_dim, h1), (h1, h2), (h2, len(Action)))


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


def init_params(config: NetConfig, rng: np.random.Generator) -> NetParams:
    """He-uniform weights scaled by fan-in, drawn from ``rng`` layer by layer; zero biases."""
    params = NetParams.from_flat(np.zeros(param_count(config)), config.layer_shapes)
    for w in params.weights:
        limit = math.sqrt(6.0 / len(w))  # len(w) is the fan-in
        w[:] = rng.uniform(-limit, limit, size=w.shape)
    return params


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


def hidden(params: NetParams, x: np.ndarray, a1=None, a2=None, flags=None):
    """Layers 1–2, each ReLU applied in place on its pre-activation (a > 0
    exactly where z > 0, so the backward pass reads the mask off a).

    Returns (a2, bad). Given the bool scratch ``flags``, bad names the first
    layer whose pre-activations hold a non-finite value; without it, or if
    all are finite, bad is None.
    """
    w, b = params.weights, params.biases
    bad = None
    a1 = _affine(x, w[0], b[0], a1)
    if flags is not None and not _all_finite(a1, flags):
        bad = "hidden layer 1"
    np.maximum(a1, 0.0, out=a1)
    a2 = _affine(a1, w[1], b[1], a2)
    if flags is not None and bad is None and not _all_finite(a2, flags):
        bad = "hidden layer 2"
    np.maximum(a2, 0.0, out=a2)
    return a2, bad


def head(params: NetParams, a2: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Eval-mode output layer: Q-values from layer-2 activations."""
    return _affine(a2, params.weights[2], params.biases[2], out)


class Workspace:
    """Activation and gradient buffers for batches of up to ``batch`` rows.

    A gradient step that reuses one allocates no [batch, width] arrays. The
    first blocks of the dropped-out layer 2's buffer and of the bool flags
    are the scratch of the L2 and ReLU factors once dW3 is computed, and the
    flags' first block holds the kept units while a mask is drawn. Until
    :meth:`loss_and_grads` runs, ``dz1`` and ``dz2`` are free for the
    caller's scratch.

    Use: :meth:`take`, then :meth:`train_q` or :meth:`loss_and_grads`.
    Returned arrays and gradients are views into the buffers, overwritten by
    the next call.
    """

    def __init__(self, config: NetConfig, batch: int):
        h1, h2 = config.hidden_dims
        self.config = config
        self.x = np.empty((batch, config.input_dim))
        self.a1 = np.empty((batch, h1))
        self.a2 = np.empty((batch, h2))
        self.q = np.empty((batch, len(Action)))
        self.dz1 = np.empty((batch, h1))
        self.dz2 = np.empty((batch, h2))
        self.dq = np.empty((batch, len(Action)))
        self._mask = np.empty((batch, h2))
        self._scratch = np.empty(batch * max(h1, h2))  # dropped-out a2, then L2 terms
        self._flags = np.empty(batch * max(h1, h2, len(Action)), dtype=bool)
        self.grads = NetParams.from_flat(np.empty(param_count(config)), config.layer_shapes)
        self.rows = 0  # train rows of the last take
        self.mask: np.ndarray | None = None  # dropout mask of the last train_q
        self._dropped: np.ndarray | None = None
        self._bad: str | None = None

    def _view(self, buf: np.ndarray, width: int) -> np.ndarray:
        return buf[: self.rows * width].reshape(self.rows, width)

    def _tile(self, buf: np.ndarray, width: int) -> np.ndarray:
        """The first block of ``buf`` as [rows, width]: one block's scratch."""
        rows = min(self.rows, TRAIN_BLOCK_ROWS)
        return buf[: rows * width].reshape(rows, width)

    def take(self, x: np.ndarray, a1: np.ndarray, a2: np.ndarray, index: np.ndarray,
             bad: str | None) -> None:
        """Train rows from an earlier layers-1–2 pass: row i is row ``index[i]``
        of ``x``, ``a1`` and ``a2``, and ``bad`` is that pass's report, raised
        by the next :meth:`loss_and_grads`. The gathers clip, so every index
        must already be in range."""
        n = len(index)
        for src, dst in ((x, self.x), (a1, self.a1), (a2, self.a2)):
            np.take(src, index, axis=0, out=dst[:n], mode="clip")
        self.rows = n
        self._bad = bad

    def train_q(self, params: NetParams, rng: np.random.Generator | None) -> np.ndarray:
        """Train-mode Q-values of the train rows: a fresh inverted-dropout mask
        over layer 2, drawn from ``rng`` block by block in row order (the same
        doubles as one whole-batch draw), then the output layer."""
        n, rate = self.rows, self.config.dropout_rate
        a2 = self.a2[:n]
        if rate > 0.0:
            if rng is None:
                raise ValueError("train-mode forward with dropout needs an rng")
            keep = 1.0 - rate
            scale = 1.0 / keep  # a kept unit's mask value, as 1.0 / keep
            self.mask = self._mask[:n]
            self._dropped = self._view(self._scratch, a2.shape[1])
            kept = self._tile(self._flags, a2.shape[1])
            for b in _row_blocks(n):
                mask = rng.random(out=self.mask[b])
                np.multiply(np.less(mask, keep, out=kept[: len(mask)]), scale, out=mask)
                np.multiply(a2[b], mask, out=self._dropped[b])
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
        """Loss and gradients for the train rows of the last :meth:`take`; see
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
            flat1, flat2 = a1.ravel(), a2.ravel()
            loss += l2 * float(np.dot(flat1, flat1) + np.dot(flat2, flat2)) / n
        if not math.isfinite(loss):
            raise NumericsError("non-finite loss")

        w, g = params.weights, self.grads
        dq = self.dq[:n]
        dq.fill(0.0)
        dq[rows, actions] = 2.0 * err / n
        np.matmul(self._dropped.T, dq, out=g.weights[2])
        np.sum(dq, axis=0, out=g.biases[2])
        dz2 = np.matmul(dq, w[2].T, out=self.dz2[:n])
        self._backward_blocks(dz2, a2, self.mask)
        np.matmul(a1.T, dz2, out=g.weights[1])
        np.sum(dz2, axis=0, out=g.biases[1])
        dz1 = np.matmul(dz2, w[1].T, out=self.dz1[:n])
        self._backward_blocks(dz1, a1, None)
        np.matmul(x.T, dz1, out=g.weights[0])
        np.sum(dz1, axis=0, out=g.biases[0])
        return loss, g

    def _backward_blocks(self, dz: np.ndarray, a: np.ndarray, mask: np.ndarray | None) -> None:
        """dL/dz of a hidden layer from dL/d(its output) in ``dz``, in place and
        block by block: times the dropout mask, plus the L2 term's 2*l2/n * a,
        times the ReLU mask a > 0."""
        n, width = a.shape
        l2 = self.config.l2_activity
        coef = 2.0 * l2 / n
        addend, live = self._tile(self._scratch, width), self._tile(self._flags, width)
        for b in _row_blocks(n):
            d, ab = dz[b], a[b]
            if mask is not None:
                d *= mask[b]
            if l2 > 0.0:
                d += np.multiply(ab, coef, out=addend[: len(d)])
            d *= np.greater(ab, 0.0, out=live[: len(d)])


def _as_states(states, config: NetConfig) -> np.ndarray:
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != config.input_dim:
        raise ValueError(
            f"states must be [batch, {config.input_dim}], got shape {states.shape}"
        )
    return states


def forward(params: NetParams, states: np.ndarray, config: NetConfig) -> np.ndarray:
    """Eval-mode Q-values for a batch of states, shape [batch, 3].

    Deterministic (no dropout): layers 1–2 run in blocks of
    ``EVAL_BLOCK_ROWS`` rows, then the output layer once over all rows. The
    train-mode pass is :func:`hidden`, :meth:`Workspace.take` and then
    :meth:`Workspace.train_q`.
    """
    states = _as_states(states, config)
    n = len(states)
    a1 = np.empty((min(n, EVAL_BLOCK_ROWS + 1), config.hidden_dims[0]))
    a2 = np.empty((n, config.hidden_dims[1]))
    # a 1-row product takes another BLAS path and can round differently,
    # so a last block of one row joins the block before it
    start = 0
    for stop in [*range(EVAL_BLOCK_ROWS, n - 1, EVAL_BLOCK_ROWS), n]:
        hidden(params, states[start:stop], a1[: stop - start], a2[start:stop])
        start = stop
    return head(params, a2)


def loss_and_grads(
    params: NetParams,
    states: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    config: NetConfig,
    rng: np.random.Generator | None = None,
) -> tuple[float, NetParams]:
    """Mean squared TD error plus activity penalty, with analytic gradients.

    ``actions`` selects the output unit each sample's error flows through.
    Dropout masks sampled in the forward are applied consistently backward;
    with ``config.dropout_rate`` 0 the loss is deterministic and ``rng`` may
    be None. Raises NumericsError naming the layer if anything goes non-finite.
    """
    if len(actions) == 0:
        raise ValueError("empty batch")
    # row-major like the frame rows the agent gathers: a strided or column-major
    # operand can take another matmul path and round differently
    states = np.ascontiguousarray(_as_states(states, config))
    n = len(states)
    ws = Workspace(config, n)
    # dz1 and dz2 are free until the loss runs: the pass goes there, not into
    # two more [n, width] arrays, and take copies it to the train rows
    a1, a2 = ws.dz1[:n], ws.dz2[:n]
    _, bad = hidden(params, states, a1, a2, ws._flags)
    ws.take(states, a1, a2, np.arange(n), bad)
    return ws.loss_and_grads(params, actions, targets, rng)


def adam_step(
    params: NetParams, grads: NetParams, state: AdamState, lr: float
) -> tuple[NetParams, AdamState]:
    """One bias-corrected Adam update on the flat vectors, in place: it writes
    ``params.flat``, ``state.m``, ``state.v`` and ``state.t`` and returns
    ``params`` and ``state``."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g^2 and
    # flat -= lr*(m/c1) / (sqrt(v/c2) + eps), one rounding at a time in the
    # order the formula implies, so the result matches it bit for bit
    g, m, v = grads.flat, state.m, state.v
    step = np.multiply(g, 1.0 - b1)
    m *= b1
    m += step
    denom = np.square(g)
    denom *= 1.0 - b2
    v *= b2
    v += denom
    np.divide(v, c2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, c1, out=step)
    step *= lr
    step /= denom
    params.flat -= step
    return params, state
