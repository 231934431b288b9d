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
whose one call, :meth:`Workspace.loss_and_grads`, is a gradient step: it
gathers the train rows of an earlier layers-1–2 pass (:func:`hidden`, which
raises on a non-finite value where it finds one), draws the dropout mask
and runs the output layer, the loss and the backward pass. It holds four
[batch, width] float64 buffers (a1, a2, the dropout mask and the dropped-out
layer 2), so a gradient step that keeps its workspace allocates no
[batch, width] arrays. Each hidden layer's dL/dz goes into one of them once
its contents are spent: dL/dz2 over the dropped-out layer 2 after dW3 has
read it, dL/dz1 over a2 after the layer-2 backward factors have.

The gradient step's elementwise chains (the dropout draw and mask, the dropped
layer 2, and the dropout, L2 and ReLU factors of dL/dz2 and dL/dz1) run over
row blocks of ``TRAIN_BLOCK_ROWS``, so each chain reads a block from memory
once and not once per operation. Every value is computed by the same
operations as in one whole-batch pass, so the gradients and the dropout
generator's state are the same bit for bit. The products stay whole-batch:
the three weight gradients and the bias sums reduce over rows, and
dL/dz2 @ W2^T loses OpenBLAS's second thread when blocked. Every network
pass runs over :func:`padded` rows, the extra results thrown away: OpenBLAS
rounds an output-layer row alike wherever it falls in a whole 4-row group,
and hidden rows alike at 2 rows or more (``tests/test_blas_rounding.py``
pins both), so a row's Q-values do not depend on the rows around it.

The gradient step calls ndarray methods and ufuncs (``a.take``,
``np.add.reduce``, ``a.argmax``) rather than numpy's Python-level wrappers
(``np.take``, ``np.sum``, ``np.mean``, ``np.argmax``). A wrapper runs the same
C loop behind one to four Python frames, and at batch 256 those frames are a
measurable share of a step.
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
# memory. The output layer runs once over all rows.
EVAL_BLOCK_ROWS = 128

# Rows per block of the gradient step's elementwise passes. A 512-row block of
# a 64-wide float64 array is 256 KiB, so the chain of passes over one block
# runs in a core's L2, where a [4096, 64] array (2 MiB) streams from L3.
TRAIN_BLOCK_ROWS = 512


def padded(n: int) -> int:
    """Rows of a network pass over ``n`` rows: ``n`` up to a multiple of 4,
    the last row repeated."""
    return n + -n % 4


def _row_blocks(n: int) -> list[slice]:
    """Slices of ``TRAIN_BLOCK_ROWS`` rows covering rows 0..n-1; the last is partial."""
    return [slice(s, min(s + TRAIN_BLOCK_ROWS, n)) for s in range(0, n, TRAIN_BLOCK_ROWS)]


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
    """Per-layer weight matrices [in, out] and bias vectors [out] over one vector.

    ``flat`` holds W1, b1, W2, b2, W3, b3 back to back for the [in, out]
    ``shapes``; ``weights[i]`` and ``biases[i]`` are reshaped views into it.
    Writing through a view writes ``flat``, and one vector op on ``flat``
    updates every layer.
    """

    def __init__(self, flat: np.ndarray, shapes):
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
        return NetParams(self.flat.copy(), self.shapes)


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
    params = NetParams(np.zeros(param_count(config)), config.layer_shapes)
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
    """np.isfinite(arr).all(), written into the bool scratch ``flags``. The
    ufunc is the one .all() calls, without the Python frame of numpy's
    ``_methods._all``."""
    ok = np.isfinite(arr, out=flags[: arr.size].reshape(arr.shape))
    return bool(np.logical_and.reduce(ok, axis=None))


def hidden(params: NetParams, x: np.ndarray, a1=None, a2=None, flags=None) -> np.ndarray:
    """Layers 1–2, each ReLU applied in place on its pre-activation (a > 0
    exactly where z > 0, so the backward pass reads the mask off a).

    Returns a2. Given the bool scratch ``flags``, raises NumericsError naming
    the first layer whose pre-activations hold a non-finite value.
    """
    a = x
    for i, out in enumerate((a1, a2)):
        a = _affine(a, params.weights[i], params.biases[i], out)
        if flags is not None and not _all_finite(a, flags):
            raise NumericsError(f"non-finite values in hidden layer {i + 1}")
        np.maximum(a, 0.0, out=a)
    return a


def head(params: NetParams, a2: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Eval-mode output layer: Q-values from layer-2 activations."""
    return _affine(a2, params.weights[2], params.biases[2], out)


class Workspace:
    """Activation and gradient buffers for batches of up to ``batch`` rows.

    A gradient step that reuses one allocates no [batch, width] arrays, and
    the workspace holds four of them: ``a1``, ``a2``, the dropout mask and
    the dropped-out layer 2. The two hidden gradients reuse spent buffers:
    dL/dz2 goes over the dropped-out layer 2 once dW3 has read it, and
    dL/dz1 over ``a2`` (sized for the wider hidden layer) once the layer-2
    backward factors have read it. The L2 addend has its own one-block tile,
    and the bool flags' first block holds the ReLU factor, or the kept units
    while a mask is drawn.

    :meth:`loss_and_grads` is one gradient step. The gradients it returns
    are views into the buffers, overwritten by the next call, and ``mask``
    holds the call's dropout mask until the next.
    """

    def __init__(self, config: NetConfig, batch: int):
        batch = padded(batch)  # the output layer runs over padded rows
        h1, h2 = config.hidden_dims
        self.config = config
        self.x = np.empty((batch, config.input_dim))
        self.a1 = np.empty((batch, h1))
        self._a2 = np.empty(batch * max(h1, h2))  # a2, then dL/dz1
        self.a2 = self._a2[: batch * h2].reshape(batch, h2)
        self.q = np.empty((batch, len(Action)))
        self.dq = np.empty((batch, len(Action)))
        self._mask = np.empty((batch, h2))
        self._scratch = np.empty(batch * max(h1, h2))  # dropped-out a2, then dL/dz2
        self._addend = np.empty(min(batch, TRAIN_BLOCK_ROWS) * max(h1, h2))  # L2 terms
        self._flags = np.empty(batch * max(h1, h2, len(Action)), dtype=bool)
        self.grads = NetParams(np.empty(param_count(config)), config.layer_shapes)
        self.row_ids = np.arange(batch)  # 0..batch-1, to pick one Q-value per row
        self.mask: np.ndarray | None = None  # dropout mask of the last call

    @staticmethod
    def _view(buf: np.ndarray, rows: int, width: int) -> np.ndarray:
        return buf[: rows * width].reshape(rows, width)

    def loss_and_grads(
        self,
        params: NetParams,
        x: np.ndarray,
        a1: np.ndarray,
        a2: np.ndarray,
        index: np.ndarray,
        actions: np.ndarray,
        targets: np.ndarray,
        rng: np.random.Generator | None,
    ) -> tuple[float, NetParams]:
        """Loss and gradients of one gradient step; see :func:`loss_and_grads`.
        The gradients are ``self.grads``.

        The train rows come from an earlier layers-1–2 pass, which
        :func:`hidden` checked for non-finite values: row i is row
        ``index[i]`` of ``x``, ``a1`` and ``a2``. The gathers clip, so every
        index must already be in range. Layer 2 gets a fresh inverted-dropout
        mask, drawn from ``rng`` block by block in row order (the same doubles
        as one whole-batch draw), and the output layer runs over
        :func:`padded` rows.
        """
        actions = np.asarray(actions, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.float64)
        n = len(index)
        if len(actions) != n or len(targets) != n:
            raise ValueError(f"need {n} actions and targets, got {len(actions)} and {len(targets)}")
        for src, dst in ((x, self.x), (a1, self.a1), (a2, self.a2)):
            src.take(index, axis=0, out=dst[:n], mode="clip")
        x, a1, a2 = self.x[:n], self.a1[:n], self.a2[:n]
        if not _all_finite(targets, self._flags):
            raise NumericsError("non-finite targets")

        rate, p, width = self.config.dropout_rate, padded(n), a2.shape[1]
        self.mask, dropped = None, self.a2[:p]  # without dropout, layer 2 itself
        if rate > 0.0:
            if rng is None:
                raise ValueError("train-mode forward with dropout needs an rng")
            keep = 1.0 - rate
            scale = 1.0 / keep  # a kept unit's mask value, as 1.0 / keep
            self.mask = self._mask[:n]
            dropped = self._view(self._scratch, p, width)
            kept = self._view(self._flags, min(n, TRAIN_BLOCK_ROWS), width)
            for b in _row_blocks(n):
                mask = rng.random(out=self.mask[b])
                np.multiply(np.less(mask, keep, out=kept[: len(mask)]), scale, out=mask)
                np.multiply(a2[b], mask, out=dropped[b])
        dropped[n:] = dropped[n - 1 : n]
        q = head(params, dropped, self.q[:p])[:n]
        if not _all_finite(q, self._flags):
            raise NumericsError("non-finite values in output layer")

        rows = self.row_ids[:n]
        err = q[rows, actions] - targets
        l2 = self.config.l2_activity
        loss = float(np.add.reduce(err * err) / n)  # np.mean(err**2), bit for bit
        if l2 > 0.0:
            flat1, flat2 = a1.ravel(), a2.ravel()
            loss += l2 * float(flat1.dot(flat1) + flat2.dot(flat2)) / n
        if not math.isfinite(loss):
            raise NumericsError("non-finite loss")

        w, g = params.weights, self.grads
        dq = self.dq[:n]
        dq.fill(0.0)
        dq[rows, actions] = 2.0 * err / n
        np.matmul(dropped[:n].T, dq, out=g.weights[2])
        np.add.reduce(dq, axis=0, out=g.biases[2])
        # the dropped-out layer 2 is spent: dL/dz2 goes over it
        dz2 = np.matmul(dq, w[2].T, out=self._view(self._scratch, n, width))
        self._backward_blocks(dz2, a2, self.mask)
        np.matmul(a1.T, dz2, out=g.weights[1])
        np.add.reduce(dz2, axis=0, out=g.biases[1])
        # and so is a2: dL/dz1 goes over it
        dz1 = np.matmul(dz2, w[1].T, out=self._view(self._a2, n, a1.shape[1]))
        self._backward_blocks(dz1, a1, None)
        np.matmul(x.T, dz1, out=g.weights[0])
        np.add.reduce(dz1, axis=0, out=g.biases[0])
        return loss, g

    def _backward_blocks(self, dz: np.ndarray, a: np.ndarray, mask: np.ndarray | None) -> None:
        """dL/dz of a hidden layer from dL/d(its output) in ``dz``, in place and
        block by block: times the dropout mask, plus the L2 term's 2*l2/n * a,
        times the ReLU mask a > 0."""
        n, width = a.shape
        l2 = self.config.l2_activity
        coef = 2.0 * l2 / n
        tile = min(n, TRAIN_BLOCK_ROWS)
        addend, live = self._view(self._addend, tile, width), self._view(self._flags, tile, width)
        for b in _row_blocks(n):
            d, ab = dz[b], a[b]
            if mask is not None:
                d *= mask[b]
            if l2 > 0.0:
                d += np.multiply(ab, coef, out=addend[: len(d)])
            d *= np.greater(ab, 0.0, out=live[: len(d)])


def _padded_states(states, config: NetConfig) -> tuple[int, np.ndarray]:
    """The row count of ``states``, and a row-major copy of them over
    :func:`padded` rows."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != config.input_dim:
        raise ValueError(
            f"states must be [batch, {config.input_dim}], got shape {states.shape}"
        )
    n = len(states)
    return n, states.take(np.minimum(np.arange(padded(n)), n - 1), axis=0)


def forward(params: NetParams, states: np.ndarray, config: NetConfig) -> np.ndarray:
    """Eval-mode Q-values for a batch of states, shape [batch, 3].

    Deterministic (no dropout): over the :func:`padded` states, layers 1–2
    run in blocks of ``EVAL_BLOCK_ROWS`` rows, then the output layer once
    over all rows. The train-mode pass is :func:`hidden`, then
    :meth:`Workspace.loss_and_grads`.
    """
    n, x = _padded_states(states, config)
    a1 = np.empty((min(len(x), EVAL_BLOCK_ROWS), config.hidden_dims[0]))
    a2 = np.empty((len(x), config.hidden_dims[1]))
    for start in range(0, len(x), EVAL_BLOCK_ROWS):
        block = x[start : start + EVAL_BLOCK_ROWS]
        hidden(params, block, a1[: len(block)], a2[start : start + len(block)])
    return head(params, a2)[:n]


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
    n, x = _padded_states(states, config)
    p = len(x)
    ws = Workspace(config, n)
    # the mask and the dropped-out layer 2 are free until the step gathers its
    # train rows, which it does first: the pass goes there, not into two more
    # [n, width] arrays
    a1, a2 = ws._scratch[: p * config.hidden_dims[0]].reshape(p, -1), ws._mask[:p]
    hidden(params, x, a1, a2, ws._flags)
    return ws.loss_and_grads(params, x, a1, a2, np.arange(n), actions, targets, rng)


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
