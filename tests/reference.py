"""The explicit-state reference that the frame path of ``train_step`` is tested against.

Training never builds a batch of explicit states: the replay buffer stores
frame rows, and ``agent._FramePass`` runs the online network over the rows a
batch touches and keeps the target network's Q-values over the frame, one
eval forward, until its weights change. The tests compare that path bit for
bit with the plain one kept here: a replay draw as explicit states and next
states, and double-Q targets from one eval forward of each network over the
next states.
:func:`frame_targets` runs a hand-built batch through the frame path.

:func:`reference_loss_and_grads` is the gradient step as one whole-batch
pass per operation, which ``net.Workspace.loss_and_grads`` runs in row
blocks, and :func:`load_train_rows` makes that call's train-row arguments
from explicit states. The non-finite checks of the layers-1–2 pass belong
to ``net.hidden``, which raises before that call.

:func:`params_from_layers` builds a hand-set network from per-layer arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

from ddqn_trader.agent import Agent, ReplayBuffer, _FramePass
from ddqn_trader.errors import NumericsError
from ddqn_trader.net import NetConfig, NetParams, forward, hidden, padded


@dataclass
class TransitionBatch:
    states: np.ndarray  # [batch, input_dim]
    actions: np.ndarray  # [batch]
    rewards: np.ndarray  # [batch]
    next_states: np.ndarray  # [batch, input_dim]
    dones: np.ndarray  # [batch] bool

    def __len__(self) -> int:
        return len(self.actions)


def params_from_layers(weights, biases) -> NetParams:
    """``NetParams`` over a float64 copy of per-layer weights [in, out] and
    biases [out], laid out as W1, b1, W2, b2, W3, b3."""
    blocks = [np.ravel(a) for pair in zip(weights, biases) for a in pair]
    return NetParams(np.concatenate(blocks, dtype=np.float64), [np.shape(w) for w in weights])


def taken(buffer: ReplayBuffer, slots: np.ndarray):
    """``buffer.take`` of ``slots`` into fresh arrays: (rows, actions, rewards, dones)."""
    n = len(slots)
    rows, actions = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    rewards, dones = np.empty(n), np.empty(n, dtype=bool)
    buffer.take(slots, rows, actions, rewards, dones)
    return rows, actions, rewards, dones


def sample(buffer: ReplayBuffer, batch_size: int, rng: np.random.Generator) -> TransitionBatch:
    """A ``buffer.draw`` as a batch of explicit states and next states."""
    rows, actions, rewards, dones = taken(buffer, buffer.draw(batch_size, rng))
    return TransitionBatch(buffer.states[rows], actions, rewards, buffer.states[rows + 1], dones)


def compute_targets(agent: Agent, batch: TransitionBatch) -> np.ndarray:
    """Double-Q targets of explicit states: the online network picks the
    next action, the target network values it, all forwards in eval mode."""
    cfg = agent.config
    q_online = forward(agent.online, batch.next_states, cfg.net)
    q_target = forward(agent.target, batch.next_states, cfg.net)
    best_next = np.argmax(q_online, axis=1)
    bootstrapped = q_target[np.arange(len(batch)), best_next]
    return batch.rewards + cfg.gamma * bootstrapped * ~batch.dones


def frame_targets(agent: Agent, batch: TransitionBatch) -> np.ndarray:
    """Targets of ``batch`` from the path ``train_step`` runs.

    The batch's states and next states become the even and odd rows of a
    frame, each transition is stored as its even row, and the batch is
    loaded into a ``_FramePass`` as ``train_step`` loads it.
    """
    n = len(batch)
    states = np.empty((2 * n, batch.states.shape[1]))
    states[0::2], states[1::2] = batch.states, batch.next_states
    buffer = ReplayBuffer(n, states)
    for i in range(n):
        buffer.store(2 * i, batch.actions[i], batch.rewards[i], batch.dones[i])
    frame = _FramePass(agent.config.net, states, n)
    buffer.take(np.arange(n), frame.rows, frame.actions, frame.rewards, frame.dones)
    return frame.targets(agent.online, agent.target, agent.config.gamma)


def padded_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` with the last repeated up to ``net.padded(len(rows))`` rows,
    as every network pass runs."""
    return np.concatenate([rows, np.repeat(rows[-1:], padded(len(rows)) - len(rows), axis=0)])


def reference_loss_and_grads(params: NetParams, x: np.ndarray, a1: np.ndarray, a2: np.ndarray,
                             actions: np.ndarray, targets: np.ndarray,
                             config: NetConfig, rng: np.random.Generator | None):
    """``Workspace.loss_and_grads`` over the train rows ``x``, ``a1``, ``a2``
    of a layers-1–2 pass, each elementwise operation over the whole batch at
    once and in fresh arrays, and the output layer over padded rows. Returns
    (loss, grads, mask); mask is None without dropout."""
    n, rate, l2 = len(x), config.dropout_rate, config.l2_activity
    w, b = params.weights, params.biases
    actions = np.asarray(actions, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.float64)
    if len(actions) != n or len(targets) != n:
        raise ValueError(f"need {n} actions and targets, got {len(actions)} and {len(targets)}")
    if not np.all(np.isfinite(targets)):
        raise NumericsError("non-finite targets")
    mask = None
    dropped = a2
    if rate > 0.0:
        if rng is None:
            raise ValueError("train-mode forward with dropout needs an rng")
        keep = 1.0 - rate
        mask = rng.random(size=a2.shape)
        np.less(mask, keep, out=mask)
        mask /= keep
        dropped = a2 * mask
    q = padded_rows(dropped) @ w[2]
    q += b[2]
    q = q[:n]
    if not np.isfinite(q).all():
        raise NumericsError("non-finite values in output layer")

    rows = np.arange(n)
    err = q[rows, actions] - targets
    loss = float(np.mean(err**2))
    if l2 > 0.0:
        loss += l2 * float(np.sum(np.square(a1)) + np.sum(np.square(a2))) / n
    if not math.isfinite(loss):
        raise NumericsError("non-finite loss")

    gw, gb = [None] * 3, [None] * 3
    dq = np.zeros((n, len(b[2])))
    dq[rows, actions] = 2.0 * err / n
    gw[2], gb[2] = dropped.T @ dq, np.sum(dq, axis=0)
    dz2 = dq @ w[2].T
    if mask is not None:
        dz2 *= mask
    if l2 > 0.0:
        dz2 += a2 * (2.0 * l2 / n)
    dz2 *= a2 > 0.0
    gw[1], gb[1] = a1.T @ dz2, np.sum(dz2, axis=0)
    dz1 = dz2 @ w[1].T
    if l2 > 0.0:
        dz1 += a1 * (2.0 * l2 / n)
    dz1 *= a1 > 0.0
    gw[0], gb[0] = x.T @ dz1, np.sum(dz1, axis=0)
    return loss, params_from_layers(gw, gb), mask


def load_train_rows(config: NetConfig, params: NetParams, states: np.ndarray):
    """Layers 1–2 of ``params`` over ``states`` as the train-row arguments
    of ``Workspace.loss_and_grads``, every row in order, as
    ``net.loss_and_grads`` passes them: (x, a1, a2, index)."""
    n, (h1, h2) = len(states), config.hidden_dims
    a1, a2 = np.empty((n, h1)), np.empty((n, h2))
    hidden(params, states, a1, a2, check=True)
    return states, a1, a2, np.arange(n)
