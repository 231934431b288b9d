"""The explicit-state reference that the frame path of ``train_step`` is tested against.

Training never builds a batch of explicit states: the replay buffer stores
frame rows, and ``agent._FramePass`` runs each network over the rows a batch
touches. The tests compare that path bit for bit with the plain one kept
here: a replay draw as explicit states and next states, and double-Q
targets from one eval forward of each network over the next states.
:func:`frame_targets` runs a hand-built batch through the frame path.
"""

from dataclasses import dataclass

import numpy as np

from ddqn_trader.agent import Agent, ReplayBuffer, _FramePass
from ddqn_trader.net import forward


@dataclass
class TransitionBatch:
    states: np.ndarray  # [batch, input_dim]
    actions: np.ndarray  # [batch]
    rewards: np.ndarray  # [batch]
    next_states: np.ndarray  # [batch, input_dim]
    dones: np.ndarray  # [batch] bool

    def __len__(self) -> int:
        return len(self.actions)


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
