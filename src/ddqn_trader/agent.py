"""The learning core: epsilon-greedy policy, ring-buffer replay, double-Q targets.

The target for a sampled transition selects the next-state action with the
online network and evaluates it with the delayed target network:

    y = r + gamma * Q_target(s', argmax_a Q_online(s', a))      (not done)
    y = r                                                        (done)

which degenerates to the plain max-form target whenever the two networks carry
identical weights. The target network is refreshed from the online one every
``target_sync_every`` gradient steps (or episodes, if configured).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import net
from .env import Action
from .errors import ConfigError
from .net import AdamState, NetConfig, NetParams
from .seeding import rng_streams


@dataclass
class TransitionBatch:
    states: np.ndarray  # [batch, input_dim]
    actions: np.ndarray  # [batch]
    rewards: np.ndarray  # [batch]
    next_states: np.ndarray  # [batch, input_dim]
    dones: np.ndarray  # [batch] bool

    def __len__(self) -> int:
        return len(self.actions)


class ReplayBuffer:
    """Fixed-capacity ring of transitions stored as parallel arrays.

    The write cursor wraps once the buffer is full, overwriting the oldest
    entry. Storage grows lazily toward capacity so tiny test buffers stay tiny.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"replay capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.size = 0
        self._cursor = 0
        self._states: np.ndarray | None = None
        self._actions: np.ndarray | None = None
        self._rewards: np.ndarray | None = None
        self._next_states: np.ndarray | None = None
        self._dones: np.ndarray | None = None

    def __len__(self) -> int:
        return self.size

    def _ensure_room(self, width: int) -> None:
        if self._states is None:
            alloc = min(self.capacity, 1024)
            self._states = np.empty((alloc, width))
            self._actions = np.empty(alloc, dtype=np.int64)
            self._rewards = np.empty(alloc)
            self._next_states = np.empty((alloc, width))
            self._dones = np.empty(alloc, dtype=bool)
            return
        if self._states.shape[1] != width:
            raise ValueError(
                f"transition width {width} != buffer width {self._states.shape[1]}"
            )
        if self.size == len(self._actions) and self.size < self.capacity:
            grow = min(self.capacity, 2 * len(self._actions))

            def _grown(old: np.ndarray) -> np.ndarray:
                fresh = np.empty((grow,) + old.shape[1:], dtype=old.dtype)
                fresh[: len(old)] = old
                return fresh

            self._states = _grown(self._states)
            self._actions = _grown(self._actions)
            self._rewards = _grown(self._rewards)
            self._next_states = _grown(self._next_states)
            self._dones = _grown(self._dones)

    def store(self, state: np.ndarray, action: int, reward: float,
              next_state: np.ndarray, done: bool) -> None:
        """Write one transition at the cursor, overwriting the oldest once full."""
        self._ensure_room(len(state))
        i = self._cursor
        self._states[i] = state
        self._actions[i] = action
        self._rewards[i] = reward
        self._next_states[i] = next_state
        self._dones[i] = done
        self._cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> TransitionBatch:
        """Uniform sample with replacement across occupied slots."""
        if self.size < batch_size:
            raise ValueError(f"need {batch_size} stored transitions, have {self.size}")
        idx = rng.integers(0, self.size, size=batch_size)
        return TransitionBatch(
            states=self._states[idx],
            actions=self._actions[idx],
            rewards=self._rewards[idx],
            next_states=self._next_states[idx],
            dones=self._dones[idx],
        )


@dataclass(frozen=True)
class EpsilonSchedule:
    """Exploration probability: linear from 1.0 down to a knee, then
    exponential decay reaching ``eps_end`` exactly at ``total_episodes``."""

    total_episodes: int
    linear_until: int
    eps_start: float = 1.0
    eps_end: float = 0.01
    eps_knee: float = 0.1

    def __post_init__(self):
        if self.total_episodes < 1:
            raise ConfigError(f"total_episodes must be >= 1, got {self.total_episodes}")
        if not 1 <= self.linear_until <= self.total_episodes:
            raise ConfigError(
                f"linear_until must be in [1, {self.total_episodes}], got {self.linear_until}"
            )
        if not self.eps_start >= self.eps_knee >= self.eps_end > 0:
            raise ConfigError(
                f"need eps_start >= eps_knee >= eps_end > 0, got "
                f"{self.eps_start} / {self.eps_knee} / {self.eps_end}"
            )


def epsilon_at(schedule: EpsilonSchedule, episode: int) -> float:
    if not 0 <= episode <= schedule.total_episodes:
        raise ValueError(f"episode {episode} outside [0, {schedule.total_episodes}]")
    if episode >= schedule.total_episodes:
        return schedule.eps_end
    if episode < schedule.linear_until:
        frac = episode / schedule.linear_until
        eps = schedule.eps_start + (schedule.eps_knee - schedule.eps_start) * frac
    else:
        span = schedule.total_episodes - schedule.linear_until
        factor = (schedule.eps_end / schedule.eps_knee) ** (1.0 / span)
        eps = schedule.eps_knee * factor ** (episode - schedule.linear_until)
    return min(schedule.eps_start, max(schedule.eps_end, eps))


@dataclass(frozen=True)
class AgentConfig:
    net: NetConfig
    gamma: float = 0.9
    lr: float = 1e-4
    batch_size: int = 4096
    target_sync_every: int = 100
    target_sync_unit: str = "steps"  # "steps" (gradient steps) or "episodes"
    replay_capacity: int = 1_000_000
    warmup: int | None = None  # None -> one full batch

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.target_sync_every < 1:
            raise ConfigError(f"target_sync_every must be >= 1, got {self.target_sync_every}")
        if self.target_sync_unit not in ("steps", "episodes"):
            raise ConfigError(
                f"target_sync_unit must be 'steps' or 'episodes', got {self.target_sync_unit!r}"
            )
        if not 1 <= self.batch_size <= self.replay_capacity:
            raise ConfigError(
                f"batch_size {self.batch_size} must be in [1, replay_capacity "
                f"{self.replay_capacity}]"
            )
        if self.warmup is not None and self.warmup < 0:
            raise ConfigError(f"warmup must be >= 0, got {self.warmup}")

    @property
    def effective_warmup(self) -> int:
        return self.batch_size if self.warmup is None else self.warmup


class Agent:
    """Online/target network pair with its replay buffer and optimizer state."""

    def __init__(
        self,
        config: AgentConfig,
        online: NetParams,
        target: NetParams,
        adam: AdamState,
        buffer: ReplayBuffer,
        replay_rng: np.random.Generator,
        dropout_rng: np.random.Generator,
        gradient_steps: int = 0,
    ):
        self.config = config
        self.online = online
        self.target = target
        self.adam = adam
        self.buffer = buffer
        self.gradient_steps = gradient_steps
        self._replay_rng = replay_rng
        self._dropout_rng = dropout_rng
        self._workspace: net.Workspace | None = None  # allocated by the first gradient step

    @classmethod
    def create(
        cls,
        config: AgentConfig,
        rngs: dict[str, np.random.Generator] | None = None,
        seed: int = 0,
    ) -> "Agent":
        """Fresh agent; ``rngs`` may supply the init/replay/dropout streams."""
        if rngs is None:
            rngs = rng_streams(seed)
        online = net.init_params(config.net, rngs["init"])
        return cls(
            config=config,
            online=online,
            target=online.clone(),
            adam=net.init_adam(config.net),
            buffer=ReplayBuffer(config.replay_capacity),
            replay_rng=rngs["replay"],
            dropout_rng=rngs["dropout"],
        )


def select_action(
    agent: Agent,
    observation: np.ndarray,
    epsilon: float,
    rng: np.random.Generator | None = None,
) -> Action:
    """Uniform random action with probability epsilon, else greedy.

    Greedy breaks ties toward the lowest action index and runs the online
    network in eval mode, so it is invariant under shifting all Q-values.
    """
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("epsilon > 0 requires an rng")
        if rng.random() < epsilon:
            return Action(int(rng.integers(0, 3)))
    obs = np.asarray(observation, dtype=np.float64).reshape(1, -1)
    q, _ = net.forward(agent.online, obs, agent.config.net, mode="eval")
    return Action(int(np.argmax(q[0])))


def compute_targets(
    agent: Agent, batch: TransitionBatch, workspace: net.Workspace | None = None
) -> np.ndarray:
    """Double-Q targets for a batch, all forwards in eval mode.

    The online network runs layers 1–2 once over [states; next_states], so
    afterwards ``workspace`` (stacked, sized for the batch) also holds the
    hidden activations of ``batch.states`` that the loss needs.
    """
    cfg = agent.config
    n = len(batch)
    ws = workspace if workspace is not None else net.Workspace(cfg.net, n, stacked=True)
    ws.hidden(agent.online, batch.states, batch.next_states)
    best_next = np.argmax(ws.head(agent.online, n, 2 * n), axis=1)
    q_target_next = ws.target_q(agent.target, batch.next_states)
    bootstrapped = q_target_next[np.arange(n), best_next]
    return batch.rewards + cfg.gamma * bootstrapped * ~batch.dones


def sync_target(agent: Agent) -> None:
    np.copyto(agent.target.flat, agent.online.flat)


def train_step(agent: Agent) -> float | None:
    """One gradient update from a replay sample; skipped until warmup fills.

    Returns the loss, or None when skipped. The target network syncs whenever
    the gradient-step counter hits a multiple of ``target_sync_every`` (in the
    default per-step unit).
    """
    cfg = agent.config
    if agent.buffer.size < cfg.effective_warmup or agent.buffer.size < cfg.batch_size:
        return None
    batch = agent.buffer.sample(cfg.batch_size, agent._replay_rng)
    if agent._workspace is None:
        agent._workspace = net.Workspace(cfg.net, cfg.batch_size, stacked=True)
    targets = compute_targets(agent, batch, agent._workspace)
    loss, grads = agent._workspace.loss_and_grads(
        agent.online, batch.actions, targets, agent._dropout_rng
    )
    agent.online, agent.adam = net.adam_step(agent.online, grads, agent.adam, cfg.lr)
    agent.gradient_steps += 1
    if cfg.target_sync_unit == "steps" and agent.gradient_steps % cfg.target_sync_every == 0:
        sync_target(agent)
    return loss
