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

import math
import mmap
from dataclasses import dataclass

import numpy as np

from . import net
from .env import Action
from .errors import ConfigError, NumericsError
from .net import AdamState, NetConfig, NetParams
from .seeding import rng_streams


class ReplayBuffer:
    """Fixed-capacity ring of transitions over one states matrix.

    The env's observations are rows of its frame, so a transition is stored as
    its row with the action, reward and done flag: 25 bytes whatever the state
    width. Its state is ``states[row]`` and its next state ``states[row + 1]``.
    The write cursor wraps once the buffer is full, overwriting the oldest
    entry. The arrays are mapped at full capacity once; a page never written
    is never made resident.
    """

    def __init__(self, capacity: int, states: np.ndarray):
        if capacity < 1:
            raise ConfigError(f"replay capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.states = np.asarray(states, dtype=np.float64)
        self.size = 0
        self._cursor = 0
        # Pages straight from the OS, not from malloc: freeing a malloc'd array
        # this large raises glibc's mmap threshold to its size, and the
        # process's later arrays then stay on the heap (a batch-4096 training
        # with a 1M-entry buffer read 4 MB more peak RSS).
        self._rows, self._actions, self._rewards, self._dones = (
            np.frombuffer(mmap.mmap(-1, self.capacity * np.dtype(t).itemsize), dtype=t)
            for t in (np.intp, np.intp, np.float64, bool))

    def __len__(self) -> int:
        return self.size

    def store(self, row: int, action: int, reward: float, done: bool) -> None:
        """Write one transition at the cursor, overwriting the oldest once full.

        ``row`` must leave room for the next state: it lies in [0, F - 2] for
        a states matrix of F rows.
        """
        if not 0 <= row <= len(self.states) - 2:
            raise ValueError(f"row {row} outside [0, {len(self.states) - 2}]: "
                             f"a transition needs its row and the next")
        i = self._cursor
        self._rows[i] = row
        self._actions[i] = action
        self._rewards[i] = reward
        self._dones[i] = done
        self._cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def draw(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """Slots of a uniform sample with replacement across occupied slots."""
        if self.size < batch_size:
            raise ValueError(f"need {batch_size} stored transitions, have {self.size}")
        return rng.integers(0, self.size, size=batch_size)

    def take(self, slots: np.ndarray, rows: np.ndarray, actions: np.ndarray,
             rewards: np.ndarray, dones: np.ndarray) -> None:
        """Copy the transitions at ``slots`` (from :meth:`draw`) into the arrays given."""
        for src, dst in ((self._rows, rows), (self._actions, actions),
                         (self._rewards, rewards), (self._dones, dones)):
            src.take(slots, out=dst, mode="clip")


@dataclass(frozen=True)
class EpsilonSchedule:
    """Exploration probability: linear from ``eps_start`` down to a knee, then
    exponential decay reaching ``eps_end`` exactly at ``total_episodes``."""

    total_episodes: int = 1000
    linear_until: int | None = None  # None -> max(1, total_episodes // 2)
    eps_start: float = 1.0
    eps_end: float = 0.01
    eps_knee: float = 0.1

    def __post_init__(self):
        if self.total_episodes < 1:
            raise ConfigError(f"total_episodes must be >= 1, got {self.total_episodes}")
        if self.linear_until is None:
            object.__setattr__(self, "linear_until", max(1, self.total_episodes // 2))
        if not 1 <= self.linear_until <= self.total_episodes:
            raise ConfigError(
                f"linear_until must be in [1, {self.total_episodes}], got {self.linear_until}"
            )
        if not 0 < self.eps_end <= self.eps_knee <= self.eps_start <= 1:
            raise ConfigError(
                f"need 0 < eps_end <= eps_knee <= eps_start <= 1, got "
                f"{self.eps_end} / {self.eps_knee} / {self.eps_start}"
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


# The largest replay buffer a config may ask for: 1,000x the paper's 1M, and
# 25 GB of address space at 25 bytes a transition. A larger value is a typo,
# and past the range of ``ssize_t`` it would reach ``mmap`` as an OverflowError.
MAX_REPLAY_CAPACITY = 10**9


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
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.target_sync_every < 1:
            raise ConfigError(f"target_sync_every must be >= 1, got {self.target_sync_every}")
        if self.target_sync_unit not in ("steps", "episodes"):
            raise ConfigError(
                f"target_sync_unit must be 'steps' or 'episodes', got {self.target_sync_unit!r}"
            )
        if not 1 <= self.replay_capacity <= MAX_REPLAY_CAPACITY:
            raise ConfigError(f"replay_capacity must be in [1, {MAX_REPLAY_CAPACITY}], "
                              f"got {self.replay_capacity}")
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
    """Online/target network pair with its optimizer state. The replay buffer
    belongs to the training run, which passes it to :func:`train_step`."""

    def __init__(
        self,
        config: AgentConfig,
        online: NetParams,
        target: NetParams,
        adam: AdamState,
        replay_rng: np.random.Generator,
        dropout_rng: np.random.Generator,
        gradient_steps: int = 0,
    ):
        self.config = config
        self.online = online
        self.target = target
        self.adam = adam
        self.gradient_steps = gradient_steps
        self._replay_rng = replay_rng
        self._dropout_rng = dropout_rng
        self._frame: _FramePass | None = None  # allocated by the first gradient step

    @classmethod
    def create(cls, config: AgentConfig, seed: int = 0) -> "Agent":
        """Fresh agent on the init, replay and dropout streams of ``seed``."""
        rngs = rng_streams(seed)
        online = net.init_params(config.net, rngs["init"])
        return cls(
            config=config,
            online=online,
            target=online.clone(),
            adam=net.init_adam(config.net),
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
    Raises NumericsError if a greedy Q-value is non-finite.
    """
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("epsilon > 0 requires an rng")
        if rng.random() < epsilon:
            return Action(int(rng.integers(0, len(Action))))
    obs = np.asarray(observation, dtype=np.float64).reshape(1, -1)
    q = net.forward(agent.online, obs, agent.config.net)[0]
    if not np.isfinite(q).all():
        raise NumericsError("non-finite Q-values for the greedy action")
    return Action(int(q.argmax()))


class _FramePass:
    """Buffers of the gradient step over one states matrix of F rows.

    A batch of B transitions touches at most min(F, 2B) rows, each
    transition's row and the next; the online network runs once over them,
    padded to :func:`net.padded` rows as an eval forward's passes are. The
    target's Q-values are ``cache``, one :func:`net.forward` over the whole
    frame ([F, 3]) with the weights copied to ``cache_weights``. It is
    computed at the first step and again whenever the target's weights
    change (a sync, a new target object, an edit in place), and the frame
    must not change while it is kept. A row of a padded pass rounds alike
    wherever it falls, so the targets equal an eval forward's over the B
    next states, bit for bit.
    """

    def __init__(self, config: NetConfig, states: np.ndarray, batch: int):
        f, k = len(states), min(len(states), 2 * batch)
        n = net.padded(k)  # rows of the longest online pass
        h1, h2 = config.hidden_dims
        self.states = states
        self.ws = net.Workspace(config, batch)
        self.touched = np.zeros(f, dtype=bool)
        self.slot = np.zeros(f, dtype=np.intp)  # touched row -> its row in x, a1, a2
        self.order = np.arange(k)
        self.src = np.empty(n, dtype=np.intp)  # frame rows of the padded online pass
        self.x, self.a1, self.a2, self.pass_q = (
            np.empty((n, width)) for width in (config.input_dim, h1, h2, len(Action)))
        self.flags = np.empty(n * max(h1, h2), dtype=bool)
        self.cache = None  # the target's Q-values over the frame, from the first step on
        self.cache_weights = np.empty(net.param_count(config))
        self.rows, self.next_rows, self.index, self.next_index, self.actions, self.best = (
            np.empty(batch, dtype=np.intp) for _ in range(6))
        self.rewards, self.dones = np.empty(batch), np.empty(batch, dtype=bool)
        self.q = np.empty((batch, len(Action)))

    def targets(self, online: NetParams, target: NetParams, gamma: float) -> np.ndarray:
        """Double-Q targets of the batch loaded into ``rows``, ``rewards`` and
        ``dones``. Leaves the online pass in ``x``, ``a1`` and ``a2`` for the
        gradient step and each transition's row of it in ``index``. Raises
        NumericsError if the online pass's hidden layers are non-finite."""
        np.add(self.rows, 1, out=self.next_rows)
        self.touched.fill(False)
        self.touched[self.rows] = True
        self.touched[self.next_rows] = True
        touched_rows = self.touched.nonzero()[0]
        m, n = len(touched_rows), net.padded(len(touched_rows))
        self.slot[touched_rows] = self.order[:m]
        src = self.src[:n]
        src[:m] = touched_rows
        src[m:] = touched_rows[-1]
        self.states.take(src, axis=0, out=self.x[:n], mode="clip")
        net.hidden(online, self.x[:n], self.a1[:n], self.a2[:n], self.flags)
        q = net.head(online, self.a2[:n], self.pass_q[:n])
        self.slot.take(self.rows, out=self.index, mode="clip")
        self.slot.take(self.next_rows, out=self.next_index, mode="clip")
        q.take(self.next_index, axis=0, out=self.q, mode="clip")
        self.q.argmax(axis=1, out=self.best)
        # bit for bit, so weights that differ only in a zero's sign count as
        # changed; the ufunc is what .all() calls, without its Python frame
        same = self.cache_weights.view(np.int64) == target.flat.view(np.int64)
        if self.cache is None or not np.logical_and.reduce(same, axis=None):
            self.cache = net.forward(target, self.states, self.ws.config)
            np.copyto(self.cache_weights, target.flat)
        self.cache.take(self.next_rows, axis=0, out=self.q, mode="clip")
        bootstrapped = self.q[self.ws.row_ids[: len(self.rows)], self.best]
        return self.rewards + gamma * bootstrapped * ~self.dones


def sync_target(agent: Agent) -> None:
    np.copyto(agent.target.flat, agent.online.flat)


def train_step(agent: Agent, buffer: ReplayBuffer) -> float | None:
    """One gradient update from a sample of ``buffer``; skipped until warmup fills.

    Returns the loss, or None when skipped. The target network syncs whenever
    the gradient-step counter hits a multiple of ``target_sync_every`` (in the
    default per-step unit).
    """
    cfg = agent.config
    if buffer.size < cfg.effective_warmup or buffer.size < cfg.batch_size:
        return None
    slots = buffer.draw(cfg.batch_size, agent._replay_rng)
    frame = agent._frame
    if frame is None or frame.states is not buffer.states:
        frame = agent._frame = _FramePass(cfg.net, buffer.states, cfg.batch_size)
    buffer.take(slots, frame.rows, frame.actions, frame.rewards, frame.dones)
    targets = frame.targets(agent.online, agent.target, cfg.gamma)
    loss, grads = frame.ws.loss_and_grads(agent.online, frame.x, frame.a1, frame.a2, frame.index,
                                          frame.actions, targets, agent._dropout_rng)
    net.adam_step(agent.online, grads, agent.adam, cfg.lr)
    agent.gradient_steps += 1
    if cfg.target_sync_unit == "steps" and agent.gradient_steps % cfg.target_sync_every == 0:
        sync_target(agent)
    return loss
