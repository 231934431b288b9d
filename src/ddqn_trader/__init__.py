"""Double deep Q-network trading engine for a single asset.

Pipeline: daily price CSVs -> EWMA-normalized return features -> episodic
trading environment -> DDQN agent (from-scratch MLP, replay, target network)
-> training protocol with early stop -> single out-of-sample backtest scored
against a cost-aware dynamic-programming oracle.
"""

from .agent import (
    Agent,
    AgentConfig,
    EpsilonSchedule,
    ReplayBuffer,
    compute_targets,
    epsilon_at,
    select_action,
    train_step,
)
from .env import Action, COST_PRESETS, CostModel, EnvConfig, StepResult, TradingEnv
from .errors import CheckpointError, ConfigError, DataError, NumericsError
from .evaluation import (
    BacktestResult,
    PerformanceReport,
    annualized_metrics,
    emit_report,
    oracle_actions,
    run_backtest,
    score_actions,
)
from .market_data import (
    FeatureFrame,
    ModelId,
    PriceSeries,
    ReturnSeries,
    SplitSpec,
    VolSeries,
    build_features,
    ewma_vol,
    load_csv,
    log_returns,
    normalize,
    read_frame_csv,
    split,
    synth_generate,
    write_frame_csv,
)
from .net import AdamState, NetConfig, NetParams, adam_step, forward, init_params, loss_and_grads, param_count
from .training import (
    EpisodeRecord,
    TrainConfig,
    TrainLog,
    load_checkpoint,
    outperformance_ma,
    run_training,
    save_checkpoint,
)

__version__ = "0.1.0"
