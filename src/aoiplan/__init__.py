"""Mission planning for UAV data collection under age-of-information goals.

The package covers the full pipeline: scenario documents, the age and
energy arithmetic, closed-form bounds, the fixed-order convex trajectory
solver, exhaustive order search, an episodic decision process over orders,
and learned planners (action-value network with an optional recurrent
state encoder).
"""

from .agents import (
    AutoencoderConfig,
    AutoencoderResult,
    DqnConfig,
    QAgent,
    ReplayMemory,
    ScheduleTask,
    Seq2SeqAutoencoder,
    StateRepr,
    autoencoder_search,
    autoencoder_train,
    collect_states,
    dqn_train,
    dqn_train_task,
    greedy_evaluate,
    load_agent,
    load_autoencoder,
    save_agent,
    save_autoencoder,
    weight_based_rollout,
)
from .bounds import (
    BoundReport,
    all_max_updates,
    bound_report,
    divisor_condition,
    lower_bound,
    max_updates,
    min_speed_upper_bound,
    per_count_floor,
    uniform_schedule,
    weight_guidance,
)
from .errors import (
    BudgetExceededError,
    CheckpointError,
    CoincidentTimesError,
    DivergenceError,
    EpisodeFinishedError,
    NonFiniteGradientError,
    ScenarioError,
    ScheduleError,
)
from .exhaustive import (
    EnumerationResult,
    enumerate_optimal,
    per_count_best,
    schedule_count,
    total_candidates,
)
from .mdp import ScheduleEnv, StateMatrix, Transition, build_state_matrix, episode_return
from .physics import (
    UpdateTimes,
    aoi_trace,
    average_age,
    channel_gain,
    energy_budget_constant,
    nwaoi,
    split_by_node,
    update_energy,
)
from .scenario import (
    ChannelParams,
    Node,
    Scenario,
    UavParams,
    generate_scenario,
    load_scenario,
    save_scenario,
)
from .solver import (
    CheckReport,
    MinSpeedSolution,
    TrajectorySolution,
    check_solution,
    solve_min_speed,
    solve_schedule,
)

__version__ = "0.1.0"
