"""Single-sample prophet inequality laboratory.

Policies that see one sample per reward distribution before an adversarial
arrival sequence, the greedy-like offline solutions they compete against, an
exact configuration-enumeration framework that verifies the supporting-event
bounds behind their competitive ratios, and posted-price mechanisms with lazy
sample reserves.
"""

from .core import (
    CapExceededError,
    Configuration,
    Distribution,
    ElementRealization,
    SamplePath,
    TaggedValue,
    assign_coins,
    build_sample_path,
    discrete,
    draw_realization,
    enumerate_configurations,
    exponential,
    point_mass,
    trial_rng,
    uniform,
)
from .feasibility import (
    GeneralMatching,
    Graphic,
    SimplePartition,
    Solution,
    Transversal,
    TruncatedPartition,
    exact_optimum,
    free_index,
    graphic_partition,
    greedy_on_path,
    greedy_prophet,
    is_independent,
    optimal_matching,
    optimal_transversal,
)
from .policies import (
    ArrivalOrder,
    PolicyTrace,
    adversarial_order,
    laminar_policy,
    matching_policy,
    rank1_policy,
    reduction_policy,
    run_policy,
    transversal_policy,
)
from .analysis import (
    GameState,
    LemmaReport,
    SupportReport,
    b_first_strategy,
    candidate_node,
    exhaustive_game_value,
    game_monte_carlo,
    play_coin_game,
    saturation_index,
    supporting_event_laminar,
    supporting_event_matching,
    supporting_event_transversal,
    verify_lemma,
)
from .instances import Instance, InstanceFormatError, load_instance, parse_instance
from .harness import (
    RatioReport,
    estimate_ratio,
    render_report,
    tight_example,
)
from .mechanism import (
    MechanismOutcome,
    MechanismReport,
    RegimeError,
    estimate_mechanism_ratios,
    optimal_posted_price_revenue,
    run_opm,
)

__version__ = "0.1.0"
