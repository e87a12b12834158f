"""Dynamic programming on finite scenario trees for nonconvex stochastic
optimization, with financial models of illiquid markets and non-concave
utilities.

The general measurable setting is restricted to a finite scenario tree:
conditional expectation becomes an exact weighted sum, every adapted
quantity is a per-node value, and the growth ("horizon") conditions that
guarantee existence of minimizers become finitely checkable.
"""

from .tree import (
    AdaptedSequence,
    Node,
    ScenarioTree,
    TreeFormatError,
    load_tree,
    tree_from_records,
    validate,
)
from .efun import (
    Affine,
    AffinePrecompose,
    ExtFun,
    Homog1D,
    HorizonConditionViolated,
    IndicatorBox,
    IndicatorPolyCone,
    PartialMin,
    PowerCost,
    Sampled1D,
    SShapedDisutility,
    Sum,
    UnsupportedStructure,
    from_spec,
    horizon,
    horizon_numeric,
    horizon_with_flags,
    is_nonnegative_on,
    to_spec,
)
from .dp import (
    BudgetExceeded,
    GridTooCoarse,
    NumericFailure,
    Policy,
    Problem,
    SearchBoxExhausted,
    SolveConfig,
    SolveResult,
    StateMap,
    ValueTable,
    backward_solve,
    brute_force,
    evaluate_strategy,
    expectation_chain,
    history_problem,
    verify_optimality,
)
from .cones import (
    CheckReport,
    DirectionSet,
    InexactNullSpace,
    ModelNotFrictionless,
    NotASubspace,
    check_horizon_positivity,
    no_arbitrage_lp,
    null_space,
    project_problem,
)
from .market import (
    Frictionless,
    InvalidModel,
    MarketModel,
    PowerIlliquidity,
    SampledUtility,
    SShapedUtility,
    ValidationReport,
    build_problem_cash,
    build_problem_terminal,
    liquidation_value,
    load_market,
    market_from_dict,
    market_to_dict,
)
from .market import validate as validate_market

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
