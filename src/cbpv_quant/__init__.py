"""Quantitative behavioural reasoning for call-by-push-value programs with
algebraic effects: effect-tree evaluation, quantitative modal formulas, and
bounded behavioural-preorder checking."""

from .config import RunConfig, Runtime, build_runtime, load_config, parse_config
from .equivalence import (
    Distinguished,
    NoDistinctionFound,
    RefinesUpTo,
    Relation,
    compare,
    find_distinguishing_formula,
    relator_check,
    right_set,
)
from .formulas import Formula, parse_formula, print_formula
from .lattice import (
    BoolSpace,
    CostSpace,
    StateSetSpace,
    StateTableSpace,
    StoreConfig,
    UnitIntervalSpace,
)
from .machine import Config, eval_tree, machine_step, reduce
from .modality import (
    Interval,
    ModalitySpec,
    denote_at_depth,
    make_error_lift,
    make_nondet_variants,
)
from .parser import parse_program, parse_value
from .satisfaction import SatResult, Satisfier, hoare, scheduler_mix, sigma_mu
from .suites import FormulaSuite, Pools, enumerate_basic_formulas
from .syntax import (
    ComTerm,
    EffectSignature,
    ValTerm,
    numeral,
    numeral_value,
    substitute,
)
from .trees import EffectTree, Leaf, Node, Unknown, eta, leaf_substitute, map_leaves, mu, tree_leq
from .typecheck import Context, EMPTY, infer_type

__version__ = "0.1.0"
