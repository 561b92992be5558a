"""Quantitative behavioural reasoning for call-by-push-value programs with
algebraic effects: effect-tree evaluation, quantitative modal formulas, and
bounded behavioural-preorder checking."""

from .config import RunConfig, build_runtime
from .formulas import parse_formula
from .machine import eval_tree
from .parser import parse_program
from .satisfaction import Satisfier

__version__ = "0.1.0"
