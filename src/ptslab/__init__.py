"""A pure-type-system workbench: four calculi, one kernel."""

from .term import (App, CycleDetected, DEFAULT_FUEL, FuelExhausted, J, JRules,
                   Lam, NormalForm, Pi, PrimJ, ReductionTrace, Sort, Step,
                   Term, UNTYPED, Var, app, normal_form_of, normalize,
                   reducts, shift, step_normal_order, substitute)
from .systems import (Context, EMPTY, Judgment, LAMBDA_ARROW, LAMBDA_STAR,
                      LAMBDA_U_MINUS, SYSTEM_F, SYSTEM_F_J, SYSTEMS,
                      SystemSpec, check, convertible, infer,
                      subject_reduction_probe)
from .syntax import ParseError, SourceFile, parse, parse_term, pretty
from .erase import EraseError, erase

__all__ = [n for n in dir() if not n.startswith("_")]
