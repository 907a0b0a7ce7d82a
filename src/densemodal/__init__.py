"""Decision procedures for modal logics of dense and weakly dense frames.

The names imported here are the public surface.  Solver internals stay in
their modules: `densemodal.kde`, `densemodal.kdeab`, `densemodal.saturation`
and `densemodal.windows`.
"""

from .errors import InvariantError
from .formula import (
    And,
    Atom,
    BIMODAL,
    Box,
    FALSUM,
    Falsum,
    Formula,
    MOD_A,
    MOD_B,
    Not,
    ParseError,
    TOP,
    UNIMODAL,
    all_formulas,
    atom_names,
    box_inverse,
    csf,
    degree,
    diamond,
    implies,
    is_unimodal,
    lor,
    measures,
    parse,
    render,
    set_degree,
    set_size,
    sf,
    size,
    sort_key,
)
from .kdeab import SAT, SatResult, UNSAT, sat_set
from .kde import FREE_BIT_LIMIT, KdeResult, counter_model, kde_sat, kde_solve, kde_valid
from .oracle import (
    ALL,
    DENSE,
    KripkeModel,
    WEAKLY_DENSE,
    bounded_search,
    is_dense,
    is_weakly_dense,
    k_valid,
    model_check,
    model_from_json,
    model_json_text,
    truth_set,
    verify,
)
from .translate import fresh_atom, relativize

__version__ = "0.1.0"
