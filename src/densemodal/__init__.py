"""Decision procedures for modal logics of dense and weakly dense frames."""

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
from .saturation import Saturation, is_saturation_of, saturation_family, saturations
from .kdeab import (
    ChainWitness,
    SAT,
    SatResult,
    SatStats,
    Trace,
    UNSAT,
    extract_model,
    sat_saturation,
    sat_set,
    sat_window_chain,
)
from .kde import (
    FREE_BIT_LIMIT,
    KdeResult,
    ProfileFrame,
    SubformulaIndex,
    build_index,
    counter_model,
    fixpoint,
    frame_model,
    initial_frame,
    kde_sat,
    kde_solve,
    kde_valid,
    profiles,
    refine_frame,
)
from .windows import Window, continuations, initial_windows, is_window, window_to_json
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
