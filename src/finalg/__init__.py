"""Closure engine and verification workbench for finite universal algebras."""

from .algebra import (
    App,
    ElementSet,
    FiniteAlgebra,
    Signature,
    Term,
    Var,
    constant,
    enumerate_term_images,
    eval_term,
    generate_subalgebra,
    make_algebra,
    product_square,
    stabilized_term_images,
    term_depth,
)
from .catalog import CatalogEntry, build_catalog
from .closure import (
    ClosureReport,
    NormalityResult,
    clot_closure,
    congruence_generated,
    is_top_normal,
    iterate,
    semicongruence_generated,
    top_deduction,
    top_induction,
)
from .fileformat import AlgebraFile, parse_algebra, parse_algebra_file, render_algebra
from .oracles import (
    SemiringView,
    check_jonsson_tarski_term,
    check_maltsev_term,
    check_subtractive_term,
    congruence_by_unionfind,
    is_subtractive_ideal,
    nat_mult_deduction_chain,
    semiring_ded_oracle,
    semiring_ideal_generated,
    semiring_ind_oracle,
    subsemigroup_generated,
    subtractive_closure_submonoid,
)
from .ranks import RankResult, algebra_rank, subsets_in_order
from .relations import (
    BinRel,
    compose,
    is_compatible,
    left_image,
    opposite,
    right_image,
)
from .suites import SUITE_NAMES, SuiteFailure, SuiteReport, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
