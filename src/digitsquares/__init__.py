"""Squares in digit-restricted subsets of finite fields.

Build F_{p^r}, enumerate digit boxes W(D_1, ..., D_r), count squares
exactly, and verify the explicit character-sum bounds and existence
thresholds numerically, with exact left-hand sides against certified
upper-bounded right-hand sides.
"""

from .boxes import (DigitBox, IntervalBox, enumerate_box, format_digit_set,
                    parse_digit_spec, sample_uniform, split_box)
from .bounds import (corC_rhs, thm1_hypothesis, thm1_rhs, thm1_threshold,
                     thm2_best, thm2_Cr, thm2_rhs, thm2_threshold,
                     thmA_heuristic_nontrivial, thmA_rhs, thmB_C, thmB_rhs)
from .characters import (CycloSum, MultChar, char_sum, field_generator,
                         make_char, quad_char_coords)
from .counting import (FractionEstimate, SquareCountReport, count_squares,
                       estimate_square_fraction)
from .errors import BudgetExceeded, HypothesisNotMet, InvariantViolation
from .fields import (FieldCtx, FieldElem, conjugates, element_degree,
                     frobenius, is_generator, make_field)
from .oracles import (DeltaReport, EnergyReport, LemmaReport, delta_H,
                      energy_count, lemma1_check, lemma1_pair_reports, lemma1_reports,
                      lemmaD_check, lemmaD_reports, lemmaE_check, lemmaE_reports,
                      subfield_partition)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "CycloSum", "DeltaReport", "DigitBox",
    "EnergyReport", "FieldCtx", "FieldElem", "FractionEstimate",
    "HypothesisNotMet", "IntervalBox", "InvariantViolation", "LemmaReport",
    "MultChar",
    "SquareCountReport", "char_sum", "conjugates", "corC_rhs",
    "count_squares", "delta_H", "element_degree", "energy_count",
    "enumerate_box", "estimate_square_fraction", "field_generator",
    "format_digit_set", "frobenius", "is_generator", "lemma1_check",
    "lemma1_pair_reports", "lemma1_reports", "lemmaD_check", "lemmaD_reports",
    "lemmaE_check", "lemmaE_reports",
    "make_char", "make_field",
    "parse_digit_spec", "quad_char_coords", "sample_uniform", "split_box",
    "subfield_partition",
    "thm1_hypothesis", "thm1_rhs", "thm1_threshold", "thm2_Cr", "thm2_best",
    "thm2_rhs", "thm2_threshold", "thmA_heuristic_nontrivial", "thmA_rhs",
    "thmB_C", "thmB_rhs",
]
