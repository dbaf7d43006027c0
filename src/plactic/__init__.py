"""Plactic monoid toolkit.

Schensted tableau calculus, the finite complete rewriting system over column
generators with its Gröbner–Shirshov basis export, and the transducer and
pair-automaton constructions witnessing biautomaticity, all verifiable by
exhaustive enumeration at small rank.
"""

from plactic.core import (
    Tableau,
    column_ge,
    dominates,
    insert,
    is_column,
    is_row,
    knuth_equivalent,
    knuth_relations,
    lds,
    lnds,
    tableau_of_word,
)
from plactic.errors import (
    NotInL,
    OutputError,
    ParseError,
    PlacticError,
    RankError,
    ResourceLimit,
    ViolationFound,
)
from plactic.rewriting import (
    RewritingSystem,
    check_termination,
    critical_pairs,
    decode_word,
    encode_word,
    generate_rules,
    gsb_export,
    normalize,
    product_columns,
    rewrite_step,
    word_less,
)

__version__ = "0.1.0"
