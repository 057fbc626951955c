"""Complement scattered factors of words.

Core objects: C(w, u), the set of words obtained by deleting an embedding of
u from w, with per-word embedding multiplicities; the inverse problems of
recovering u from (w, S) and of building a host word from (u, S); shuffle and
arch-factorization helpers; brute-force oracles and exhaustive verification
suites over small alphabets.
"""

from .arch import ArchFactorization, arch_factorize, universality_index
from .complement import (
    ComplementSet,
    PrefixTable,
    complement_set,
    complement_set_with_multiplicity,
    complement_table,
)
from .disjoint_embed import exists_word, find_w, reconstruct_word
from .embeddings import (
    complement_of_embedding,
    count_embeddings,
    enumerate_embeddings,
    group_equal_complements,
)
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    LengthMismatch,
    NotAScatteredFactor,
    ScatcompError,
    WordSyntaxError,
)
from .inverse_u import candidate_set, find_u, find_u_all
from .oracle import brute_all_scattered_factors, brute_complement_set, brute_exists_word
from .shuffle import (
    first_second_occurrence,
    has_superword_complement,
    in_shuffle,
    is_self_shuffle_complement,
    perfect_shuffle,
    self_shuffle_by_second_occurrence,
    shuffle_set,
)
from .verify import SuiteReport, available_suites, run_suite, run_suites
from .words import (
    Alphabet,
    Word,
    condensed,
    contains_letter_square,
    is_scattered_factor,
    is_square_free,
    letters,
    read_word_file,
    text,
    word,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "ArchFactorization",
    "BudgetExceeded",
    "ComplementSet",
    "DEFAULT_BUDGET",
    "LengthMismatch",
    "NotAScatteredFactor",
    "PrefixTable",
    "ScatcompError",
    "SuiteReport",
    "Word",
    "WordSyntaxError",
    "arch_factorize",
    "available_suites",
    "brute_all_scattered_factors",
    "brute_complement_set",
    "brute_exists_word",
    "candidate_set",
    "complement_of_embedding",
    "complement_set",
    "complement_set_with_multiplicity",
    "complement_table",
    "condensed",
    "contains_letter_square",
    "count_embeddings",
    "enumerate_embeddings",
    "exists_word",
    "find_u",
    "find_u_all",
    "find_w",
    "first_second_occurrence",
    "group_equal_complements",
    "has_superword_complement",
    "in_shuffle",
    "is_scattered_factor",
    "is_self_shuffle_complement",
    "is_square_free",
    "letters",
    "perfect_shuffle",
    "read_word_file",
    "reconstruct_word",
    "run_suite",
    "run_suites",
    "self_shuffle_by_second_occurrence",
    "shuffle_set",
    "text",
    "universality_index",
    "word",
]
