"""Input contract: every public call returns or raises a ScatcompError.

Each public function is called with every combination of values from a
fixed pool per parameter name.  The pools hold well-formed but invalid
inputs next to valid ones: non-positive and wide codes, non-int codes
(one equal to an int code), empty and mixed-length sets, empty and mismatched pair lists, bad
embeddings and budgets down to 0.  Classes, the file readers and the suite
runners are left out; their own tests cover them.
"""

import inspect
from itertools import product

import pytest

import scatcomp
from scatcomp import (
    NotAScatteredFactor,
    ScatcompError,
    Word,
    WordSyntaxError,
    complement_set,
    complement_set_with_multiplicity,
    find_u,
    word,
)

WORDS = [(), (1,), (1, 2), (0,), (-1, 1), (2**40, 1), (1.5,), (27,), (2.0,), (1, 2.0)]

POOLS = {
    "w": WORDS,
    "u": WORDS,
    "v": WORDS,
    "S": [[], [(1,), (1, 2)], [(3, 3)], [()]],
    "pairs": [[], [((1,), (2,)), ((1,), ())], [((1.5,), (1,))], [((1,), (2,))]],
    "e": [(0,), (2, 1), (1.5,), (1,)],
    "budget": [0, 1, 10**6],
    "k": [-1, 0, 1, 2],
    "alphabet": [(), (1, 2), (1.5,)],
    "s": ["", "ab", "aB", "a b"],
}

SKIP = {"read_word_file", "run_suite", "run_suites"}

FUNCTIONS = sorted(
    name
    for name in scatcomp.__all__
    if name not in SKIP
    and callable(getattr(scatcomp, name))
    and not inspect.isclass(getattr(scatcomp, name))
)


@pytest.mark.parametrize("name", FUNCTIONS)
def test_every_call_returns_or_raises_a_library_error(name):
    fn = getattr(scatcomp, name)
    params = inspect.signature(fn).parameters
    for args in product(*(POOLS[p] for p in params)):
        try:
            result = fn(*args)
            if inspect.isgenerator(result):
                list(result)
        except ScatcompError:
            pass
        except Exception as exc:
            pytest.fail(f"{name}{args!r} raised {type(exc).__name__}: {exc}")


def test_repr_asks_the_a_to_z_codec():
    assert repr(Word((1.5,))) == "Word([1.5])"
    assert repr(Word(())) == "Word([])"
    assert repr(word("ab")) == "word('ab')"
    assert repr(Word((27, 1))) == "Word([27, 1])"


def test_error_about_a_non_int_letter_does_not_recurse():
    with pytest.raises(NotAScatteredFactor):
        complement_set((), (1.5,))


@pytest.mark.parametrize(
    "fn, args",
    [
        (complement_set, ((1, 2), (2.0,))),
        (complement_set_with_multiplicity, ((1, 2), (2.0,))),
        (find_u, ((1, 2), [(2.0,)])),
    ],
)
def test_a_float_letter_equal_to_a_code_is_a_syntax_error(fn, args):
    with pytest.raises(WordSyntaxError, match=r"2\.0") as err:
        fn(*args)
    assert "(1, 2, 2.0)" not in str(err.value)
