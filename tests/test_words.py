import pytest

from scatcomp.errors import WordSyntaxError
from scatcomp.words import (
    Alphabet,
    Word,
    condensed,
    contains_letter_square,
    is_scattered_factor,
    is_square_free,
    read_word_file,
    text,
    word,
)


def test_word_text_roundtrip():
    assert word("banana") == Word((2, 1, 14, 1, 14, 1))
    assert text(word("banana")) == "banana"
    assert word("") == Word()
    assert text(()) == ""


def test_text_rejects_codes_outside_a_to_z():
    for w in [(27,), (0,), (-1,), (1, 27), (0, 1), (-97,), (1, "a")]:
        with pytest.raises(WordSyntaxError):
            text(w)


def test_word_rejects_non_letters():
    with pytest.raises(WordSyntaxError):
        word("ab1")
    with pytest.raises(WordSyntaxError):
        word("aB")


def test_positions_are_one_based():
    w = word("abc")
    assert w.at(1) == 1
    assert w.at(3) == 3
    with pytest.raises(IndexError):
        w.at(0)
    with pytest.raises(IndexError):
        w.at(4)
    assert w.sub(2, 3) == word("bc")
    assert w.sub(2, 1) == word("")
    assert w.sub(4, 3) == word("")
    with pytest.raises(IndexError):
        w.sub(2, 10)
    with pytest.raises(IndexError):
        w.sub(5, 9)
    with pytest.raises(IndexError):
        w.sub(2, -1)


def test_word_concat_and_power():
    assert word("ab") + word("ba") == word("abba")
    assert word("ab") * 3 == word("ababab")


def test_words_order_lexicographically():
    assert sorted([word("ba"), word("ab"), word("aab")]) == [
        word("aab"),
        word("ab"),
        word("ba"),
    ]


def test_alphabet_codec():
    alpha = Alphabet("nab")
    assert alpha.encode("ban") == Word((3, 2, 1))
    assert alpha.decode((3, 2, 1)) == "ban"
    assert alpha.size == 3
    assert "n" in alpha and "z" not in alpha
    assert repr(Alphabet("ab")) == "Alphabet('ab')"
    with pytest.raises(WordSyntaxError):
        alpha.encode("banz")
    with pytest.raises(WordSyntaxError):
        alpha.decode((4,))
    with pytest.raises(WordSyntaxError):
        alpha.decode((1, "a"))


def test_alphabet_rejects_duplicates_and_empties():
    with pytest.raises(WordSyntaxError):
        Alphabet("aa")
    with pytest.raises(WordSyntaxError):
        Alphabet("")
    with pytest.raises(WordSyntaxError):
        Alphabet(["ab"])


def test_alphabet_inferred_sorts_letters():
    alpha = Alphabet.inferred(["ban", "nab"])
    assert alpha.letters == ("a", "b", "n")
    assert Alphabet.inferred([""]).letters == ("a",)


def test_alphabets_with_equal_letters_are_equal():
    assert Alphabet("ab") == Alphabet("ab")
    assert Alphabet("ab") != Alphabet("ba")
    assert Alphabet("ab") != ("a", "b")
    assert hash(Alphabet("ab")) == hash(Alphabet("ab"))
    assert len({Alphabet("ab"), Alphabet("ab"), Alphabet("ba")}) == 2


def test_is_scattered_factor():
    assert is_scattered_factor(word("as"), word("ananas"))
    assert is_scattered_factor(word(""), word("ab"))
    assert not is_scattered_factor(word("sa"), word("ananas"))
    assert not is_scattered_factor(word("ab"), word(""))


def test_condensed():
    assert condensed(word("aabba")) == word("aba")
    assert condensed(word("")) == word("")
    assert condensed(condensed(word("aabbccbb"))) == condensed(word("aabbccbb"))


def test_letter_square_and_square_free():
    assert contains_letter_square(word("abba"))
    assert not contains_letter_square(word("abab"))
    assert is_square_free(word("abcacb"))
    assert not is_square_free(word("abab"))
    assert not is_square_free(word("aa"))


def test_read_word_file_plain(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("ba\nab\n")
    words, alpha = read_word_file(p)
    assert words == [word("ba"), word("ab")]
    assert alpha.letters == ("a", "b")


def test_read_word_file_of_only_the_empty_word(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("\n")
    words, alpha = read_word_file(p)
    assert (words, alpha.letters) == ([Word()], ("a",))
    assert alpha == Alphabet("a")


def test_read_word_file_header_codec(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("#alphabet:ban\nnab\n")
    words, alpha = read_word_file(p)
    assert alpha.letters == ("b", "a", "n")
    assert words == [Word((3, 2, 1))]


def test_read_word_file_reports_line_numbers(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("#alphabet:ab\nab\nb a\n")
    with pytest.raises(WordSyntaxError, match=r":3:"):
        read_word_file(p)


def test_read_word_file_names_the_line_of_a_bad_letter_or_byte(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("#alphabet:ab\nab\nac\n")
    with pytest.raises(WordSyntaxError, match=rf"^{p}:3: letter 'c' not in alphabet 'ab'$"):
        read_word_file(p)
    p.write_bytes(b"ab\nab\xc3\xa9\n")
    with pytest.raises(WordSyntaxError, match=rf"^{p}:2: byte 0xc3 is not ASCII$"):
        read_word_file(p)


def test_read_word_file_empty_line_is_empty_word(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("ab\n\nba\n")
    words, alpha = read_word_file(p)
    assert words == [word("ab"), Word(), word("ba")]
    assert alpha == Alphabet("ab")  # inferred: the file has no header


def test_lines_end_at_newlines_only(tmp_path):
    # \v, \f and \x1c-\x1e break lines for str.splitlines but not in a file
    p = tmp_path / "s.txt"
    p.write_bytes(b"ab\vba\nzz\n")
    with pytest.raises(WordSyntaxError, match=rf"^{p}:1: stray whitespace in 'ab\\x0bba'$"):
        read_word_file(p)
    p.write_text("#alphabet:ab\rab\r\nb\n")
    assert read_word_file(p) == ([word("ab"), word("b")], Alphabet("ab"))
    for ch in "\f\x1c\x1d\x1e":
        p.write_text(f"#alphabet:ab\rab{ch}\r\nb\n")
        with pytest.raises(WordSyntaxError, match=rf"^{p}:2: stray whitespace in 'ab\\x{ord(ch):02x}'$"):
            read_word_file(p)


def test_malformed_header_names_path_and_line(tmp_path):
    p = tmp_path / "s.txt"
    for header, message in (
        ("#alphabet:", "alphabet must contain at least one letter"),
        ("#alphabet:aab", "duplicate letters in alphabet 'aab'"),
    ):
        p.write_text(f"{header}\nab\n")
        with pytest.raises(WordSyntaxError, match=rf"^{p}:1: {message}$"):
            read_word_file(p)
