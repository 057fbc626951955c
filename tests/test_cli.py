import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scatcomp.cli import main
from scatcomp.verify import available_suites


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_complement_golden(capsys):
    code, out, _ = run(capsys, "complement", "ananas", "as")
    assert code == 0
    assert out == "anan\nanna\nnana\n"


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "scatcomp", *argv], env=env, capture_output=True, text=True
        )

    done = run_module("complement", "ananas", "as")
    assert (done.returncode, done.stdout) == (0, "anan\nanna\nnana\n")
    done = run_module("self-shuffle", "aabbaa", "aab")
    assert (done.returncode, done.stdout) == (1, "false\n")


def test_complement_counts_are_tab_separated(capsys):
    code, out, _ = run(capsys, "complement", "ababbaba", "ab", "--counts")
    assert code == 0
    assert out.splitlines() == [
        "ababba\t1",
        "abbaba\t3",
        "abbbaa\t1",
        "bababa\t2",
        "babbaa\t1",
    ]


def test_complement_json_envelope(capsys):
    code, out, _ = run(capsys, "--json", "complement", "ananas", "as")
    assert code == 0
    env = json.loads(out)
    assert env["command"] == "complement"
    assert env["inputs"]["w"] == "ananas"
    assert env["result"] == ["anan", "anna", "nana"]
    assert env["stats"]["set_size"] == 3
    assert env["stats"]["embeddings"] == 3
    assert env["stats"]["elapsed_ms"] >= 0


def test_json_flag_works_after_the_subcommand(capsys):
    code, out, _ = run(capsys, "complement", "ananas", "as", "--json")
    assert code == 0
    assert json.loads(out)["result"] == ["anan", "anna", "nana"]


def test_complement_rejects_non_factor(capsys):
    code, _, err = run(capsys, "complement", "ab", "ba")
    assert code == 2
    assert "scattered factor" in err


def test_complement_table(capsys):
    code, out, _ = run(capsys, "complement", "aba", "a")
    assert code == 0
    code, out, _ = run(capsys, "complement", "aba", "a", "--table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("P[1] {a} {ab} {aba}")
    assert len(lines) == 2


def test_embed_modes(capsys):
    code, out, _ = run(capsys, "embed", "peelwheel", "peel", "--count")
    assert (code, out) == (0, "7\n")
    code, out, _ = run(capsys, "embed", "ababa", "aba")
    assert code == 0
    assert out.splitlines() == ["1,2,3", "1,2,5", "1,4,5", "3,4,5"]
    code, out, _ = run(capsys, "embed", "ababbaba", "ab", "--group")
    assert code == 0
    assert out.splitlines()[0] == "ababba\t1"
    code, out, _ = run(capsys, "embed", "ab", "ba")
    assert code == 1
    assert out == ""


def test_embed_json_stats_count_the_embeddings(capsys):
    _, out, _ = run(capsys, "--json", "embed", "ababbaba", "ab", "--count")
    n = json.loads(out)["result"]
    assert n == 8
    for mode in ((), ("--group",)):
        code, out, _ = run(capsys, "--json", "embed", "ababbaba", "ab", *mode)
        assert code == 0
        assert json.loads(out)["stats"]["embeddings"] == n
    code, out, _ = run(capsys, "embed", "ab", "ba", "--json")
    assert code == 1
    assert json.loads(out)["stats"]["embeddings"] == 0


@pytest.mark.parametrize(
    "argv",
    [["complement", "aba", "a", "--counts", "--table"], ["embed", "aba", "a", "--count", "--group"]],
)
def test_conflicting_output_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_archfac_golden(capsys):
    code, out, _ = run(capsys, "archfac", "abcabc")
    assert code == 0
    assert out == "abc|abc\nrest=\nmodus=cc\niota=2\n"


def test_archfac_with_alphabet_codec(capsys):
    code, out, _ = run(capsys, "archfac", "bnbn", "--alphabet", "nb")
    assert code == 0
    assert out.splitlines() == ["bn|bn", "rest=", "modus=nn", "iota=2"]
    code, _, err = run(capsys, "archfac", "bnbn", "--alphabet", "xy")
    assert code == 2
    code, out, err = run(capsys, "archfac", "abc", "--alphabet", "")
    assert (code, out) == (2, "")
    assert "at least one letter" in err


def test_find_u_round_trip(tmp_path, capsys):
    f = tmp_path / "s.txt"
    f.write_text("anna\nanan\nnana\n")
    code, out, _ = run(capsys, "find-u", "ananas", "--set-file", str(f))
    assert (code, out) == (0, "as\n")
    code, out, _ = run(capsys, "find-u", "ananas", "--set-file", str(f), "--all")
    assert (code, out) == (0, "as\n")


def test_find_u_no_solution(tmp_path, capsys):
    f = tmp_path / "s.txt"
    f.write_text("a\nb\n")
    code, out, _ = run(capsys, "find-u", "ab", "--set-file", str(f))
    assert (code, out) == (1, "no solution\n")


def test_find_u_all_no_solution(tmp_path, capsys):
    f = tmp_path / "s.txt"
    f.write_text("a\nb\n")
    code, out, _ = run(capsys, "find-u", "ab", "--set-file", str(f), "--all")
    assert (code, out) == (1, "no solution\n")


def test_find_u_rejects_malformed_file_with_line_number(tmp_path, capsys):
    f = tmp_path / "s.txt"
    f.write_text("ab\nb a\n")
    code, _, err = run(capsys, "find-u", "abab", "--set-file", str(f))
    assert code == 2
    assert ":2:" in err


def test_set_file_header_fixes_the_codec(tmp_path, capsys):
    f = tmp_path / "s.txt"
    f.write_text("#alphabet:ban\nnana\n")
    code, out, _ = run(capsys, "find-u", "banana", "--set-file", str(f))
    assert (code, out) == (1, "no solution\n")


def test_exists_w_pairs(tmp_path, capsys):
    f = tmp_path / "z.tsv"
    f.write_text("ba\tab\nab\tab\n")
    code, out, _ = run(capsys, "exists-w", "--pairs", str(f))
    assert (code, out) == (0, "abab\n")


def test_exists_w_no_solution(tmp_path, capsys):
    f = tmp_path / "z.tsv"
    f.write_text("aa\taa\nbb\tbb\n")
    code, out, _ = run(capsys, "exists-w", "--pairs", str(f))
    assert (code, out) == (1, "no solution\n")


def test_exists_w_honours_the_budget(tmp_path, capsys, monkeypatch):
    # the frontier search pushes one state per letter of the shared head
    head = "abc" * 10
    f = tmp_path / "z.tsv"
    f.write_text(f"{head}ab\t\n{head}ba\t\n")
    monkeypatch.setenv("SCATCOMP_BUDGET", str(len(head) - 1))
    code, out, err = run(capsys, "exists-w", "--pairs", str(f))
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded: ")
    code, out, _ = run(capsys, "--json", "exists-w", "--pairs", str(f))
    env = json.loads(out)
    assert code == env["exit"] == 3 and env["error"]["type"] == "BudgetExceeded"
    monkeypatch.setenv("SCATCOMP_BUDGET", str(len(head)))
    code, out, _ = run(capsys, "exists-w", "--pairs", str(f))
    assert (code, out) == (1, "no solution\n")


def test_exists_w_rejects_malformed_pairs(tmp_path, capsys):
    f = tmp_path / "z.tsv"
    for content in ("ba ab\n", "a b\tab b\n"):  # no tab; whitespace inside a word
        f.write_text(content)
        code, _, err = run(capsys, "exists-w", "--pairs", str(f))
        assert code == 2
        assert ":1:" in err


def test_exists_w_rejects_a_file_of_blank_lines(tmp_path, capsys):
    f = tmp_path / "z.tsv"
    f.write_text("\n\n")
    code, out, err = run(capsys, "exists-w", "--pairs", str(f))
    assert (code, out) == (2, "")
    assert "no pairs" in err


def test_pair_file_header_counts_in_line_numbers(tmp_path, capsys):
    f = tmp_path / "z.tsv"
    f.write_text("#alphabet:ab\nba\tab\nba ab\n")
    code, _, err = run(capsys, "exists-w", "--pairs", str(f))
    assert code == 2
    assert ":3:" in err


def test_malformed_pair_line_is_a_syntax_error_naming_its_line(tmp_path, capsys):
    f = tmp_path / "z.tsv"
    for content, where in (
        (b"ba ab\n", ":1:"),  # no tab
        (b"#alphabet:ab\nb\ta\nb\tc\n", ":3:"),  # a letter outside the header
        (b"b\ta\n\xc3\ta\n", ":2:"),  # a byte outside ASCII
        (b"b\ta\x0bb\ta\nb\ta\n", ":1:"),  # \v does not end a line
        (b"#alphabet:aab\nb\ta\n", ":1:"),  # a malformed header
    ):
        f.write_bytes(content)
        code, out, err = run(capsys, "exists-w", "--pairs", str(f))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {f}{where} ")
        code, out, _ = run(capsys, "--json", "exists-w", "--pairs", str(f))
        env = json.loads(out)
        assert code == env["exit"] == 2 and env["error"]["type"] == "WordSyntaxError"


@pytest.mark.parametrize("kind", ["set", "pair"])
@pytest.mark.parametrize("lines, where", [
    ([b"ab", b"\xc3b"], ":2:"),  # a byte outside ASCII
    ([b"#alphabet:a b", b"ab"], ":1:"),  # whitespace among the header's letters
    ([b"#alphabet: ab", b"ab"], ":1:"),
    ([b"ab", b"a b"], ":2:"),  # stray whitespace in a line
    ([b"#alphabet:ab", b"ab", b"ac"], ":3:"),  # a letter outside the header
], ids=["byte", "header-space", "header-lead", "whitespace", "letter"])
def test_set_and_pair_files_hold_every_line_to_one_rule(tmp_path, capsys, kind, lines, where):
    f = tmp_path / "f.txt"
    tail = b"\tba" if kind == "pair" else b""
    f.write_bytes(b"".join(ln + (b"" if ln.startswith(b"#") else tail) + b"\n" for ln in lines))
    argv = ("find-u", "abab", "--set-file") if kind == "set" else ("exists-w", "--pairs")
    code, out, err = run(capsys, *argv, str(f))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {f}{where} ")


def test_solver_errors_name_the_files_letters(tmp_path, capsys):
    f = tmp_path / "s.txt"
    message = "word('yx') is not a scattered factor of word('xy')"
    for header in ("", "#alphabet:xy\n"):
        f.write_text(f"{header}yx\nxy\n")
        code, out, err = run(capsys, "find-u", "xy", "--set-file", str(f))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        code, out, _ = run(capsys, "--json", "find-u", "xy", "--set-file", str(f), "--all")
        assert json.loads(out) == {"error": {"type": "NotAScatteredFactor", "message": message}, "exit": 2}


def test_find_w(tmp_path, capsys, monkeypatch):
    f = tmp_path / "s.txt"
    f.write_text("ba\n")
    code, out, _ = run(capsys, "find-w", "ab", "--set-file", str(f))
    assert (code, out) == (0, "abba\n")
    f.write_text("a\nb\n")
    code, out, _ = run(capsys, "find-w", "ab", "--set-file", str(f))
    assert (code, out) == (1, "no solution\n")
    # the budget reaches the frontier search, not only a count of witnesses
    monkeypatch.setenv("SCATCOMP_BUDGET", "2")
    f.write_text("ba\n")
    code, out, _ = run(capsys, "--json", "find-w", "ab", "--set-file", str(f))
    env = json.loads(out)
    assert code == env["exit"] == 3 and env["error"]["type"] == "BudgetExceeded"


def test_shuffle_of_a_long_word_ends_cleanly(capsys, monkeypatch):
    # a^1200 with b: 1200 nested suffix cells, past the default recursion limit
    monkeypatch.setenv("SCATCOMP_BUDGET", "100000")
    code, _, err = run(capsys, "shuffle", "a" * 1200, "b", "--size-only")
    assert code in (0, 3)
    assert "Traceback" not in err


def test_shuffle_of_a_long_word_exceeds_the_default_budget(capsys, monkeypatch):
    monkeypatch.delenv("SCATCOMP_BUDGET", raising=False)
    code, _, err = run(capsys, "shuffle", "a" * 1200, "b", "--size-only")
    assert code == 3
    assert "Traceback" not in err


def test_shuffle(capsys):
    code, out, _ = run(capsys, "shuffle", "ban", "ana", "--size-only")
    assert (code, out) == (0, "11\n")
    code, out, _ = run(capsys, "shuffle", "abc", "abc")
    assert out.splitlines() == ["aabbcc", "aabcbc", "ababcc", "abacbc", "abcabc"]


def test_perfect_shuffle(capsys):
    code, out, _ = run(capsys, "perfect-shuffle", "bnn", "aaa")
    assert (code, out) == (0, "banana\n")
    code, _, err = run(capsys, "perfect-shuffle", "ab", "a")
    assert code == 2


def test_self_shuffle_exit_codes(capsys):
    code, out, _ = run(capsys, "self-shuffle", "abaabaaa", "abaa")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "self-shuffle", "aabbaa", "aab")
    assert (code, out) == (1, "false\n")


def test_budget_env_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("SCATCOMP_BUDGET", "2")
    code, _, err = run(capsys, "shuffle", "abc", "abc")
    assert code == 3
    assert "budget" in err
    for raw in ("zero", "0", "-5"):
        monkeypatch.setenv("SCATCOMP_BUDGET", raw)
        code, _, err = run(capsys, "shuffle", "abc", "abc")
        assert code == 2
        assert f"SCATCOMP_BUDGET must be a positive integer, got {raw!r}" in err


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "equivariance", "--seed", "7", "--max-len", "5")
    assert code == 0
    assert out.splitlines()[0].startswith("equivariance: pass")
    assert "1/1 suites passed" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "--json", "verify", "perfectshuffle", "--max-len", "6"
    )
    assert code == 0
    env = json.loads(out)
    assert env["result"][0]["name"] == "perfectshuffle"
    assert env["result"][0]["ok"] is True


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2
    assert "unknown suite" in err
    assert "available: all, " in err
    code, out, err = run(capsys, "--json", "verify", "nope")
    env = json.loads(out)
    assert code == env["exit"] == 2 and env["error"]["type"] == "ScatcompError"
    assert "available: all, " in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["selfshuffle-scan", "--max-len", "-3"], "--max-len"),
        (["complement-prefix", "--sigma", "0", "--max-len", "3"], "--sigma"),
        (["pairwise-disjoint", "--sigma", "0"], "--sigma"),
        (["equivariance", "--sigma", "1"], "--sigma"),
        (["equivariance", "--max-len", "0"], "--max-len"),
    ],
)
def test_verify_rejects_out_of_range_scales(capsys, argv, flag):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} must be at least")


def test_verify_all_matches_single_suites(capsys):
    def entries(*argv):
        code, out, _ = run(capsys, "--json", "verify", *argv, "--max-len", "4")
        result = json.loads(out)["result"]
        for entry in result:
            del entry["elapsed_s"]
        return code, result

    code, every = entries("all")
    assert code == 0
    assert [e["name"] for e in every] == available_suites()
    assert every == [entries(nm)[1][0] for nm in available_suites()]


def test_verify_reports_failures_with_exit_one(capsys):
    code, out, _ = run(capsys, "verify", "second-occurrence-greedy", "--max-len", "6")
    assert code == 1
    assert "FAIL" in out


def rendered(result):
    """The one rule that turns a --json result into plain output."""
    if result is None:
        lines = ["no solution"]
    elif isinstance(result, bool):
        lines = ["true" if result else "false"]
    elif isinstance(result, dict):
        lines = [f"{k}\t{v}" for k, v in result.items()]
    elif isinstance(result, list):
        lines = [",".join(map(str, x)) if isinstance(x, list) else str(x) for x in result]
    else:
        lines = [str(result)]
    return "".join(line + "\n" for line in lines)


def test_plain_and_json_results_agree(tmp_path, capsys):
    cases = [
        ("complement", "ananas", "as"),
        ("shuffle", "ban", "ana"),
        ("archfac", "abcabc"),
        ("embed", "ababa", "aba"),
    ]
    for argv in cases:
        _, plain, _ = run(capsys, *argv)
        _, enveloped, _ = run(capsys, "--json", *argv)
        result = json.loads(enveloped)["result"]
        if argv[0] == "embed":
            flat = [",".join(map(str, e)) for e in result]
            assert plain.splitlines() == flat
        elif argv[0] == "archfac":
            assert plain.splitlines()[0] == "|".join(result["arches"])
        else:
            assert plain.splitlines() == result
        if argv[0] != "archfac":
            assert plain == rendered(result)
    # the edge forms of the rule: empty words, empty lists, counts, bools, None
    solvable, unsolvable = tmp_path / "u.txt", tmp_path / "none.txt"
    solvable.write_text("ab\n")  # C(ab, u) = {ab} holds only for the empty u
    unsolvable.write_text("a\nb\n")
    edges = [
        (("complement", "aa", "aa"), 0, "\n", [""]),
        (("complement", "ab", "ab", "--counts"), 0, "\t1\n", {"": 1}),
        (("perfect-shuffle", "", ""), 0, "\n", ""),
        (("shuffle", "", ""), 0, "\n", [""]),
        (("embed", "ab", "ba"), 1, "", []),
        (("embed", "peelwheel", "peel", "--count"), 0, "7\n", 7),
        (("self-shuffle", "aabbaa", "aab"), 1, "false\n", False),
        (("find-u", "ab", "--set-file", str(solvable)), 0, "\n", ""),
        (("find-u", "ab", "--set-file", str(unsolvable)), 1, "no solution\n", None),
    ]
    for argv, code, plain, result in edges:
        assert run(capsys, *argv) == (code, plain, "")
        json_code, enveloped, _ = run(capsys, "--json", *argv)
        assert (json_code, json.loads(enveloped)["result"]) == (code, result)
        assert plain == rendered(result)


def test_unexpected_exception_exits_two_without_traceback(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("scatcomp.cli.shuffle_set", broken)
    code, out, err = run(capsys, "shuffle", "ab", "c")
    assert code == 2
    assert err.strip() == "internal error: RuntimeError: boom"
    assert "Traceback" not in out + err


def test_recursion_error_exits_three(monkeypatch, capsys):
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("scatcomp.cli.shuffle_set", too_deep)
    code, out, err = run(capsys, "--json", "shuffle", "ab", "c")
    assert code == 3
    assert "RecursionError" in err
    assert "Traceback" not in out + err


def test_json_errors_print_an_envelope(capsys, monkeypatch):
    code, out, err = run(capsys, "--json", "complement", "ananas", "zz")
    assert code == 2
    assert err.startswith("error: ")
    assert json.loads(out) == {
        "error": {"type": "NotAScatteredFactor",
                  "message": "word('zz') is not a scattered factor of word('ananas')"},
        "exit": 2,
    }
    monkeypatch.setenv("SCATCOMP_BUDGET", "5")
    code, out, err = run(capsys, "--json", "complement", "ananas", "as")
    assert code == 3
    assert err.startswith("budget exceeded: ")
    env = json.loads(out)
    assert env["exit"] == 3 and env["error"]["type"] == "BudgetExceeded"
    # without --json stdout stays empty
    code, out, _ = run(capsys, "complement", "ananas", "as")
    assert (code, out) == (3, "")
