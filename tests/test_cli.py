import functools
import hashlib
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from plactic import multipliers, rewriting, verify
from plactic.cli import build_parser, main
from plactic.core import Tableau, iter_tableaux, knuth_class, tableau_of_word
from plactic.errors import ParseError, PlacticError, ResourceLimit, ViolationFound

import oracles

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tableau_worked_example(capsys):
    code, out, _ = run(capsys, "tableau", "--rank", "6", "6345511235")
    assert code == 0
    assert out == "6\n3455\n11235\n6314152535\n"


def test_tableau_empty_word(capsys):
    code, out, _ = run(capsys, "tableau", "--rank", "2", "")
    assert code == 0
    assert out == ""


def test_tableau_rank_error(capsys):
    code, _, err = run(capsys, "tableau", "--rank", "2", "3")
    assert code == 2
    assert "outside" in err
    for rank in ("0", "-2"):
        code, out, err = run(capsys, "tableau", "--rank", rank, "1")
        assert_usage_error(code, out, err)
        assert f"rank must be a positive integer, got {rank}" in err


def test_normalize_letters(capsys):
    code, out, _ = run(capsys, "normalize", "--rank", "2", "121")
    assert code == 0
    assert out == "c_21 c_1\n211\n"


def test_normalize_cword_fixed_point(capsys):
    code, out, _ = run(capsys, "normalize", "--rank", "2", "c:21,1")
    assert code == 0
    assert out == "c_21 c_1\n211\n"


def test_normalize_empty(capsys):
    code, out, _ = run(capsys, "normalize", "--rank", "1", "")
    assert code == 0
    assert out == "\n\n"


def test_multiply_right(capsys):
    code, out, _ = run(capsys, "multiply", "--rank", "2", "--side", "right", "--check", "211", "1")
    assert code == 0
    assert out == "2111\n"


def test_multiply_left(capsys):
    code, out, _ = run(capsys, "multiply", "--rank", "2", "--side", "left", "11", "2")
    assert code == 0
    assert out == "211\n"


def test_multiply_empty_word(capsys):
    code, out, _ = run(capsys, "multiply", "--rank", "2", "--side", "right", "", "2")
    assert code == 0
    assert out == "2\n"


def test_multiply_rejects_non_normal_input(capsys):
    code, _, err = run(capsys, "multiply", "--rank", "2", "--side", "right", "121", "1")
    assert code == 2
    assert "column reading" in err


def test_multiply_at_large_rank(capsys):
    # the machine reads only the word's columns, so no rank is too large
    cases = [(20, "20,17,9,3,1,18,12,5,2,19,15,14,4,20,16,7,18,11", "10"), (50, "50,41,33,2,49,40,7,45,44", "17")]
    for rank, u, gamma in cases:
        for side in ("right", "left"):
            code, out, err = run(capsys, "multiply", "--rank", str(rank), "--side", side, "--check", u, gamma)
            assert (code, err) == (0, ""), (rank, side)
    code, _, err = run(capsys, "multiply", "--rank", "20", "--side", "right", "1,2,1", "3")
    assert code == 2
    assert "not a column reading" in err


def test_rules_json(capsys):
    code, out, _ = run(capsys, "rules", "--rank", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 2
    assert len(data["rules"]) == 3


def test_gsb_text_golden(capsys):
    code, out, _ = run(capsys, "gsb", "--rank", "2")
    assert code == 0
    assert out == (
        "order: deglex; symbol order: |subscript| desc, then lex\n"
        "c[1]*c[21] - c[21]*c[1]\n"
        "c[2]*c[21] - c[21]*c[2]\n"
        "c[2]*c[1] - c[21]\n"
    )


def test_gsb_rank1_empty(capsys):
    code, out, _ = run(capsys, "gsb", "--rank", "1")
    assert code == 0
    assert out == "order: deglex; symbol order: |subscript| desc, then lex\n"


def test_exports_byte_deterministic(capsys):
    _, first, _ = run(capsys, "rules", "--rank", "3", "--format", "json")
    _, second, _ = run(capsys, "rules", "--rank", "3", "--format", "json")
    assert first == second
    _, first, _ = run(capsys, "gsb", "--rank", "3", "--format", "json")
    _, second, _ = run(capsys, "gsb", "--rank", "3", "--format", "json")
    assert first == second


def test_machines_export(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code, _, _ = run(capsys, "machines", "--rank", "2", "--gamma", "1", "--format", "dot", "--out", str(out_a))
    assert code == 0
    code, _, _ = run(capsys, "machines", "--rank", "2", "--gamma", "1", "--format", "dot", "--out", str(out_b))
    assert code == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert [n for n in names if n.startswith("pair_")] == [
        "pair_left_L_1.dot",
        "pair_left_R_1.dot",
        "pair_right_L_1.dot",
        "pair_right_R_1.dot",
    ]
    for name in names:
        assert (out_a / name).read_text() == (out_b / name).read_text()


def test_machines_epsilon(tmp_path, capsys):
    code, _, _ = run(capsys, "machines", "--rank", "2", "--gamma", "eps", "--format", "json", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "pair_right_R_eps.json").read_text())
    assert payload["direction"] == "R"


def test_verify_rank1(capsys):
    code, out, _ = run(capsys, "verify", "--rank", "1", "--max-len", "4", "all")
    assert code == 0
    assert out.strip().endswith("PASS")


def test_verify_all_default_report_is_pinned(capsys):
    # the default sweep (rank 3, max-len 6): 1,728 bytes of report
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0bda4581a5350bcb8b05547e75c744ff709e48c1eb767869fe4148de96c7ea81"
    )


def test_verify_thorough_multipliers_report_is_pinned(capsys):
    # --thorough raises the rank to 4 and the length to 7, and the suite
    # runs the default sweep before the rank-4 one: 88,284,020 pair items
    code, out, _ = run(capsys, "verify", "--thorough", "multipliers")
    assert code == 0
    assert "  ok   rank 4: pair automata agree with the product oracle: 88284020 items\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ae78183fed85829bcdcfff183fc02013eae771799839dd02425499983eab2dcb"
    )


def test_verify_core_rank4_report_is_pinned(capsys):
    # 558,558 pairs of equal-length words in the equivalence check
    code, out, _ = run(capsys, "verify", "--rank", "4", "core")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b8f9c2c21b23efe0116eec9c4cedd26e6672ba51f344d949f8597d27fda2f867"
    )


@pytest.mark.parametrize("wrong", [
    {(2, 3): (3, 2)},
    # 111 now shares its tableau with 213 and 231, two later words outside its class
    {(1, 1, 1): (2, 1, 3), (3, 1, 2, 2): (1, 2, 2, 3), (2, 2, 1): (1, 2, 1)},
])
def test_equivalence_check_reports_what_every_pair_reports(monkeypatch, wrong):
    # inserting the last letter of a few words into their prefix's tableau
    # gives the tableau of another word, and the longer words grow from that
    # wrong tableau; the check must report the count and first witness of
    # its definition over all pairs u < v of equal length, in word order,
    # with each word's tableau folded from the empty one by that insertion
    real = verify.insert_with_trace
    planted = {(tableau_of_word(w[:-1]), w[-1]): tableau_of_word(v) for w, v in wrong.items()}

    def insert_with_trace(t, g):
        out, trace = real(t, g)
        return planted.get((t, g), out), trace

    monkeypatch.setattr(verify, "insert_with_trace", insert_with_trace)
    rep = verify.verify_core(verify.Config(rank=3, max_len=5))
    words = verify._words(3, 5)
    tab = {w: functools.reduce(lambda t, g: insert_with_trace(t, g)[0], w, Tableau()) for w in words}
    classes = {w: knuth_class(w) for w in words}
    pairs = [(u, v) for u, v in itertools.combinations(words, 2) if len(u) == len(v)]
    bad = [(u, v) for u, v in pairs if (v in classes[u]) != (tab[u] == tab[v])]
    label = "equivalence iff equal tableaux"
    assert f"FAIL {label}: {len(bad)}/{len(pairs)} items failed" in rep.lines
    assert f"{label}: {len(bad)} failures, first: {bad[0]!r}" in rep.failures
    if len(wrong) == 1:
        # 23 and the 39 longer words that start with it take the tableaux of
        # 32 and of the words that start with 32
        assert (len(bad), len(pairs), bad[0]) == (156, 33033, ((2, 3), (3, 2)))


def test_core_builds_each_tableau_once_from_its_prefix(monkeypatch):
    # every word's tableau comes from one insertion into its prefix's, and
    # none is built from scratch
    def refuse(w):
        raise AssertionError(f"tableau_of_word({w!r}) called")

    calls = []
    real = verify.insert_with_trace

    def insert_with_trace(t, g):
        calls.append(g)
        return real(t, g)

    monkeypatch.setattr(verify, "tableau_of_word", refuse)
    monkeypatch.setattr(verify, "insert_with_trace", insert_with_trace)
    rep = verify.verify_core(verify.Config())
    assert rep.failures == []
    assert len(calls) == len(verify._words(3, 6)) - 1 == 1092


# sha256 of `verify core` reports at the edges of its length logic: the
# empty word alone, a sweep shorter than the class checks, and lengths past them
CORE_SHA256 = {
    ("3", "0"): "9a6b03a313d6721276ff50d58201cdd49b1ebdf392506f9829e49a85aa35c267",
    ("2", "3"): "6e6dda87e4e3136b0fa831cb5e3d4303d317596b4f8aec59a406c28883643df1",
    ("3", "8"): "4c882531c4af167601e4decbfd7eeccf3e5c62bfd67e8c542da79a7817cc033a",
}


@pytest.mark.parametrize("rank, max_len", sorted(CORE_SHA256))
def test_verify_core_reports_at_the_length_edges_are_pinned(capsys, rank, max_len):
    code, out, _ = run(capsys, "verify", "--rank", rank, "--max-len", max_len, "core")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CORE_SHA256[rank, max_len]


def test_insertion_check_reports_what_inserting_every_word_from_scratch_reports(monkeypatch):
    # two (tableau, letter) steps get a trace that moves right; the check,
    # which inserts each word's last letter into its prefix's tableau, must
    # report the witnesses of its definition, which inserts every word from
    # the empty tableau, in the same order
    real = verify.insert_with_trace
    planted = {(Tableau(), 2), (Tableau(((2,),)), 1)}

    def insert_with_trace(t, g):
        out, trace = real(t, g)
        return out, (trace + ((0, 99),) if (t, g) in planted else trace)

    monkeypatch.setattr(verify, "insert_with_trace", insert_with_trace)
    checks = {}
    real_check = verify.Report.check

    def check(rep, label, count, witnesses):
        checks[label] = (count, list(witnesses))
        real_check(rep, label, count, witnesses)

    monkeypatch.setattr(verify.Report, "check", check)
    rep = verify.verify_core(verify.Config(rank=3, max_len=5))
    words = verify._words(3, 5)
    bad = []
    for w in words:
        t = Tableau()
        for g in w:
            t, trace = insert_with_trace(t, g)
            if any(trace[i + 1][1] > trace[i][1] for i in range(len(trace) - 1)):
                bad.append((w, trace))
        if not t.is_valid():
            bad.append(w)
    label = "insertion stays weakly left and valid"
    assert checks[label] == (len(words), bad)
    assert f"FAIL {label}: {len(bad)}/{len(words)} items failed" in rep.lines
    # (2,) reports one step; (2, 1) reports both, its prefix's first
    assert bad[0] == ((2,), ((1, 0), (0, 99)))
    assert [trace for w, trace in bad if w == (2, 1)] == [((1, 0), (0, 99)), ((1, 0), (2, 0), (0, 99))]


def test_verify_core_rank2(capsys):
    code, out, _ = run(capsys, "verify", "--rank", "2", "--max-len", "5", "core")
    assert code == 0
    assert "columns=lnds" in out


@pytest.mark.parametrize(
    "suite, rank, cap",
    [("multipliers", 8, 7), ("rewriting", 8, 7), ("core", 12, 11), ("all", 8, 7)],
)
def test_verify_refuses_a_rank_above_a_suite_cap(capsys, suite, rank, cap):
    code, out, err = run(capsys, "verify", "--rank", str(rank), "--max-len", "1", suite)
    assert_usage_error(code, out, err)
    assert f"--rank {cap} at most" in err


def test_verify_multipliers_runs_at_the_given_rank(capsys):
    code, out, _ = run(capsys, "verify", "--rank", "4", "--max-len", "3", "multipliers")
    assert code == 0
    cells = len(list(iter_tableaux(4, 3)))
    assert f"ok   column multipliers match normalization: {2 * 4 * cells} items" in out
    assert f"ok   lifted multipliers match tableau products: {2 * 5 * cells} items" in out
    assert f"ok   pair automata agree with the product oracle: {4 * 5 * cells ** 2} items" in out
    assert out.endswith("PASS\n")


def test_verify_core_orders_the_columns_of_the_given_rank(capsys):
    code, out, _ = run(capsys, "verify", "--rank", "6", "--max-len", "1", "core")
    assert code == 0
    assert f"ok   column order is a partial order: {63 ** 3} items" in out


# sha256 of each rule-table export, on stdout and in its --out file
EXPORT_SHA256 = {
    ("gsb", "1", "json"): "124fa25dc054837a7082ddf87abd6b482de2d9a080a4515f14ef14ded48e5688",
    ("gsb", "8", "text"): "828f5e14b2e04d0f25f09e4057d29f54c961704f6812189544cfb5436da12e59",
    ("gsb", "6", "text"): "151560d0e995b67f211bf45743094079ad68d6c9f0db2a245d3845f1a349332d",
    ("gsb", "6", "json"): "19dc6fdde3cf646620c67977bd3fc9fbee229fcd2448b78241f706ffe464fc9a",
    ("rules", "8", "text"): "b23b0a3f877151f09d283a289c3b90544c91ae0daef8f23c76182d1ae5311939",
    ("rules", "6", "text"): "42e1e1ff93ebb32a91fc4d4ce00404a9e9752fe830e4839291fc0c1b585006ac",
    ("rules", "6", "json"): "dcfca19fb3e25d7a14ea3218bada0f2521c2e90e9997a076efe79da005e87b95",
}


@pytest.mark.parametrize("command, rank, fmt", sorted(EXPORT_SHA256))
def test_rule_table_exports_are_pinned(tmp_path, capsys, command, rank, fmt):
    code, out, _ = run(capsys, command, "--rank", rank, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_SHA256[command, rank, fmt]
    path = tmp_path / "export"
    code, out, _ = run(capsys, command, "--rank", rank, "--format", fmt, "--out", str(path))
    assert (code, out) == (0, "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_SHA256[command, rank, fmt]


# sha256 of the stdout of `machines --rank 3` for each generator and format
MACHINES_SHA256 = {
    ("eps", "json"): "807eaefd88ae7d3a45a9550b536a0adbf77b5156d4c239aef33d1cfc87928af9",
    ("1", "json"): "2f71e0df091e3e58fd734768e4c6385ada313433e3bba140a160a5b208c18789",
    ("2", "json"): "579f60291c5c5b5963a7e55dd16d31f0ca0806ead4ff819161a774acd0b880df",
    ("3", "json"): "4f1897736c20c89e4822221ea7d2acfb7ce2e7289d5986bd809df4a76f81967f",
    ("eps", "dot"): "65abb7dfbb056995d212d384a637587874f6f6f56dcd9dd200772ce5e6d770ec",
    ("1", "dot"): "7a5a89aacef8ffcff4fbe2dd85953ea8d1c692751779d53b52d895e654df5c75",
    ("2", "dot"): "8307bdc5ff1bd5c3b4726c983015a563658bff9af687b54745c94211aba6af31",
    ("3", "dot"): "2e00c7d1a9e63c094d6d19dc0a919da0ecd2246a2972dc75316566c7dadc6e7e",
}


@pytest.mark.parametrize("gamma, fmt", sorted(MACHINES_SHA256))
def test_machines_exports_are_pinned(capsys, gamma, fmt):
    code, out, _ = run(capsys, "machines", "--rank", "3", "--gamma", gamma, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MACHINES_SHA256[gamma, fmt]


def test_large_rank_comma_format(capsys):
    code, out, _ = run(capsys, "tableau", "--rank", "12", "10,2,1")
    assert code == 0
    assert out.splitlines()[-1] == "10,2,1"


def test_rule_table_budget_refusal(capsys):
    code, _, err = run(capsys, "rules", "--rank", "12")
    assert code == 1
    assert "rule-table entries" in err


def test_normalize_parse_error_at_large_rank(capsys):
    code, out, err = run(capsys, "normalize", "--rank", "12", "1,x")
    assert_usage_error(code, out, err)
    assert "cannot parse" in err


LETTERS_60 = ",".join(str(1 + (7 * i) % 20) for i in range(60))


@pytest.mark.parametrize(
    "rank, word, letters",
    [(20, LETTERS_60, LETTERS_60), (12, "c:10.2,1", "10,2,1")],
    ids=["rank20-letters", "rank12-columns"],
)
def test_normalize_at_a_rank_beyond_any_rule_table(capsys, rank, word, letters):
    # normalize builds no table, so no pair budget bounds its rank
    code, out, err = run(capsys, "normalize", "--rank", str(rank), word)
    assert code == 0 and err == ""
    _, reading, _ = run(capsys, "tableau", "--rank", str(rank), letters)
    assert out.splitlines()[-1] == reading.splitlines()[-1]


def test_normalize_runs_no_insertion(capsys, monkeypatch):
    # without a table every rule comes from the direct product `rule`, so
    # normalize reaches the oracle's tableau with Schensted insertion gone
    def refuse(*args):
        raise AssertionError("normalize ran Schensted insertion")

    monkeypatch.setattr(rewriting, "product_columns", refuse)
    monkeypatch.setattr(rewriting, "tableau_of_word", refuse)
    rng = random.Random(8)
    for rank in range(2, 9):
        for _ in range(20):
            w = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 30)))
            nf = rewriting.normalize(rewriting.encode_word(w))
            assert nf == tuple(oracles.tableau_columns(w))
    code, out, err = run(capsys, "normalize", "--rank", "20", LETTERS_60)
    assert code == 0 and err == ""
    letters = tuple(int(x) for x in LETTERS_60.split(","))
    assert out.splitlines()[-1] == ",".join(map(str, oracles.column_reading_of_word(letters)))


@pytest.mark.parametrize(
    "argv, target",
    [
        (["rules", "--rank", "3"], "missing/x"),  # parent directory does not exist
        (["gsb", "--rank", "3"], "."),  # a directory, not a file
        (["machines", "--rank", "3", "--gamma", "1"], "file"),  # a file, not a directory
    ],
    ids=["rules", "gsb", "machines"],
)
def test_unwritable_out(tmp_path, capsys, argv, target):
    (tmp_path / "file").write_text("")
    out = tmp_path / target
    code, out_text, err = run(capsys, *argv, "--out", str(out))
    assert_usage_error(code, out_text, err)
    assert f"cannot write {out}" in err


@pytest.mark.parametrize(
    "argv",
    [["rules", "--rank", "2"], ["gsb", "--rank", "2"], ["machines", "--rank", "2", "--gamma", "1"]],
    ids=["rules", "gsb", "machines"],
)
def test_empty_out_is_refused(tmp_path, monkeypatch, capsys, argv):
    # not stdout, and for machines not `Path('')`, the working directory
    monkeypatch.chdir(tmp_path)
    code, out_text, err = run(capsys, *argv, "--out", "")
    assert_usage_error(code, out_text, err)
    assert "--out" in err
    assert list(tmp_path.iterdir()) == []


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["tableau"])  # missing --rank and word
    assert exc.value.code == 2


def assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


FORMER_LIMIT_VARIABLES = ("PLACTIC_MAX_STATES", "PLACTIC_MAX_CLASS", "PLACTIC_PAIR_BUDGET")
LIMIT_FREE_RUNS = [
    ("verify", "--rank", "1", "--max-len", "1", "core"),
    ("rules", "--rank", "2"),
    ("machines", "--rank", "2", "--gamma", "1"),
]


def test_limits_read_no_environment(capsys, monkeypatch):
    # every bound is a constant: a value in a former override variable,
    # even one that is no integer or not positive, changes nothing
    expected = [run(capsys, *argv) for argv in LIMIT_FREE_RUNS]
    for value in ("abc", "0"):
        for name in FORMER_LIMIT_VARIABLES:
            monkeypatch.setenv(name, value)
        for argv, (code, out, err) in zip(LIMIT_FREE_RUNS, expected):
            assert code == 0 and err == "", argv
            assert run(capsys, *argv) == (code, out, err), (value, argv)


@pytest.mark.parametrize(
    "command, argv",
    [
        ("tableau", ["21"]),
        ("normalize", ["121"]),
        ("multiply", ["--side", "right", "21", "1"]),
        ("rules", []),
        ("gsb", []),
        ("machines", ["--gamma", "1"]),
        ("verify", ["core"]),
    ],
    ids=["tableau", "normalize", "multiply", "rules", "gsb", "machines", "verify"],
)
def test_pair_budget_only_where_a_rule_table_is_built(capsys, command, argv):
    # the rule-table budget is a constant: no command takes --pair-budget
    with pytest.raises(SystemExit) as exc:
        main([command, "--rank", "3", *argv, "--pair-budget", "5"])
    assert exc.value.code == 2
    assert "--pair-budget" in capsys.readouterr().err


@pytest.mark.parametrize("command, cap, argv", [("machines", 8, ["--gamma", "1"])], ids=["machines"])
def test_rank_cap_refuses_before_construction(capsys, monkeypatch, command, cap, argv):
    class Built(Exception):
        pass

    def build(*args, **kwargs):
        raise Built

    for name in ("right_multiplier", "left_multiplier", "lifted_multiplier"):
        monkeypatch.setattr(multipliers, name, build)
    code, out, err = run(capsys, command, "--rank", str(cap + 1), *argv)
    assert_usage_error(code, out, err)
    assert f"{command} runs at --rank {cap} at most, got {cap + 1}" in err
    # the cap itself passes the check and reaches construction
    with pytest.raises(Built):
        main([command, "--rank", str(cap), *argv])


def test_machines_rejects_multi_letter_generator(capsys):
    for argv in (
        ["machines", "--rank", "3", "--gamma", "12"],
        ["multiply", "--rank", "3", "--side", "right", "21", "12"],
    ):
        code, out, err = run(capsys, *argv)
        assert_usage_error(code, out, err)
        assert "single letter" in err, argv


def test_verify_rejects_negative_max_len(capsys):
    code, out, err = run(capsys, "verify", "--max-len", "-1", "core")
    assert_usage_error(code, out, err)
    assert "--max-len" in err
    # a word sweep past the search limit is refused before it is built:
    # 2,391,484 words at rank 3 up to length 13, by both suites that sweep
    for suite in ("core", "rewriting"):
        code, out, err = run(capsys, "verify", "--rank", "3", "--max-len", "13", suite)
        assert_usage_error(code, out, err)
        assert "--max-len 13 sweeps at least 2391484 words" in err, suite
    # the largest sweep the cap allows at rank 7
    assert len(verify._words(7, 6)) == 137_257


def test_verify_refuses_a_letter_heavy_sweep(capsys):
    # 20,001 words but 200,010,000 letters at rank 1: refused by its letters,
    # as a sweep of more than the search limit, before it is built
    for suite in ("core", "rewriting"):
        code, out, err = run(capsys, "verify", "--rank", "1", "--max-len", "20000", suite)
        assert_usage_error(code, out, err)
        assert "--max-len 20000 sweeps 200010000 letters at rank 1, more than 1000000" in err, suite
    # the largest sweeps the tests and the README run stay within it:
    # 800,667 letters at rank 7 up to length 6, 324,726 at rank 6
    assert sum(map(len, verify._words(7, 6))) == 800_667
    assert sum(map(len, verify._words(6, 6))) == 324_726


def test_verify_rewriting_sizes_its_sweep_before_any_rule_table(capsys, monkeypatch):
    def build(n):
        raise AssertionError(f"built the rank-{n} rule table")

    monkeypatch.setattr(rewriting, "generate_rules", build)
    code, out, err = run(capsys, "verify", "--rank", "6", "--max-len", "8", "rewriting")
    assert_usage_error(code, out, err)
    assert "--max-len 8 sweeps at least 2015539 words at rank 6" in err


def test_verify_refuses_a_large_sweep_before_any_suite_runs(capsys, monkeypatch):
    # 797,161 words but 9,167,358 letters: refused before any suite runs and
    # before any worker process starts, not after the suites that sweep no
    # words have run
    def suite(cfg):
        raise AssertionError("a suite ran")

    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, suite)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    code, out, err = run(capsys, "verify", "--rank", "3", "--max-len", "12", "all")
    assert_usage_error(code, out, err)
    assert err == "error: --max-len 12 sweeps 9167358 letters at rank 3, more than 1000000\n"


def run_in_one_and_two_processes(capsys, monkeypatch, *argv):
    """(code, stdout, stderr) of `main(argv)` run with one CPU and with two,
    each with the number of forks it made; no worker may be left behind."""
    results = []
    real_fork = os.fork
    for cpus in (1, 2):
        forks = []

        def fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(os, "fork", fork)
        results.append((run(capsys, *argv), len(forks)))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return results


@pytest.mark.parametrize("argv", [
    # generator 1 runs here and eps is queued
    ("--rank", "1", "--max-len", "4", "all"),
    # one suite, split by generator: eps, 2, 3, 4 and the bijection are queued
    ("--rank", "4", "multipliers"),
])
def test_the_generators_split_reads_as_in_one_process(capsys, monkeypatch, argv):
    (serial, serial_forks), (split, split_forks) = run_in_one_and_two_processes(
        capsys, monkeypatch, "verify", *argv
    )
    assert (serial_forks, split_forks) == (0, 1)
    assert serial == split
    assert split[0] == 0 and split[1].endswith("PASS\n")


@pytest.mark.parametrize("suite, cfg", [
    ("all", verify.Config(rank=1, max_len=4)),
    ("multipliers", verify.Config(rank=4)),
])
def test_each_unit_runs_once_and_this_process_runs_automata_and_generator_1(monkeypatch, tmp_path, suite, cfg):
    # each unit appends [pid, name, part] to one log as it starts.  A failed
    # fork leaves every unit to this process, in unit order; with two CPUs
    # each unit runs once, in one of the two processes, each process claims
    # in unit order, and this one runs `automata` and every generator-1 part
    # before it claims any
    log = tmp_path / "units"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def logged(name, part):
        os.write(fd, (json.dumps([os.getpid(), name, part]) + "\n").encode())

    for name, suite_fn in list(verify.SUITES.items()):
        def logged_suite(cfg, name=name, suite_fn=suite_fn):
            logged(name, None)
            return suite_fn(cfg)

        monkeypatch.setitem(verify.SUITES, name, logged_suite)
    real_part = verify._multiplier_part

    def logged_part(part, sweeps):
        logged("multipliers", part)
        return real_part(part, sweeps)

    real_fork = os.fork
    workers = []

    def fork():
        workers.append(real_fork())
        return workers[-1]

    def failed_fork():
        raise BlockingIOError("no process")

    monkeypatch.setattr(verify, "_multiplier_part", logged_part)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", failed_fork)
    try:
        alone = verify.run(suite, cfg)
        in_order = [json.loads(line) for line in log.read_text().splitlines()]
        os.truncate(fd, 0)
        monkeypatch.setattr(os, "fork", fork)
        assert verify.run(suite, cfg) == alone
    finally:
        os.close(fd)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    names = list(verify.SUITES) if suite == "all" else [suite]
    units = json.loads(json.dumps([[name, part] for name in names
                                   for part in (verify._multiplier_parts(cfg) if name == "multipliers" else [None])]))
    assert in_order == [[os.getpid(), *unit] for unit in units]
    ran = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(workers) == 1 and {pid for pid, *_ in ran} <= {os.getpid(), *workers}
    assert sorted(json.dumps(unit) for _, *unit in ran) == sorted(map(json.dumps, units))
    first = [unit for unit in units if unit[0] == "automata" or unit[1] and unit[1][3] == 1]
    assert [unit for pid, *unit in ran if pid == os.getpid()][: len(first)] == first
    for pid in (os.getpid(), *workers):
        claimed = [units.index(unit) for p, *unit in ran if p == pid and unit not in first]
        assert claimed == sorted(claimed)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_verify_leaves_no_file_descriptor_open(monkeypatch):
    # on success, with a raising unit and with a failed fork, this process
    # closes every pipe it opened
    def raising(cfg):
        raise ResourceLimit("rewriting gave up")

    def failed_fork():
        raise BlockingIOError("no process")

    cfg = verify.Config(rank=1, max_len=3)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    before = sorted(os.listdir("/proc/self/fd"))
    assert len(verify.run("all", cfg)) == len(verify.SUITES)
    assert sorted(os.listdir("/proc/self/fd")) == before
    with monkeypatch.context() as m:
        m.setitem(verify.SUITES, "rewriting", raising)
        with pytest.raises(ResourceLimit):
            verify.run("all", cfg)
    assert sorted(os.listdir("/proc/self/fd")) == before
    monkeypatch.setattr(os, "fork", failed_fork)
    assert len(verify.run("all", cfg)) == len(verify.SUITES)
    assert sorted(os.listdir("/proc/self/fd")) == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_all_reads_the_same_in_one_process_and_in_two(capsys, monkeypatch):
    (serial, serial_forks), (split, split_forks) = run_in_one_and_two_processes(
        capsys, monkeypatch, "verify", "all"
    )
    assert (serial_forks, split_forks) == (0, 1)
    assert serial == split
    assert split[0] == 0 and split[1].endswith("PASS\n")
    # one suite, or a second thread, runs here whatever the core count
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    run(capsys, "verify", "--rank", "1", "--max-len", "1", "automata")
    done = threading.Event()
    waiting = threading.Thread(target=done.wait)
    waiting.start()
    try:
        assert run(capsys, "verify", "all") == serial
    finally:
        done.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()

    # a fork that fails runs every suite here, and so does a missing os.fork
    def fork():
        raise BlockingIOError("no process")

    monkeypatch.setattr(os, "fork", fork)
    assert run(capsys, "verify", "all") == serial
    monkeypatch.delattr(os, "fork")
    assert run(capsys, "verify", "all") == serial


def test_a_failure_in_the_worker_reads_as_in_one_process(capsys, monkeypatch):
    # the core suite, which the worker runs, sees one wrong lnds
    real = verify.lnds
    monkeypatch.setattr(verify, "lnds", lambda w: real(w) + (tuple(w) == (2, 1)))
    (serial, _), (split, forks) = run_in_one_and_two_processes(capsys, monkeypatch, "verify", "all")
    assert forks == 1
    assert serial == split
    code, out, err = split
    assert code == 1 and err == ""
    assert "  FAIL columns=lnds and rows=lds: 1/1093 items failed\n" in out
    assert "  FAILURE columns=lnds and rows=lds: 1 failures, first: (2, 1)\n" in out
    assert out.endswith("FAIL\n")

    # generator 2, which the worker checks, gets the right multiplier of 3
    monkeypatch.undo()
    right_multiplier = multipliers.right_multiplier
    monkeypatch.setattr(multipliers, "right_multiplier", lambda n, gamma: right_multiplier(n, gamma + (gamma == 2)))
    (serial, _), (split, forks) = run_in_one_and_two_processes(capsys, monkeypatch, "verify", "all")
    assert forks == 1
    assert serial == split
    code, out, err = split
    assert code == 1 and err == ""
    assert "  FAIL column multipliers match normalization: 259/1554 items failed\n" in out
    assert "  FAILURE pair automata agree with the product oracle: 560 failures, first: ('right', 'R', 2, (), (2,))\n" in out
    assert out.endswith("FAIL\n")


class Unpicklable(PlacticError):
    def __reduce__(self):
        raise TypeError("not pickled")


@pytest.mark.parametrize("raising", [
    # worker and parent both raise: the worker's suite comes first
    {"core": ResourceLimit("core gave up"), 1: ParseError("generator 1 refused")},
    {"rewriting": ViolationFound(((2, 1), ((21,),))), "automata": ResourceLimit("automata gave up")},
    # a queued generator alone raises
    {3: ParseError("generator 3 refused")},
    # an exception that does not pickle: the worker's suites run again here
    {"rewriting": Unpicklable("rewriting broke"), 1: ParseError("generator 1 refused")},
    # a generator the worker checks raises beside `automata`, which comes first
    {"automata": ResourceLimit("automata gave up"), 2: ParseError("generator 2 refused")},
    # two generators raise, one on each side: the earlier one wins
    {1: ResourceLimit("generator 1 gave up"), 2: ParseError("generator 2 refused")},
    {None: ParseError("eps refused"), 1: ResourceLimit("generator 1 gave up")},
])
def test_the_earliest_exception_in_suite_order_wins(capsys, monkeypatch, raising):
    # a suite name replaces the suite; a generator (None for eps) raises
    # when the multipliers suite builds its machines
    generators = {}
    for name, exc in raising.items():
        def suite(cfg, exc=exc):
            raise exc

        if name in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, name, suite)
        else:
            generators[name] = exc
    real = multipliers.generator_machines

    def machines(n, gamma):
        if gamma in generators:
            raise generators[gamma]
        return real(n, gamma)

    monkeypatch.setattr(multipliers, "generator_machines", machines)
    (serial, _), (split, forks) = run_in_one_and_two_processes(capsys, monkeypatch, "verify", "all")
    assert forks == 1
    assert serial == split
    first = next(iter(raising.values()))
    code, out, err = split
    assert (code, out, err) == (2 if isinstance(first, ParseError) else 1, "", f"error: {first}\n")


def test_an_interrupt_stops_and_reaps_the_worker(monkeypatch):
    # the worker would sleep for a minute; an interrupt in this process's
    # half kills it at once
    def interrupted(cfg):
        raise KeyboardInterrupt

    monkeypatch.setitem(verify.SUITES, "core", lambda cfg: time.sleep(60))
    monkeypatch.setitem(verify.SUITES, "automata", interrupted)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verify.run("all", verify.Config(rank=1, max_len=1))
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_importing_the_cli_loads_no_process_machinery():
    # the worker is a bare fork: importing the command line loads no
    # process pool, and pickle and signal only when verify forks
    modules = ("multiprocessing", "concurrent.futures", "pickle", "signal")
    code = f"import sys, plactic.cli; print([m for m in {modules!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


def test_errors_survive_pickling():
    # the worker process sends its exception pickled
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    for cls in [PlacticError, *subclasses(PlacticError)]:
        if cls.__module__ != "plactic.errors":
            continue
        exc = cls(((2, 1), ((21,),))) if cls is ViolationFound else cls("a message")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert getattr(back, "rule", None) == getattr(exc, "rule", None)
    assert str(ViolationFound((2, 1))) == "non-decreasing rule: (2, 1)"


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_shared_parser_carries_no_option_over(capsys, tmp_path):
    # in one process, each call prints and exits as it does alone in a fresh
    # one: no option of a call carries over to the next
    out_file = tmp_path / "rules.txt"
    sequence = [
        ["multiply", "--rank", "3", "--side", "right", "--check", "211", "1"],
        ["multiply", "--rank", "3", "--side", "right", "211", "1"],
        ["rules", "--rank", "2", "--out", str(out_file)],
        ["rules", "--rank", "2"],
        ["multiply", "--rank", "3", "211", "1"],  # no --side: a usage error
        ["normalize", "--rank", "2", "121"],
    ]
    together = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        together.append((code, capsys.readouterr().out))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    alone = [subprocess.run([sys.executable, "-m", "plactic", *argv], env=env, capture_output=True, text=True)
             for argv in sequence]
    assert together == [(r.returncode, r.stdout) for r in alone]
    assert [code for code, _ in together] == [0, 0, 0, 0, 2, 0]
    assert together[2][1] == "" and out_file.read_text() == together[3][1] != ""


def test_benchmark_tracer_installs():
    # a traced benchmark run wraps named plactic functions and refuses a
    # missing target or a reference it cannot rebind; install() rebinds the
    # package's functions, so it runs in a child process
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    result = subprocess.run(
        [sys.executable, "-c", 'from tracer import Tracer; Tracer("t").install()'],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_a_traced_verify_run_sees_every_counted_function():
    # the benchmark's traced `verify all` records only the calling process,
    # so on two cores that process must still reach every layer and every
    # counted function of the workload; the tracer rebinds the package's
    # functions, so it runs in a child process
    code = (
        "import contextlib, io, os, plactic.cli\n"
        "from tracer import Tracer\n"
        "from workloads import Verify\n"
        "tracer = Tracer('t')\n"
        "tracer.install()\n"
        "os.cpu_count = lambda: 2\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert plactic.cli.main(['verify', 'all']) == 0\n"
        "print(tracer.idle(Verify.layers, Verify.counted))\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr
