import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plactic import rewriting
from plactic.core import column_ge, iter_columns, tableau_of_word
from plactic.errors import ParseError, ResourceLimit, ViolationFound
from plactic.rewriting import (
    ORDER_DESCRIPTION,
    RewritingSystem,
    check_termination,
    column_key,
    critical_pairs,
    decode_word,
    encode_word,
    format_cword,
    generate_rules,
    gsb_export,
    gsb_text,
    is_normal_form,
    normalize,
    parse_cword,
    product_columns,
    rewrite_step,
    rule,
    rules_json,
    rules_text,
    word_less,
)

import oracles

# derived once from the incomparable-pair enumeration below and frozen
RULE_COUNTS = {1: 0, 2: 3, 3: 22, 4: 115, 5: 531}


def test_all_columns():
    assert list(iter_columns(1)) == [(1,)]
    assert list(iter_columns(2)) == [(1,), (2,), (2, 1)]
    assert len(list(iter_columns(3))) == 7


def test_product_columns():
    assert product_columns((2,), (1,)) == ((2, 1),)
    assert product_columns((1,), (2, 1)) == ((2, 1), (1,))
    assert product_columns((2, 1), (1,)) is None


def test_generate_rules_rank2_exact():
    rs = generate_rules(2)
    assert rs.rules == {
        ((2,), (1,)): ((2, 1),),
        ((1,), (2, 1)): ((2, 1), (1,)),
        ((2,), (2, 1)): ((2, 1), (2,)),
    }


def test_rule_counts_match_incomparable_pairs():
    for n, expected in RULE_COUNTS.items():
        cols = list(iter_columns(n))
        incomparable = sum(
            1 for a in cols for b in cols if not column_ge(a, b)
        )
        rs = generate_rules(n)
        assert len(rs.rules) == incomparable == expected


def test_rules_are_built_in_generator_order():
    # every listing of a generated table follows this order without sorting,
    # and the table, whose matchings share each column's prefix, holds what
    # `rule` gives pair by pair; `rule` agrees with Schensted insertion
    # (`product_columns`) on every ordered pair, both giving None on a
    # comparable one: 16,129 pairs at rank 7 (insertion is skipped at rank 8)
    for n in range(1, 9):
        cols = sorted(iter_columns(n), key=column_key)
        rules = generate_rules(n).rules
        expected = [(a, b) for a in cols for b in cols if not column_ge(a, b)]
        assert list(rules) == expected
        for a in cols:
            for b in cols:
                assert rule(a, b) == rules.get((a, b))
                if n < 8:
                    assert rule(a, b) == product_columns(a, b)


def test_rule_table_reuses_the_rank_columns():
    # every column of every right side is the very object its build started
    # from, the one that also stands in the left sides, not a fresh tuple
    for n in range(1, 7):
        rules = generate_rules(n).rules
        columns = {}
        for lhs in rules:
            for c in lhs:
                assert columns.setdefault(c, c) is c
        if n > 1:
            assert len(columns) == 2**n - 1
        for rhs in rules.values():
            for c in rhs:
                assert columns[c] is c


def test_rule_shape_invariants():
    for n in range(1, 5):
        for (a, b), rhs in generate_rules(n).rules.items():
            assert not column_ge(a, b)
            assert 1 <= len(rhs) <= 2
            if len(rhs) == 2:
                assert len(rhs[0]) > len(a)
            assert sorted(x for c in rhs for x in c) == sorted(a + b)


def test_generate_rules_budget():
    # rank 11 is the first whose table, 2,047^2 entries, exceeds the budget
    with pytest.raises(ResourceLimit, match="rank 11 needs 4190209 rule-table entries"):
        generate_rules(11)


def test_word_less():
    assert word_less(((2, 1),), ((2,), (1,)))  # shorter first
    assert word_less(((2, 1), (1,)), ((1,), (2, 1)))  # longer subscript first
    assert not word_less(((2, 1),), ((2, 1),))
    # the length-first order on the columns' key tuples, on every pair of
    # words of at most two columns at rank 3
    cols = list(iter_columns(3))
    words = [w for k in range(3) for w in itertools.product(cols, repeat=k)]
    for u in words:
        for v in words:
            keys = (len(u), [column_key(c) for c in u]) < (len(v), [column_key(c) for c in v])
            assert word_less(u, v) == keys


def test_rewrite_step():
    rs = generate_rules(2)
    assert rewrite_step(((2,), (1,)), rs) == ((2, 1),)
    assert rewrite_step(((1,), (2, 1), (1,)), rs) == ((2, 1), (1,), (1,))
    assert rewrite_step(((2, 1), (1,)), rs) is None


def test_normalize_examples():
    rs = generate_rules(2)
    assert normalize(((1,), (2,), (1,)), rs) == ((2, 1), (1,))
    assert normalize((), rs) == ()
    assert normalize(((2, 1), (1,)), rs) == ((2, 1), (1,))


def test_normalize_agrees_with_tableaux():
    for n in (1, 2, 3):
        rs = generate_rules(n)
        for w in oracles.all_words(n, 6):
            nf = normalize(encode_word(w), rs)
            assert decode_word(nf) == tableau_of_word(w).column_reading()
            assert sorted(decode_word(nf)) == sorted(w)


def test_normalize_without_a_table_matches_the_oracle():
    # each rule read from `rule` leads to the columns of the tableau, as the
    # oracle's own row insertion computes them, on every letter word and
    # column word below
    for n, letters, columns in ((1, 6, 3), (2, 6, 3), (3, 6, 3), (4, 5, 3), (5, 4, 2)):
        cols = list(iter_columns(n))
        words = [encode_word(w) for w in oracles.all_words(n, letters)]
        words += [w for k in range(columns + 1) for w in itertools.product(cols, repeat=k)]
        for w in words:
            assert normalize(w) == tuple(oracles.tableau_columns(decode_word(w)))


def test_normal_form_iff_chained():
    rs = generate_rules(3)
    cols = list(iter_columns(3))
    for w in itertools.product(cols, repeat=3):
        chained = all(column_ge(w[i], w[i + 1]) for i in range(2))
        assert is_normal_form(w, rs) == chained


def test_termination_certificate():
    for n in range(1, 6):
        assert check_termination(generate_rules(n)) == RULE_COUNTS[n]


def test_termination_rank6():
    assert check_termination(generate_rules(6)) == (2**6 - 1) ** 2 - sum(
        1 for a in iter_columns(6) for b in iter_columns(6) if column_ge(a, b)
    )


def test_termination_violation():
    # a longer right side; one as long whose first column is shorter than the
    # left's, so larger in the order; one whose first columns tie and whose
    # second column is as long and lexicographically larger
    for lhs, rhs in [
        (((2, 1), (2, 1)), ((2,), (1,), (2, 1))),
        (((2, 1), (2,)), ((1,), (2, 1))),
        (((2, 1), (1,)), ((2, 1), (2,))),
    ]:
        bad = RewritingSystem(2, {lhs: rhs})
        # the gsb text writer checks on the call, before it yields a line
        for check in (check_termination, gsb_export, gsb_text):
            with pytest.raises(ViolationFound):
                check(bad)


def test_critical_pairs_converge():
    for n in range(1, 5):
        overlaps = list(critical_pairs(generate_rules(n)))
        assert all(o.converged for o in overlaps)
        if n == 1:
            assert overlaps == []


def test_critical_pair_results_match_tableaux():
    rs = generate_rules(3)
    for o in critical_pairs(rs):
        word = decode_word(o.word)
        assert decode_word(o.left_result) == tableau_of_word(word).column_reading()


def basis_binomials(doc, rank):
    """The binomials of a JSON basis document, their label lists parsed
    back to column words."""
    def cword(labels):
        return parse_cword("c:" + ",".join(labels), rank)

    return [
        (cword(b["leading"]), cword(b["trailing"]), b["leading_coeff"], b["trailing_coeff"])
        for b in doc["binomials"]
    ]


def test_gsb_export_rank2():
    rs = generate_rules(2)
    doc = gsb_export(rs)
    assert doc["rank"] == 2
    assert doc["order"] == "order: deglex; symbol order: |subscript| desc, then lex"
    assert doc["generators"] == ["21", "1", "2"]
    assert basis_binomials(doc, 2) == [(lhs, rhs, 1, -1) for lhs, rhs in rs.rules.items()]
    assert "".join(gsb_text(rs)) == (
        "order: deglex; symbol order: |subscript| desc, then lex\n"
        "c[1]*c[21] - c[21]*c[1]\n"
        "c[2]*c[21] - c[21]*c[2]\n"
        "c[2]*c[1] - c[21]\n"
    )


def test_gsb_bijection_and_order():
    for n in (2, 3):
        rs = generate_rules(n)
        binomials = basis_binomials(gsb_export(rs), n)
        assert len(binomials) == len(rs.rules)
        for leading, trailing, leading_coeff, trailing_coeff in binomials:
            assert rs.rules[leading] == trailing
            assert word_less(trailing, leading)
            assert leading_coeff == 1 and trailing_coeff == -1
        assert [b[0] for b in binomials] == list(rs.rules)


def test_gsb_empty_rank1():
    rs = generate_rules(1)
    assert gsb_export(rs)["binomials"] == []
    assert "".join(gsb_text(rs)) == "order: deglex; symbol order: |subscript| desc, then lex\n"


def test_gsb_json_stable():
    a = json.dumps(gsb_export(generate_rules(3)), sort_keys=True)
    b = json.dumps(gsb_export(generate_rules(3)), sort_keys=True)
    assert a == b


def test_encode_decode():
    assert encode_word((1, 2, 1)) == ((1,), (2,), (1,))
    assert decode_word(((2, 1), (1,))) == (2, 1, 1)
    for w in oracles.all_words(3, 5):
        assert decode_word(encode_word(w)) == w


def test_cword_parsing():
    assert parse_cword("c:21,1", 2) == ((2, 1), (1,))
    assert parse_cword("c:", 2) == ()
    assert parse_cword("c:10.2,1", 12) == ((10, 2), (1,))
    assert format_cword(((2, 1), (1,)), 2) == "c_21 c_1"
    with pytest.raises(ParseError):
        parse_cword("c:12", 2)  # not strictly decreasing


def test_rules_exports():
    rs = generate_rules(2)
    data = rules_json(rs)
    assert data["rank"] == 2
    assert {"lhs": ["2", "1"], "rhs": ["21"]} in data["rules"]
    text = "".join(rules_text(rs))
    assert "c[2] c[1] -> c[21]" in text


def test_text_writers_match_one_line_per_rule(monkeypatch):
    # the left column (3,) in two runs, split by a (2,) rule, with right sides
    # of 0 to 3 columns; the lines written by the old one-line-per-rule f-strings
    rules = {
        ((3,), (1,)): ((3, 1),),
        ((3,), (2, 1)): ((3, 1), (2,)),
        ((2,), (1,)): ((2, 1),),
        ((3,), (3,)): (),
        ((3,), (2,)): ((3,), (2,), (1,)),
    }
    rs = RewritingSystem(3, rules)

    def label(c):
        return f"c[{''.join(map(str, c))}]"

    assert "".join(rules_text(rs)) == "rank: 3\n" + "".join(
        f"{label(a)} {label(b)} -> {' '.join(map(label, rhs))}\n" for (a, b), rhs in rules.items()
    )
    # a three-column right side fails the termination check that gsb_text
    # runs first; the writer's lines are what this test is about
    monkeypatch.setattr(rewriting, "check_termination", lambda system: len(system.rules))
    assert "".join(gsb_text(rs)) == ORDER_DESCRIPTION + "\n" + "".join(
        f"{label(a)}*{label(b)} - {'*'.join(map(label, rhs)) or '1'}\n" for (a, b), rhs in rules.items()
    )


@st.composite
def cwords(draw, rank=4, max_len=6):
    cols = list(iter_columns(rank))
    return tuple(draw(st.sampled_from(cols)) for _ in range(draw(st.integers(0, max_len))))


RS4 = generate_rules(4)


@settings(max_examples=120, deadline=None)
@given(cwords())
def test_normalize_properties_random(w):
    nf = normalize(w, RS4)
    assert is_normal_form(nf, RS4)
    assert all(column_ge(nf[i], nf[i + 1]) for i in range(len(nf) - 1))
    assert sorted(decode_word(nf)) == sorted(decode_word(w))
    assert decode_word(nf) == tableau_of_word(decode_word(w)).column_reading()


@settings(max_examples=120, deadline=None)
@given(cwords())
def test_rewrite_step_decreases(w):
    nxt = rewrite_step(w, RS4)
    if nxt is None:
        assert is_normal_form(w, RS4)
    else:
        assert word_less(nxt, w)
