import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plactic import core
from plactic.core import (
    Tableau,
    _sweep,
    column_ge,
    dominates,
    format_word,
    insert,
    insert_with_trace,
    is_column,
    is_row,
    iter_columns,
    iter_tableaux,
    knuth_class,
    knuth_equivalent,
    knuth_relations,
    lds,
    lnds,
    parse_word,
    tableau_of_word,
)
from plactic.errors import ParseError, RankError, ResourceLimit

import oracles

RUNNING_EXAMPLE = (6, 3, 4, 5, 5, 1, 1, 2, 3, 5)


def words_up_to(rank, max_len):
    return oracles.all_words(rank, max_len)


def test_is_row():
    assert is_row((1, 1, 2, 3))
    assert not is_row((2, 1))
    assert is_row(())


def test_is_column():
    assert is_column((6, 3, 1))
    assert not is_column((1, 1))
    assert is_column((5,))


def test_dominates():
    assert dominates((6,), (3, 4, 5, 5))
    assert dominates((3, 4, 5, 5), (1, 1, 2, 3, 5))
    assert not dominates((1, 2), (1,))


def test_column_ge():
    assert column_ge((2, 1), (1,))
    assert not column_ge((1,), (2, 1))
    assert column_ge((2, 1), (2, 1))


def test_insert_row_case():
    t = Tableau.from_columns([(2, 1), (1,)])
    assert insert(t, 1).columns == ((2, 1), (1,), (1,))


def test_insert_bump_case():
    t = Tableau.from_columns([(1,), (2,)])
    assert insert(t, 1).columns == ((2, 1), (1,))


def test_insert_empty():
    assert insert(Tableau(), 5).columns == ((5,),)


def test_tableau_of_word_single_move():
    assert tableau_of_word((1, 2, 1)).columns == ((2, 1), (1,))


def test_tableau_of_word_worked_example():
    t = tableau_of_word(RUNNING_EXAMPLE)
    assert t.rows() == ((6,), (3, 4, 5, 5), (1, 1, 2, 3, 5))
    assert t.column_reading() == (6, 3, 1, 4, 1, 5, 2, 5, 3, 5)
    assert t.row_reading() == RUNNING_EXAMPLE
    assert len(t) == len(RUNNING_EXAMPLE)


def test_tableau_of_empty_word():
    t = tableau_of_word(())
    assert t.columns == ()
    assert t.column_reading() == ()
    assert t.row_reading() == ()
    assert t.pretty() == ""


def test_readings():
    t = Tableau.from_columns([(2, 1), (1,)])
    assert t.column_reading() == (2, 1, 1)
    assert t.row_reading() == (2, 1, 1)


def test_lnds_lds():
    assert lnds((3, 2, 1, 1)) == 2
    assert lnds((1, 2, 3, 4)) == 4
    assert lnds(()) == 0
    assert lds((3, 2, 1, 1)) == 3
    assert lds((1, 1, 1, 1)) == 1
    assert lds(()) == 0


def test_lnds_lds_against_brute_force():
    for w in words_up_to(3, 5):
        assert lnds(w) == oracles.brute_lnds(w)
        assert lds(w) == oracles.brute_lds(w)


def test_knuth_relations_small():
    assert knuth_relations(1) == frozenset()
    assert knuth_relations(2) == frozenset(
        {((1, 2, 1), (2, 1, 1)), ((2, 1, 2), (2, 2, 1))}
    )
    assert len(knuth_relations(2)) == 2


def test_knuth_equivalent():
    assert knuth_equivalent((1, 2, 1), (2, 1, 1))
    assert not knuth_equivalent((1, 2), (2, 1))
    assert knuth_equivalent((1,), (1,))
    assert not knuth_equivalent((1, 2), (1, 2, 2))


def test_knuth_class_bound(monkeypatch):
    monkeypatch.setattr(core, "SEARCH_LIMIT", 2)
    with pytest.raises(ResourceLimit, match=r"equivalence class of \(1, 2, 3, .*\) exceeded 2 configurations"):
        knuth_class((1, 2, 3, 1, 2, 3, 1, 2))


def test_sweep_visits_seeds_then_breadth_first():
    # ints iterate from a set in hash order, 0 1 2 ..., which differs from
    # the visiting order below
    graph = {8: [6, 1], 3: [9, 0], 6: [2, 7], 1: [8, 5], 9: [4], 0: [3]}
    reached = _sweep([8, 3], lambda q: graph.get(q, ()))
    assert list(reached) == [8, 3, 6, 1, 9, 0, 2, 7, 5, 4]
    assert list(reached) != list(set(reached))


def test_sweep_limit():
    chain = lambda q: [q + 1] if q < 4 else []
    assert list(_sweep([0], chain, limit=5)) == [0, 1, 2, 3, 4]
    with pytest.raises(ResourceLimit, match="^walk exceeded 4 configurations$"):
        _sweep([0], chain, limit=4, what="walk")
    # the seeds themselves are never refused
    assert list(_sweep([5, 6, 7], chain, limit=1)) == [5, 6, 7]


def test_schensted_theorem_small():
    for w in words_up_to(3, 6):
        t = tableau_of_word(w)
        assert t.width == lnds(w)
        assert t.height == lds(w)


def test_matches_row_insertion_oracle():
    for w in words_up_to(3, 6):
        assert tableau_of_word(w).columns == tuple(oracles.tableau_columns(w))
    rng = random.Random(20240601)
    for rank in range(4, 13):
        for length in (7, 30, 90, 200):
            w = tuple(rng.randint(1, rank) for _ in range(length))
            t = tableau_of_word(w)
            assert t.columns == tuple(oracles.tableau_columns(w))
            replay = Tableau()
            for g in w:
                prev = replay
                replay, trace = insert_with_trace(prev, g)
                # the last landing site is the one cell the shape gains
                m, c = trace[-1]
                assert len(replay.columns[c]) == m
                if c < prev.width:
                    assert len(prev.columns[c]) == m - 1
                else:
                    assert m == 1
            assert replay == t


def test_readings_are_congruent():
    for w in words_up_to(3, 5):
        cls = knuth_class(w)
        t = tableau_of_word(w)
        assert t.column_reading() in cls
        assert t.row_reading() in cls
        assert len(t.row_reading()) == len(w)


def test_cross_section_small():
    words = [w for w in words_up_to(2, 5)]
    classes = {w: knuth_class(w) for w in words}
    for u in words:
        for v in words:
            if len(u) != len(v):
                continue
            assert (v in classes[u]) == (tableau_of_word(u) == tableau_of_word(v))


def test_insert_trace_moves_weakly_left():
    for w in words_up_to(3, 6):
        t = Tableau()
        for g in w:
            t, trace = insert_with_trace(t, g)
            cols = [c for _, c in trace]
            assert cols == sorted(cols, reverse=True) or all(
                cols[i + 1] <= cols[i] for i in range(len(cols) - 1)
            )
            rows = [m for m, _ in trace]
            assert rows == list(range(1, len(rows) + 1))
        assert t.is_valid()


def test_column_ge_partial_order_rank5():
    cols = list(iter_columns(5))
    assert len(cols) == 31
    for a in cols:
        assert column_ge(a, a)
        for b in cols:
            if column_ge(a, b) and column_ge(b, a):
                assert a == b
            for c in cols:
                if column_ge(a, b) and column_ge(b, c):
                    assert column_ge(a, c)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5), max_size=30))
def test_random_words_match_oracle(letters):
    w = tuple(letters)
    t = tableau_of_word(w)
    assert t.columns == tuple(oracles.tableau_columns(w))
    assert t.is_valid()
    assert sorted(t.column_reading()) == sorted(w)


def test_parse_and_format():
    assert parse_word("121", 2) == (1, 2, 1)
    assert parse_word("", 3) == ()
    assert parse_word("10,2,1", 12) == (10, 2, 1)
    assert format_word((1, 2, 1), 2) == "121"
    assert format_word((10, 2), 12) == "10,2"
    with pytest.raises(RankError):
        parse_word("3", 2)
    with pytest.raises(ParseError):
        parse_word("1x", 4)


def test_pretty_planar_form():
    assert tableau_of_word(RUNNING_EXAMPLE).pretty(6) == "6\n3455\n11235"


def test_from_columns_rejects_bad_chain():
    with pytest.raises(ParseError):
        Tableau.from_columns([(1,), (2, 1)])
    with pytest.raises(ParseError):
        Tableau.from_columns([(1, 1)])


def test_iter_tableaux_counts():
    # every tableau enumerated once, each valid, each recovered from its reading
    tabs = list(iter_tableaux(2, 4))
    assert len(tabs) == len({t.columns for t in tabs})
    for t in tabs:
        assert t.is_valid()
        assert tableau_of_word(t.column_reading()) == t
    words = {tableau_of_word(w).columns for w in words_up_to(2, 4)}
    assert words == {t.columns for t in tabs}
