import itertools
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plactic import automata
from plactic.automata import (
    PAD,
    Nfa,
    PairAutomaton,
    Transducer,
    _can_emit,
    _minimal_dfa_of_reversal,
    compose_relations,
    delta_l,
    delta_r,
    enumerate_accepted,
    nfa_to_json,
    reverse_relation,
    synchronize,
    transducer_images,
    transducer_outputs,
    transducer_to_json,
    trim,
)
from plactic.errors import ResourceLimit

import oracles

ABC = ("a", "b", "c")


def words_over(sigma, max_len):
    return [w for L in range(max_len + 1) for w in itertools.product(sigma, repeat=L)]


def copy_machine(sigma=ABC):
    return Transducer(sigma, sigma, {0}, {0}, {0}, [(0, a, (a,), 0) for a in sigma])


def append_machine(extra="a", sigma=ABC):
    trans = [(0, a, (a,), 0) for a in sigma] + [(0, None, (extra,), 1)]
    return Transducer(sigma, sigma, {0, 1}, {0}, {1}, trans)


def drop_last_machine(sigma=ABC):
    # deletes the last letter: the one machine here whose v is shorter than u
    trans = [(0, a, (a,), 0) for a in sigma] + [(0, a, (), 1) for a in sigma]
    return Transducer(sigma, sigma, {0, 1}, {0}, {1}, trans)


def test_delta_r_cases():
    assert delta_r("ab", "a") == (("a", "a"), ("b", PAD))
    assert delta_r("a", "ab") == (("a", "a"), (PAD, "b"))
    assert delta_r("", "") == ()
    assert delta_r("ab", "ab") == (("a", "a"), ("b", "b"))


def test_delta_l_cases():
    assert delta_l("ab", "a") == (("a", PAD), ("b", "a"))
    assert delta_l("a", "ab") == ((PAD, "a"), ("a", "b"))
    assert delta_l("ab", "ab") == (("a", "a"), ("b", "b"))


def test_encoder_duality_exhaustive():
    words = words_over(ABC, 4)
    for u in words:
        for v in words:
            assert tuple(reversed(delta_r(u, v))) == delta_l(
                tuple(reversed(u)), tuple(reversed(v))
            )


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from(ABC), max_size=12),
    st.lists(st.sampled_from(ABC), max_size=12),
)
def test_encoder_duality_random(u, v):
    u, v = tuple(u), tuple(v)
    assert tuple(reversed(delta_r(u, v))) == delta_l(tuple(reversed(u)), tuple(reversed(v)))


def test_nfa_accepts():
    loop = Nfa({"a"}, {0}, {0}, {0}, [(0, "a", 0)])
    assert loop.accepts(("a", "a", "a"))
    assert loop.accepts(())
    empty = Nfa({"a"}, {0}, {0}, set(), [])
    assert not empty.accepts(())
    assert not empty.accepts(("a",))


def test_nfa_rejects_undeclared_symbol():
    loop = Nfa({"a"}, {0}, {0}, {0}, [(0, "a", 0)])
    assert not loop.accepts(("b",))


def test_nfa_epsilon_closure():
    m = Nfa({"a"}, {0, 1, 2}, {0}, {2}, [(0, None, 1), (1, "a", 2), (2, None, 0)])
    assert m.accepts(("a",))
    assert m.accepts(("a", "a"))
    assert not m.accepts(())


def test_nfa_closure_without_epsilon_arcs_is_the_set_itself():
    m = Nfa({"a"}, {0, 1}, {0}, {1}, [(0, "a", 1), (1, "a", 0)])
    frontier = frozenset({0, 1})
    assert m.closure(frontier) is frontier
    assert m.accepts(("a", "a", "a"))
    assert m._closure_cache == {}


def test_nfa_validation():
    with pytest.raises(ValueError):
        Nfa({"a"}, {0}, {0}, {0}, [(0, "a", 1)])
    with pytest.raises(ValueError):
        Nfa({"a"}, {0}, {1}, {0}, [])
    with pytest.raises(ValueError, match="undeclared symbol 'b'"):
        Nfa({"a"}, {0}, {0}, {0}, [(0, "b", 0)])
    # a transducer checks its states and both alphabets the same way
    with pytest.raises(ValueError, match="undeclared state in transducer transition"):
        Transducer(ABC, ABC, {0}, {0}, {0}, [(0, "a", ("a",), 1)])
    with pytest.raises(ValueError, match="undeclared input symbol 'z'"):
        Transducer(ABC, ABC, {0}, {0}, {0}, [(0, "z", ("a",), 0)])
    with pytest.raises(ValueError, match="undeclared output symbol 'z'"):
        Transducer(ABC, ABC, {0}, {0}, {0}, [(0, "a", ("a", "z"), 0)])


def test_transducer_outputs():
    ident = copy_machine()
    assert transducer_outputs(ident, ("a", "b", "c")) == {("a", "b", "c")}
    empty = Transducer(ABC, ABC, {0, 1}, {0}, {1}, [])
    assert transducer_outputs(empty, ()) == set()
    assert transducer_outputs(empty, ("a",)) == set()


def test_transducer_outputs_bound(monkeypatch):
    monkeypatch.setattr(automata, "SEARCH_LIMIT", 50)
    pump = Transducer(ABC, ABC, {0}, {0}, {0}, [(0, None, ("a",), 0)])
    with pytest.raises(ResourceLimit, match="^transducer exploration exceeded 50 configurations$"):
        transducer_outputs(pump, ())


def test_transducer_images_match_transducer_outputs():
    # rotate_machine emits its last letter on an epsilon arc after the input
    # ends; "z" is outside every alphabet here and cuts its subtree off
    words = words_over(("a", "b"), 4) + [("z",), ("a", "z"), ("a", "z", "b")]
    machines = [mixed_lag_machine(), rotate_machine(), drop_last_machine(("a", "b")),
                append_two_machine()]
    for t in machines:
        assert transducer_images(t, words) == {u: transducer_outputs(t, u) for u in words}
    assert transducer_images(rotate_machine(), [("a", "b")]) == {("a", "b"): {("b", "a")}}
    # longer than the interpreter's recursion limit
    long = ("a", "b") * 1500
    assert transducer_images(copy_machine(("a", "b")), [long]) == {long: {long}}


def test_transducer_images_bound(monkeypatch):
    monkeypatch.setattr(automata, "SEARCH_LIMIT", 50)
    pump = Transducer(ABC, ABC, {0}, {0}, {0}, [(0, None, ("a",), 0)])
    with pytest.raises(ResourceLimit, match="^transducer exploration exceeded 50 configurations$"):
        transducer_images(pump, [(), ("a",)])


def test_reverse_relation():
    rel = Transducer(ABC, ABC, {0, 1, 2}, {0}, {2}, [(0, "a", (), 1), (1, "b", ("c",), 2)])
    rev = reverse_relation(rel)
    assert ("c",) in transducer_outputs(rev, ("b", "a"))
    assert ("c",) not in transducer_outputs(rev, ("a", "b"))
    ident = copy_machine()
    back = reverse_relation(ident)
    for w in words_over(ABC, 3):
        assert w in transducer_outputs(back, w)


def test_double_reversal_is_identity():
    rel = append_machine()
    twice = reverse_relation(reverse_relation(rel))
    for u in words_over(ABC, 3):
        assert transducer_outputs(rel, u) == transducer_outputs(twice, u)


def test_compose_relations():
    ident = copy_machine()
    app = append_machine()
    composed = compose_relations(ident, app)
    for u in words_over(ABC, 3):
        assert transducer_outputs(composed, u) == {u + ("a",)}
    twice = compose_relations(app, app)
    assert transducer_outputs(twice, ("b",)) == {("b", "a", "a")}
    single_s = Transducer(ABC, ABC, {0, 1}, {0}, {1}, [(0, "a", ("b",), 1)])
    single_t = Transducer(ABC, ABC, {0, 1}, {0}, {1}, [(0, "b", ("c",), 1)])
    assert transducer_outputs(compose_relations(single_s, single_t), ("a",)) == {("c",)}


def test_synchronize_identity():
    for direction in "RL":
        pa = synchronize(copy_machine(("a",)), direction)
        assert pa.accepts_pair(("a", "a"), ("a", "a"))
        assert not pa.accepts_pair(("a",), ("a", "a"))
        assert pa.accepts_pair((), ())


def test_synchronize_append():
    t = append_machine(sigma=("a",))
    for direction in "RL":
        pa = synchronize(t, direction)
        for k in range(4):
            u = ("a",) * k
            assert pa.accepts_pair(u, u + ("a",))
            assert not pa.accepts_pair(u, u)
            assert not pa.accepts_pair(u + ("a",), u)


def test_synchronize_matches_outputs():
    t = append_machine()
    words = words_over(ABC, 4)
    for direction in "RL":
        pa = synchronize(t, direction)
        for u in words:
            expected = transducer_outputs(t, u)
            for v in words:
                assert pa.accepts_pair(u, v) == (v in expected)


def mixed_lag_machine():
    # copies a word, then deletes an a and copies b*, or turns a b into ab,
    # copies a* and may emit a b after the input ends.  The start state has
    # suffix lags -1, 1 and 2; the copy of a* has 0 and 1, and only those
    # over epsilon arcs
    sigma = ("a", "b")
    arcs = [(0, x, (x,), 0) for x in sigma] + [
        (0, "a", (), 1), (1, "b", ("b",), 1),
        (0, "b", ("a", "b"), 2), (2, "a", ("a",), 2),
        (2, None, ("b",), 3),
    ]
    return Transducer(sigma, sigma, {0, 1, 2, 3}, {0}, {1, 2, 3}, arcs)


def rotate_machine():
    # x w -> w x for a letter x: it deletes x first and emits it after the
    # input ends, so the buffer runs one letter behind throughout
    sigma = ("a", "b")
    arcs = [(0, x, (), x) for x in sigma]
    arcs += [(x, y, (y,), x) for x in sigma for y in sigma]
    arcs += [(x, None, (x,), "end") for x in sigma]
    return Transducer(sigma, sigma, {0, "a", "b", "end"}, {0}, {"end"}, arcs)


def test_synchronize_matches_outputs_of_mixed_lag():
    # buffers that run ahead and behind, in every padding phase of R and L
    words = words_over(("a", "b"), 4)
    machines = [mixed_lag_machine(), rotate_machine(), drop_last_machine(("a", "b")),
                append_two_machine()]
    for t in machines:
        outputs = {u: transducer_outputs(t, u) for u in words}
        graph = {(u, v) for u, vs in outputs.items() for v in vs if len(v) <= 4}
        for direction in "RL":
            pa = synchronize(t, direction)
            assert pa.accepted_pairs(words) == graph, direction
            for u, vs in outputs.items():
                assert all(pa.accepts_pair(u, v) for v in vs), (direction, u)


def test_synchronize_returns_trim_minimal_dfa():
    machines = [copy_machine(("a",)), copy_machine(), append_machine(), append_machine(sigma=("a", "b"))]
    for t in machines:
        for direction in "RL":
            assert oracles.dfa_contract_violations(synchronize(t, direction).nfa) == []


@pytest.mark.skipif(sys.version_info < (3, 11), reason="the caller's stack keeps arguments alive before 3.11")
def test_synchronize_frees_the_reversed_graph_after_one_pass(monkeypatch):
    # the reversed configuration graph, with its memo of every first-pass
    # subset, is gone before the second subset construction starts
    passes, determinized = [], Nfa.determinized

    def record(a):
        passes.append((weakref.ref(a), [p() is None for p, _ in passes]))
        return determinized(a)

    monkeypatch.setattr(Nfa, "determinized", record)
    synchronize(append_machine(), "R")
    assert [freed for _, freed in passes] == [[], [True]]


def test_dfa_contract_oracle_flags_defects():
    # the checker itself must see each defect it is meant to catch
    two_starts = Nfa({"a"}, {0, 1}, {0, 1}, {1}, [(0, "a", 1)])
    assert "2 initial states" in oracles.dfa_contract_violations(two_starts)
    branching = Nfa({"a"}, {0, 1, 2}, {0}, {1, 2}, [(0, "a", 1), (0, "a", 2)])
    assert "two arcs from 0 on 'a'" in oracles.dfa_contract_violations(branching)
    dead_end = Nfa({"a"}, {0, 1}, {0}, {0}, [(0, "a", 1)])
    assert "states that cannot reach acceptance" in oracles.dfa_contract_violations(dead_end)
    redundant = Nfa({"a"}, {0, 1}, {0}, {0, 1}, [(0, "a", 1), (1, "a", 0)])
    assert "2 states but 1 Moore classes" in oracles.dfa_contract_violations(redundant)


# hand-built inputs for `_minimal_dfa_of_reversal`, over the letters a and b
MINIMIZE_CASES = {
    # an epsilon cycle between 1 and the accepting state 2
    "epsilon cycle": Nfa("ab", {0, 1, 2}, {0}, {2},
                         [(0, "a", 1), (1, None, 2), (2, None, 1), (2, "b", 0), (1, "a", 1)]),
    "two initial states": Nfa("ab", {0, 1, 2}, {0, 1}, {2}, [(0, "a", 2), (1, "b", 2), (2, "a", 2)]),
    # 3 reaches acceptance but not from the start; a and b lead from 0 to
    # states of different languages, so the letter order shows in the numbering
    "unreachable state": Nfa("ab", {0, 1, 2, 3}, {0}, {1},
                             [(0, "a", 1), (0, "b", 2), (2, "a", 1), (3, "b", 1), (3, "a", 3)]),
    # 2 is reached but never reaches acceptance
    "dead state": Nfa("ab", {0, 1, 2}, {0}, {1}, [(0, "a", 1), (0, "b", 2), (2, "a", 2), (1, "b", 0)]),
    # the forward subsets {1} and {2} are distinct states of equal language
    "mergeable subsets": Nfa("ab", {0, 1, 2, 3}, {0}, {3},
                             [(0, "a", 1), (0, "b", 2), (1, "a", 3), (2, "a", 3), (3, "b", 0)]),
    "no accepting state": Nfa("ab", {0, 1}, {0}, set(), [(0, "a", 1), (1, "b", 0)]),
    "accepting state unreached": Nfa("ab", {0, 1, 2}, {0}, {2}, [(0, "a", 1), (2, "b", 2)]),
}


@pytest.mark.parametrize("name", MINIMIZE_CASES)
def test_minimal_dfa_of_hand_built_nfas(name):
    a = MINIMIZE_CASES[name]
    words = set(enumerate_accepted(a, 6))
    # the two steps of double reversal, each on its own
    assert set(enumerate_accepted(a.reversed(), 6)) == {w[::-1] for w in words}
    det = a.determinized()
    assert set(enumerate_accepted(det, 6)) == words
    assert (det.initial, det.states) == ({0}, set(range(len(det.states))))
    arcs = [(src, sym) for src, sym, _ in det.transitions]
    assert all(sym is not None for _, sym in arcs) and len(set(arcs)) == len(arcs)
    assert oracles.breadth_first_numbering(det) == {q: q for q in det.states}
    dfa = _minimal_dfa_of_reversal(a.reversed())
    assert set(enumerate_accepted(dfa, 6)) == words
    assert oracles.breadth_first_numbering(dfa) == {q: q for q in dfa.states}
    if words:
        assert oracles.dfa_contract_violations(dfa) == []
    else:
        # the empty language keeps one rejecting state, which the oracle
        # rightly flags as unable to reach acceptance
        assert (dfa.states, dfa.accepting, dfa.transitions) == ({0}, set(), ())


def test_pair_automaton_guard():
    aa = ("a", "a")
    dfa = Nfa({aa}, {0, 1}, {0}, {1}, [(0, aa, 1)])
    pa = PairAutomaton(dfa, "R")
    assert pa.accepts_pair(("a",), ("a",))
    assert not pa.accepts_pair((), ())
    assert not pa.accepts_pair(("a",), ("b",))
    malformed = [
        (Nfa({aa}, {0, 1}, {1}, {0}, [(1, aa, 0)]), "starts at state 0 alone"),
        (Nfa({aa}, {0, 1}, {0, 1}, {1}, [(0, aa, 1)]), "starts at state 0 alone"),
        (Nfa({aa}, {0, 2}, {0}, {2}, [(0, aa, 2)]), r"states must be 0\.\.1"),
        (Nfa({aa}, {0, "q"}, {0}, {"q"}, [(0, aa, "q")]), r"states must be 0\.\.1"),
        (Nfa({aa}, {0, 1}, {0}, {1}, [(0, None, 1)]), "epsilon arc"),
        (Nfa({aa}, {0, 1, 2}, {0}, {1, 2}, [(0, aa, 1), (0, aa, 2)]), "two arcs from 0"),
    ]
    for nfa, message in malformed:
        with pytest.raises(ValueError, match=message):
            PairAutomaton(nfa, "R")
    with pytest.raises(ValueError, match="direction"):
        PairAutomaton(dfa, "X")
    with pytest.raises(ValueError, match="direction must be 'R' or 'L', got 'X'"):
        synchronize(copy_machine(), "X")


def test_accepts_pair_matches_general_nfa_path():
    # the table walk against Nfa.accepts on the tuple encoding; the words
    # include letters outside some machines' alphabets and unequal lengths
    words = words_over(ABC, 3)
    machines = [
        copy_machine(("a",)), copy_machine(), append_machine(), append_machine(sigma=("a", "b")),
    ]
    for t in machines:
        for direction, encode in (("R", delta_r), ("L", delta_l)):
            pa = synchronize(t, direction)
            for u in words:
                for v in words:
                    assert pa.accepts_pair(u, v) == pa.nfa.accepts(encode(u, v)), (direction, u, v)


def test_synchronize_empty_relation():
    empty = Transducer(ABC, ABC, {0, 1}, {0}, {1}, [])
    pa = synchronize(empty, "R")
    assert len(pa.nfa.states) == 1 and not pa.nfa.accepting
    assert not pa.accepts_pair((), ())


def append_two_machine():
    # appends "aa": length discrepancy 2, an awaited queue of 2 under L padding
    return Transducer(
        ("a", "b"),
        ("a", "b"),
        {0, 1, 2},
        {0},
        {2},
        [(0, "a", ("a",), 0), (0, "b", ("b",), 0), (0, None, ("a",), 1), (1, None, ("a",), 2)],
    )


def test_synchronize_state_limit(monkeypatch):
    monkeypatch.setattr(automata, "SEARCH_LIMIT", 2)
    with pytest.raises(ResourceLimit, match="synchronize exceeded 2 configurations"):
        synchronize(append_machine(), "R")


def test_synchronize_derives_its_buffer_bound():
    pa = synchronize(append_two_machine(), "L")
    assert pa.accepts_pair(("b",), ("b", "a", "a"))
    assert not pa.accepts_pair(("b",), ("b", "a"))


def test_synchronize_graphs_of_small_machines_are_pinned(monkeypatch):
    # the (configurations, arcs) of the graph handed to minimization, R then
    # L.  Under R a closed right word has nothing left to match, so the lag
    # test refuses a produced letter past it; without that, machines with
    # negative suffix lags keep dead configurations
    graphs = []
    minimal_dfa = automata._minimal_dfa_of_reversal

    def record(r):
        graphs.append((len(r.states), len(r.transitions)))
        return minimal_dfa(r)

    monkeypatch.setattr(automata, "_minimal_dfa_of_reversal", record)
    expected = {
        mixed_lag_machine: [(12, 20), (23, 57)],
        rotate_machine: [(6, 14), (6, 14)],
        drop_last_machine: [(2, 6), (9, 42)],
        append_two_machine: [(13, 18), (19, 34)],
        append_machine: [(6, 9), (10, 25)],
    }
    for machine, sizes in expected.items():
        graphs.clear()
        t = machine()
        for direction in "RL":
            synchronize(t, direction)
        assert graphs == sizes, machine.__name__


def test_synchronize_refuses_unbounded_lag():
    doubling = Transducer(("a",), ("a",), {0}, {0}, {0}, [(0, "a", ("a", "a"), 0)])
    for direction in "RL":
        with pytest.raises(ValueError, match="unbounded lag"):
            synchronize(doubling, direction)


def silent_detour_machine():
    # reads x y and emits pqr, or reads y and emits q.  Every path from s
    # to the output p first reads x and emits nothing, then follows epsilon
    # arcs that emit nothing (a cycle between a and b)
    arcs = [("s", "x", (), "a"), ("a", None, (), "b"), ("b", None, (), "a"),
            ("b", "y", ("p", "q"), "c"), ("c", None, ("r",), "f"), ("s", "y", ("q",), "f")]
    return Transducer(("x", "y"), ("p", "q", "r"), {"s", "a", "b", "c", "f"}, {"s"}, {"f"}, arcs)


def test_can_emit_crosses_arcs_with_empty_output():
    prep = silent_detour_machine()._prepared
    (start,) = prep.t.initial
    assert _can_emit(prep, start, ("p", "q", "r"))
    assert not _can_emit(prep, start, ("p", "r"))
    assert not _can_emit(prep, start, ("r",))
    reference = oracles.output_prefixes(prep.t, 4)
    for q in prep.t.states:
        for w in words_over(("p", "q", "r"), 4):
            assert _can_emit(prep, q, w) == (w in reference[q]), (q, w)


def test_lag_bound():
    empty = Transducer(ABC, ABC, {0, 1}, {0}, {1}, [])
    assert copy_machine()._prepared.bound == 0
    assert append_machine()._prepared.bound == 1
    assert append_two_machine()._prepared.bound == 2
    assert empty._prepared.bound == 0


def per_pair(pa, words):
    return {(u, v) for u in words for v in words if pa.accepts_pair(u, v)}


def mutate(pa, accepting=None, transitions=None):
    a = pa.nfa
    return PairAutomaton(
        Nfa(a.alphabet, a.states, a.initial,
            a.accepting if accepting is None else accepting,
            a.transitions if transitions is None else transitions),
        pa.direction,
    )


def test_accepted_pairs_matches_accepts_pair():
    # the prefix-sharing walk against the one-pair walk on every pair; the
    # words include the empty word, unequal lengths either way round and
    # letters outside some machines' alphabets ("c" for the ab machines,
    # "z" for all)
    words = words_over(ABC, 3) + [("z",), ("a", "z"), ("z", "b", "a", "c")]
    machines = [
        copy_machine(("a",)), copy_machine(), append_machine(), append_machine(sigma=("a", "b")),
        append_two_machine(), drop_last_machine(),
    ]
    for t in machines:
        for direction in "RL":
            pa = synchronize(t, direction)
            accepted = pa.accepted_pairs(words)
            assert accepted, direction
            assert accepted == per_pair(pa, words), direction


def test_accepted_pairs_sees_mutations():
    # a flipped final flag and a dropped arc each change the accepted set,
    # and the walk still agrees with accepts_pair on the mutated machine
    words = words_over(ABC, 3)
    for direction in "RL":
        pa = synchronize(append_machine(), direction)
        arc = sorted(pa.nfa.transitions, key=repr)[0]
        mutants = [
            mutate(pa, accepting=pa.nfa.accepting ^ {0}),
            mutate(pa, transitions=set(pa.nfa.transitions) - {arc}),
        ]
        for mutant in mutants:
            accepted = mutant.accepted_pairs(words)
            assert accepted != pa.accepted_pairs(words), direction
            assert accepted == per_pair(mutant, words), direction


def test_accepted_strings_are_valid_encodings():
    t = append_machine(sigma=("a", "b"))
    words = words_over(("a", "b"), 3)
    for direction, enc in (("R", delta_r), ("L", delta_l)):
        pa = synchronize(t, direction)
        valid = {enc(u, u + ("a",)) for u in words}
        accepted = set(enumerate_accepted(pa.nfa, 4))
        assert accepted == valid


def test_pair_dfas_read_no_pad_after_letters():
    # a^k -> a^k b and a^k b -> a^k: under L the right side pads for the
    # first relation only, the left side for the second, and neither may
    # read $ again after its letters.  That `phase` guard alone keeps
    # strings like (($,a),(a,$),($,a),(a,$),($,b)) out of the L DFA
    sigma = ("a", "b")
    arcs = [(0, "a", ("a",), 0), (0, None, ("b",), 1), (0, "b", (), 1)]
    t = Transducer(sigma, sigma, {0, 1}, {0}, {1}, arcs)
    graph = [(u, v) for u in words_over(sigma, 5) for v in transducer_outputs(t, u)]
    for direction, enc in (("R", delta_r), ("L", delta_l)):
        encodings = {enc(u, v) for u, v in graph if max(len(u), len(v)) <= 5}
        accepted = set(enumerate_accepted(synchronize(t, direction).nfa, 5))
        assert accepted == encodings, direction


def test_exports_are_deterministic():
    t = append_machine()
    assert transducer_to_json(t) == transducer_to_json(append_machine())
    pa1 = nfa_to_json(synchronize(t, "R").nfa)
    pa2 = nfa_to_json(synchronize(append_machine(), "R").nfa)
    assert pa1 == pa2


def test_trim_drops_useless_states():
    t = Transducer(ABC, ABC, {0, 1, 9}, {0}, {1}, [(0, "a", ("a",), 1), (1, "a", (), 9)])
    trimmed = trim(t)
    assert 9 not in trimmed.states
    assert ("a",) in transducer_outputs(trimmed, ("a",))


def forward_mergeable_machine():
    # reads a b b* and copies it; x and y are forward bisimilar.  f accepts
    # and x, y do not, although all three read b and emit it: a merge by
    # arcs alone would accept (a, a)
    arcs = [("s", "a", ("a",), "x"), ("s", "a", ("a",), "y"), ("x", "b", ("b",), "f"),
            ("y", "b", ("b",), "f"), ("f", "b", ("b",), "f")]
    return Transducer(("a", "b"), ("a", "b"), {"s", "x", "y", "f"}, {"s"}, {"f"}, arcs)


def backward_mergeable_machine():
    # (aa, aab) and (ab, a): x and y are backward bisimilar but not forward
    arcs = [("s", "a", ("a",), "x"), ("s", "a", ("a",), "y"), ("x", "a", ("a", "b"), "f"),
            ("y", "b", (), "f")]
    return Transducer(("a", "b"), ("a", "b"), {"s", "x", "y", "f"}, {"s"}, {"f"}, arcs)


def test_synchronize_keeps_the_relation_of_mergeable_machines():
    # the search runs on the trimmed machine itself, bisimilar states and
    # all; both pair DFAs of each machine accept exactly its graph
    words = words_over(("a", "b"), 4)
    for t in (forward_mergeable_machine(), backward_mergeable_machine()):
        graph = {(u, v) for u in words for v in transducer_outputs(t, u) if v in words}
        for direction in "RL":
            assert synchronize(t, direction).accepted_pairs(words) == graph, direction
