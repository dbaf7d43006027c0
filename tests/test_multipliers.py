import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from plactic import automata, verify
from plactic.automata import (
    Nfa,
    PairAutomaton,
    delta_l,
    delta_r,
    enumerate_accepted,
    nfa_to_json,
    synchronize,
    transducer_images,
    transducer_outputs,
    transducer_to_json,
    trim,
)
from plactic.core import column_ge, column_runs, iter_columns, iter_tableaux, tableau_of_word
from plactic.errors import RankError
from plactic.multipliers import (
    build_k_acceptor,
    build_l_acceptor,
    general_multiplier,
    generator_machines,
    left_multiplier,
    lift,
    lifted_multiplier,
    multiplier_pair_automata,
    right_multiplier,
)
from plactic.rewriting import generate_rules, is_normal_form, normalize

import oracles

SRC = Path(__file__).resolve().parents[1] / "src"
KEYS = (("left", "L"), ("left", "R"), ("right", "L"), ("right", "R"))

# states of the minimal pair DFAs, keyed like KEYS; a minimal DFA is unique,
# so these counts fingerprint each language
MINIMAL_STATES = {
    3: {None: (12, 12, 12, 12), 1: (13, 13, 19, 23), 2: (15, 16, 15, 16), 3: (17, 17, 13, 13)},
    4: {1: (33, 33, 58, 70)},
}

# states of the column right multiplier and of its lift, by rank and gamma;
# they guard the size of the carry construction
RIGHT_MULTIPLIER_STATES = {
    2: {1: (6, 7), 2: (5, 6)},
    3: {1: (13, 22), 2: (11, 16), 3: (9, 14)},
}

# the same for the column left multiplier and its lift
LEFT_MULTIPLIER_STATES = {
    2: {1: (5, 6), 2: (5, 6)},
    3: {1: (9, 14), 2: (10, 17), 3: (11, 19)},
}

# (states, transitions) of the rank-2 multipliers by two-letter words,
# composed from the lifted multipliers by `compose_relations`
GENERAL_MULTIPLIER_SIZES = {
    ((1, 2), "right"): (37, 48),
    ((1, 2), "left"): (24, 31),
    ((2, 1), "right"): (28, 36),
    ((2, 1), "left"): (19, 25),
}

# sha256 over the JSON export of every rank-2 and rank-3 pair DFA; the DFAs
# are minimal and canonically numbered, so equal languages give equal bytes
PAIR_DFA_SHA256 = "7731fb47f1aed2695ac7f1f4cfffd064e3409708375b07056f8cb377cc436b7d"

# the same digest over every rank-4 pair DFA
PAIR_DFA_RANK4_SHA256 = "c0738dbec4b5751ae4923026a65a8a653f1872050f661814eb85b99924bb3f23"

# the same digest over every rank-5 pair DFA
PAIR_DFA_RANK5_SHA256 = "e30f1eaac2f63eb81679acf46fd80c64da2160695218f1293a722a01bdd4e968"

# configurations `synchronize` builds for the 16 rank-3 pair automata, and
# how many of them can reach acceptance
RANK3_CONFIGURATIONS = (420, 405)


def k_words(rank, max_cells):
    return [t.columns for t in iter_tableaux(rank, max_cells)]


def l_words(rank, max_cells):
    return [t.column_reading() for t in iter_tableaux(rank, max_cells)]


def test_k_acceptor_examples():
    k = build_k_acceptor(2)
    assert k.accepts(((2, 1), (1,)))
    assert not k.accepts(((1,), (2, 1)))
    assert k.accepts(())


def test_k_acceptor_is_normal_form_language():
    rs = generate_rules(3)
    k = build_k_acceptor(3)
    cols = list(iter_columns(3))
    for w in itertools.product(cols, repeat=2):
        assert k.accepts(w) == is_normal_form(w, rs)
    for w in itertools.product(cols, repeat=3):
        assert k.accepts(w) == is_normal_form(w, rs)


def test_right_multiplier_examples():
    rm = right_multiplier(2, 1)
    assert ((2, 1), (1,), (1,)) in transducer_outputs(rm, ((2, 1), (1,)))
    assert ((1,),) in transducer_outputs(rm, ())
    rm2 = right_multiplier(2, 2)
    assert ((1,), (2,)) in transducer_outputs(rm2, ((1,),))
    with pytest.raises(RankError, match="letter 4 outside 1..3"):
        right_multiplier(3, 4)


def test_left_multiplier_examples():
    lm = left_multiplier(2, 2)
    assert ((2, 1), (1,)) in transducer_outputs(lm, ((1,), (1,)))
    assert ((2,),) in transducer_outputs(lm, ())
    lm3 = left_multiplier(3, 3)
    assert ((3, 2, 1),) in transducer_outputs(lm3, ((2, 1),))
    with pytest.raises(RankError, match="letter 4 outside 1..3"):
        left_multiplier(3, 4)


def test_multipliers_match_normalization():
    for n in (1, 2, 3):
        rs = generate_rules(n)
        words = k_words(n, 5)
        for gamma in range(1, n + 1):
            rm = right_multiplier(n, gamma)
            lm = left_multiplier(n, gamma)
            for u in words:
                assert transducer_outputs(rm, u) == {normalize(u + ((gamma,),), rs)}
                assert transducer_outputs(lm, u) == {normalize(((gamma,),) + u, rs)}


def test_multiplier_domain_is_k():
    # words with one incomparable adjacency are outside the domain
    for n in (2, 3):
        rm = right_multiplier(n, 1)
        lm = left_multiplier(n, 1)
        cols = list(iter_columns(n))
        for a in cols:
            for b in cols:
                if not column_ge(a, b):
                    assert transducer_outputs(rm, (a, b)) == set()
                    assert transducer_outputs(lm, (a, b)) == set()


def test_multiplier_outputs_stay_in_k():
    k = build_k_acceptor(3)
    for gamma in (1, 2, 3):
        rm = right_multiplier(3, gamma)
        lm = left_multiplier(3, gamma)
        for u in k_words(3, 5):
            for v in transducer_outputs(rm, u) | transducer_outputs(lm, u):
                assert k.accepts(v)


def test_transducer_images_match_transducer_outputs():
    # every column and lifted multiplier at ranks 2-4, both sides, on the
    # tableau words (the empty tableau gives the empty word) and on the
    # non-normal column pairs, which neither kind of machine reads
    for n in (2, 3, 4):
        cols = list(iter_columns(n))
        non_k = [(a, b) for a in cols for b in cols if not column_ge(a, b)]
        kwords = k_words(n, 6) + non_k
        lwords = l_words(n, 6) + [a + b for a, b in non_k]
        off_l = [w for w in lwords if tableau_of_word(w).column_reading() != w]
        assert () in kwords and () in lwords and off_l
        for gamma in [None] + list(range(1, n + 1)):
            for side in ("right", "left"):
                machines = [(lifted_multiplier(n, gamma, side), lwords, off_l)]
                if gamma is not None:
                    column = right_multiplier if side == "right" else left_multiplier
                    machines.append((column(n, gamma), kwords, non_k))
                for t, words, outside in machines:
                    images = transducer_images(t, words)
                    assert images == {u: transducer_outputs(t, u) for u in words}, (n, gamma, side)
                    assert all(images[u] == set() for u in outside)


def test_lift_over_the_word_runs_matches_the_full_lift():
    # `multiply` builds the machine over the runs of its word alone: on every
    # letter word, in L or not, that machine gives the word the outputs of
    # the machine over all columns
    for n, max_len in ((2, 6), (3, 5), (4, 4)):
        words = [w for k in range(max_len + 1) for w in itertools.product(range(1, n + 1), repeat=k)]
        for gamma in range(1, n + 1):
            for side in ("right", "left"):
                images = transducer_images(lifted_multiplier(n, gamma, side), words)
                for u in words:
                    restricted = lifted_multiplier(n, gamma, side, set(column_runs(u)))
                    assert transducer_outputs(restricted, u) == images[u], (n, gamma, side, u)


def test_l_acceptor():
    L = build_l_acceptor(2)
    assert L.accepts((2, 1, 1))
    assert not L.accepts((1, 2, 1))
    assert L.accepts(())


def test_l_acceptor_is_readings_language():
    L = build_l_acceptor(3)
    readings = set(l_words(3, 4))
    words = [w for k in range(5) for w in itertools.product((1, 2, 3), repeat=k)]
    for w in words:
        assert L.accepts(w) == (w in readings)


def test_lifted_multiplier_examples():
    lifted = lifted_multiplier(2, 1, "right")
    assert (2, 1, 1, 1) in transducer_outputs(lifted, (2, 1, 1))
    assert (1,) in transducer_outputs(lifted, ())
    lifted_left = lifted_multiplier(2, 2, "left")
    assert (2, 1, 1) in transducer_outputs(lifted_left, (1, 1))
    assert (2,) in transducer_outputs(lifted_left, ())
    with pytest.raises(ValueError, match="side must be 'right' or 'left', got 'up'"):
        lifted_multiplier(3, 1, "up")


def column_factorizations(w):
    """Every factorization of the letter word w into strictly decreasing
    pieces, each a column."""
    if not w:
        yield ()
        return
    for i in range(1, len(w) + 1):
        if i > 1 and w[i - 1] >= w[i - 2]:
            break
        for rest in column_factorizations(w[i:]):
            yield (w[:i],) + rest


def test_spelled_matches_column_factorizations():
    # the lift against its definition, the column-spelling relation Q
    # conjugating t: all outputs of t over every factorization of w into
    # columns, spelled in letters, on every word of <= 5 letters, in L or not
    words = [w for k in range(6) for w in itertools.product((1, 2, 3), repeat=k)]
    for gamma in (1, 2, 3):
        for t in (right_multiplier(3, gamma), left_multiplier(3, gamma)):
            lifted = lift(t, 3)
            for w in words:
                expected = {
                    sum(v, ())
                    for cols in column_factorizations(w)
                    for v in transducer_outputs(t, cols)
                }
                assert transducer_outputs(lifted, w) == expected, (gamma, w)


def test_column_multipliers_and_lifts_are_trim():
    # `multipliers` trims none of them: `_explore` builds only reachable
    # states, every state it builds can reach acceptance, and a pending
    # column of the lift grows only toward a column its state reads
    for rank in (2, 3, 4, 5):
        for gamma in range(1, rank + 1):
            for t in (right_multiplier(rank, gamma), left_multiplier(rank, gamma)):
                for machine in (t, lift(t, rank)):
                    assert trim(machine).states == machine.states, (rank, gamma)


def test_lifts_close_each_column_on_its_last_letter():
    # a column's last letter emits the column's output, so the lift's only
    # epsilon arcs are the column machine's own, spelled, and a mid-column
    # state is made only where a longer column reads on
    for rank in (2, 3, 4, 5):
        for gamma in range(1, rank + 1):
            for t in (right_multiplier(rank, gamma), left_multiplier(rank, gamma)):
                lifted = lift(t, rank)
                own = {((r, ()), None, sum(out, ()), (r2, ())) for r, sym, out, r2 in t.transitions if sym is None}
                assert {tr for tr in lifted.transitions if tr[1] is None} == own, (rank, gamma)
                assert len(own) == sum(1 for tr in t.transitions if tr[1] is None), (rank, gamma)
                for q in lifted.states:
                    if q[0] == "mid":
                        syms = [sym for sym, _, _ in lifted.arcs_from(q)]
                        assert syms and None not in syms, (rank, gamma, q)


def test_lifted_relation_is_functional_on_l():
    for side in ("right", "left"):
        for gamma in (1, 2):
            lifted = lifted_multiplier(2, gamma, side)
            for u in l_words(2, 5):
                prod = u + (gamma,) if side == "right" else (gamma,) + u
                assert transducer_outputs(lifted, u) == {
                    tableau_of_word(prod).column_reading()
                }
            # not defined off L
            assert transducer_outputs(lifted, (1, 2, 1)) == set()


def test_identity_multiplier():
    ident = lifted_multiplier(2, None)
    # the empty word is a generator too, on either side
    empty_words = [general_multiplier(2, (), side) for side in ("right", "left")]
    for u in l_words(2, 4):
        assert transducer_outputs(ident, u) == {u}
        assert all(transducer_outputs(m, u) == {u} for m in empty_words)
    assert transducer_outputs(ident, (1, 2, 1)) == set()
    assert all(transducer_outputs(m, (1, 2, 1)) == set() for m in empty_words)


def test_pair_automata_samples():
    machines = multiplier_pair_automata(2, 1)
    assert machines[("right", "R")].accepts_pair((2, 1, 1), (2, 1, 1, 1))
    assert not machines[("right", "R")].accepts_pair((2, 1, 1), (2, 1, 1))
    assert machines[("right", "L")].accepts_pair((2, 1, 1), (2, 1, 1, 1))
    assert machines[("left", "R")].accepts_pair((1, 1), (2, 1, 1)) == (
        tableau_of_word((1, 1, 1)) == tableau_of_word((2, 1, 1))
    )


def test_pair_automata_exhaustive_rank2():
    words = l_words(2, 5)
    for gamma in (None, 1, 2):
        machines = multiplier_pair_automata(2, gamma)
        g = (gamma,) if gamma else ()
        for (side, direction), pa in machines.items():
            expected = {
                u: tableau_of_word(u + g if side == "right" else g + u).column_reading()
                for u in words
            }
            for u in words:
                for v in words:
                    assert pa.accepts_pair(u, v) == (v == expected[u])


def test_accepts_pair_matches_general_nfa_path():
    # the table walk against Nfa.accepts on the tuple encoding, for all 16
    # rank-3 machines, on every pair of L-words of <= 5 cells and each true
    # product (one letter longer)
    words = l_words(3, 5)
    for gamma in (None, 1, 2, 3):
        g = (gamma,) if gamma else ()
        for (side, direction), pa in multiplier_pair_automata(3, gamma).items():
            encode = delta_r if direction == "R" else delta_l
            for u in words:
                product = tableau_of_word(u + g if side == "right" else g + u).column_reading()
                assert pa.accepts_pair(u, product)
                for v in words + [product]:
                    assert pa.accepts_pair(u, v) == pa.nfa.accepts(encode(u, v)), (
                        gamma, side, direction, u, v,
                    )


def test_accepted_pairs_matches_accepts_pair_rank3():
    # the prefix-sharing walk against the one-pair walk, for all 16 rank-3
    # machines on every pair of the 259 L-words of <= 6 cells
    words = l_words(3, 6)
    assert len(words) == 259
    for gamma in (None, 1, 2, 3):
        for key, pa in multiplier_pair_automata(3, gamma).items():
            expected = {(u, v) for u in words for v in words if pa.accepts_pair(u, v)}
            assert pa.accepted_pairs(words) == expected, (gamma, key)


def test_verify_reports_a_broken_pair_automaton(monkeypatch):
    # one accepting state of the rank-3 right R machine for gamma = 2 made
    # non-accepting: verify must report it with the count and the first
    # witness of the per-pair sweep
    real = generator_machines
    key = ("right", "R")

    def broken(n, gamma):
        column, lifted, machines = real(n, gamma)
        if gamma == 2:
            a = machines[key].nfa
            accepting = a.accepting - {min(a.accepting)}
            nfa = Nfa(a.alphabet, a.states, a.initial, accepting, a.transitions)
            machines[key] = PairAutomaton(nfa, "R")
        return column, lifted, machines

    monkeypatch.setattr(verify.multipliers, "generator_machines", broken)
    rep = verify.verify_multipliers(verify.Config())

    words = l_words(3, 6)
    pa = broken(3, 2)[2][key]
    witnesses = [
        ("right", "R", 2, u, v)
        for u in words
        for v in words
        if pa.accepts_pair(u, v) != (v == tableau_of_word(u + (2,)).column_reading())
    ]
    assert witnesses
    label = "pair automata agree with the product oracle"
    assert f"FAIL {label}: {len(witnesses)}/1073296 items failed" in rep.lines
    assert rep.failures == [f"{label}: {len(witnesses)} failures, first: {witnesses[0]!r}"]


def test_verify_reports_the_first_column_witness_by_k_word(monkeypatch):
    # the rank-3 column machines of gamma = 2 each miss one column: the right
    # one (3, 2, 1), first met at the 228th K-word, the left one (2, 1), first
    # met at the 85th; so the first witness, by K-word u and right before
    # left, is a left one, where a sweep of one side after the other would
    # name a right one first
    missing = {"right": (3, 2, 1), "left": (2, 1)}

    def planted(side, build):
        def machine(n, gamma, columns=None):
            if gamma == 2 and columns is None:
                columns = [c for c in iter_columns(n) if c != missing[side]]
            return build(n, gamma, columns)

        return machine

    monkeypatch.setattr(verify.multipliers, "right_multiplier", planted("right", right_multiplier))
    monkeypatch.setattr(verify.multipliers, "left_multiplier", planted("left", left_multiplier))
    rep = verify.verify_multipliers(verify.Config())

    kwords = [t.columns for t in iter_tableaux(3, 6)]
    witnesses = [(side, 2, u) for u in kwords for side in ("right", "left") if missing[side] in u]
    side_major = [(side, 2, u) for side in ("right", "left") for u in kwords if missing[side] in u]
    assert witnesses[0][0] == "left" and side_major[0][0] == "right"
    label = "column multipliers match normalization"
    assert f"FAIL {label}: {len(witnesses)}/{2 * 3 * len(kwords)} items failed" in rep.lines
    assert rep.failures[0] == f"{label}: {len(witnesses)} failures, first: {witnesses[0]!r}"


def test_generator_machines_match_the_per_side_path():
    # the one builder of a generator's machines gives, by export, the column
    # multipliers, the lifts `multiply` builds one side at a time, and the
    # pair automata synchronized from those lifts
    for rank in (2, 3, 4):
        for gamma in (None, *range(1, rank + 1)):
            column, lifted, pairs = generator_machines(rank, gamma)
            if gamma is None:
                assert column == {}
            else:
                assert transducer_to_json(column["right"]) == transducer_to_json(right_multiplier(rank, gamma))
                assert transducer_to_json(column["left"]) == transducer_to_json(left_multiplier(rank, gamma))
            assert list(lifted) == ["right", "left"]
            assert list(pairs) == [(side, d) for side in ("right", "left") for d in ("R", "L")]
            for side in ("right", "left"):
                alone = lifted_multiplier(rank, gamma, side)
                assert transducer_to_json(lifted[side]) == transducer_to_json(alone), (rank, gamma, side)
                for direction in ("R", "L"):
                    pa = synchronize(alone, direction)
                    assert pairs[side, direction].direction == direction
                    assert nfa_to_json(pairs[side, direction].nfa) == nfa_to_json(pa.nfa), (rank, gamma, side)


def test_epsilon_pair_automata_are_identity_on_l():
    machines = multiplier_pair_automata(2, None)
    words = l_words(2, 5)
    for pa in machines.values():
        for u in words:
            assert pa.accepts_pair(u, u)
            assert not pa.accepts_pair(u, u + (1,))


def test_general_multiplier_single_letter():
    gm = general_multiplier(2, (1,), "right")
    lifted = lifted_multiplier(2, 1, "right")
    for u in l_words(2, 4):
        assert transducer_outputs(gm, u) == transducer_outputs(lifted, u)


def test_general_multiplier_two_letters():
    for b in ((1, 2), (2, 1)):
        gm = general_multiplier(2, b, "right")
        assert transducer_outputs(gm, ()) == {tableau_of_word(b).column_reading()}
        for u in l_words(2, 4):
            assert transducer_outputs(gm, u) == {
                tableau_of_word(u + b).column_reading()
            }


def test_general_multiplier_left():
    for b in ((1, 2), (2, 1)):
        gm = general_multiplier(2, b, "left")
        for u in l_words(2, 4):
            assert transducer_outputs(gm, u) == {
                tableau_of_word(b + u).column_reading()
            }


def test_k_acceptor_language_enumerates_tableaux():
    k = build_k_acceptor(2)
    accepted = set(enumerate_accepted(k, 2))
    chains = {t.columns for t in iter_tableaux(2, 6) if len(t.columns) <= 2}
    assert accepted == chains


def test_rank4_multipliers_sampled():
    # rank 4 up to 3 cells and rank 5 up to 4 cells, smallest and largest gamma
    for rank, max_cells in ((4, 3), (5, 4)):
        rs = generate_rules(rank)
        sample = [t.columns for t in iter_tableaux(rank, max_cells)]
        for gamma in (1, rank):
            rm = right_multiplier(rank, gamma)
            lm = left_multiplier(rank, gamma)
            for u in sample:
                assert transducer_outputs(rm, u) == {normalize(u + ((gamma,),), rs)}
                assert transducer_outputs(lm, u) == {normalize(((gamma,),) + u, rs)}


def test_right_multiplier_sizes_are_pinned():
    for rank, by_gamma in RIGHT_MULTIPLIER_STATES.items():
        for gamma, counts in by_gamma.items():
            sizes = (
                len(right_multiplier(rank, gamma).states),
                len(lifted_multiplier(rank, gamma, "right").states),
            )
            assert sizes == counts, (rank, gamma)
    # the empty-generator lift is the identity on L, on either side
    for side in ("right", "left"):
        assert len(lifted_multiplier(3, None, side).states) == 13, side


def test_left_multiplier_sizes_are_pinned():
    for rank, by_gamma in LEFT_MULTIPLIER_STATES.items():
        for gamma, counts in by_gamma.items():
            sizes = (
                len(left_multiplier(rank, gamma).states),
                len(lifted_multiplier(rank, gamma, "left").states),
            )
            assert sizes == counts, (rank, gamma)


def test_general_multiplier_sizes_are_pinned():
    for (b, side), counts in GENERAL_MULTIPLIER_SIZES.items():
        machine = general_multiplier(2, b, side)
        assert (len(machine.states), len(machine.transitions)) == counts, (b, side)


def test_pair_automata_are_minimal_dfas():
    for rank, by_gamma in MINIMAL_STATES.items():
        for gamma, counts in by_gamma.items():
            machines = multiplier_pair_automata(rank, gamma)
            assert tuple(len(machines[k].nfa.states) for k in KEYS) == counts
            for key in KEYS:
                assert oracles.dfa_contract_violations(machines[key].nfa) == [], (rank, gamma, key)


def test_pair_automata_are_numbered_breadth_first():
    # state i is the i-th state met breadth-first from 0, each state's arcs
    # taken in the repr order of their letters; the export digests rely on it
    for rank in (2, 3, 4):
        for gamma in [None] + list(range(1, rank + 1)):
            for key, machine in multiplier_pair_automata(rank, gamma).items():
                dfa = machine.nfa
                assert oracles.breadth_first_numbering(dfa) == {q: q for q in dfa.states}, (rank, gamma, key)


def test_padding_directions_mirror_each_other():
    # reversing delta_L(u, v) gives delta_R of the reversed words, so the L
    # machine of t is the minimized reversal of the R machine of t's reversed
    # relation, and the other way round; both routes must give equal bytes
    for rank in (2, 3, 4):
        for gamma in [None] + list(range(1, rank + 1)):
            for side in ("right", "left"):
                t = lifted_multiplier(rank, gamma, side)
                mirror = automata.reverse_relation(t)
                for direction, other in (("L", "R"), ("R", "L")):
                    via = automata._minimal_dfa_of_reversal(automata.synchronize(mirror, other).nfa)
                    direct = automata.synchronize(t, direction).nfa
                    assert nfa_to_json(via) == nfa_to_json(direct), (rank, gamma, side, direction)


def pair_dfa_digest(ranks):
    digest = hashlib.sha256()
    for rank in ranks:
        for gamma in [None] + list(range(1, rank + 1)):
            machines = multiplier_pair_automata(rank, gamma)
            for key in sorted(machines):
                digest.update(json.dumps(nfa_to_json(machines[key].nfa), sort_keys=True).encode())
                digest.update(b"\n")
    return digest.hexdigest()


def test_pair_dfa_exports_are_pinned():
    assert pair_dfa_digest((2, 3)) == PAIR_DFA_SHA256


def test_rank4_pair_dfa_exports_are_pinned():
    assert pair_dfa_digest((4,)) == PAIR_DFA_RANK4_SHA256


def test_rank5_pair_dfa_exports_are_pinned():
    assert pair_dfa_digest((5,)) == PAIR_DFA_RANK5_SHA256


def test_can_emit_matches_the_output_prefix_sets():
    # the on-demand test against the prefix sets it replaced, for every word
    # of at most `bound` letters that the search could ask about
    for gamma in (None, 1, 2, 3):
        for side in ("right", "left"):
            prep = lifted_multiplier(3, gamma, side)._prepared
            reference = oracles.output_prefixes(prep.t, prep.bound)
            letters = sorted(prep.t.out_alphabet)
            words = [w for k in range(prep.bound + 1) for w in itertools.product(letters, repeat=k)]
            for q in prep.t.states:
                for w in words:
                    assert automata._can_emit(prep, q, w) == (w in reference[q]), (gamma, side, q, w)


def test_synchronize_builds_few_dead_configurations(monkeypatch):
    # count the configuration graphs handed to minimization, and the
    # preparations: R and L on one transducer share its preparation.  The
    # graph comes reversed, so the live configurations are those its
    # initial (the accepting) configurations reach
    built, live, prepared = [], [], []
    minimal_dfa, prepare = automata._minimal_dfa_of_reversal, automata._prepare

    def record(r):
        built.append(len(r.states))
        live.append(len(automata._sweep(r.start_set(), lambda q: set().union(*r.moves(frozenset({q})).values()))))
        return minimal_dfa(r)

    monkeypatch.setattr(automata, "_minimal_dfa_of_reversal", record)
    monkeypatch.setattr(automata, "_prepare", lambda t: prepared.append(t) or prepare(t))
    for gamma in (None, 1, 2, 3):
        multiplier_pair_automata(3, gamma)
    assert (len(built), len(prepared)) == (16, 8)
    assert (sum(built), sum(live)) == RANK3_CONFIGURATIONS
    assert sum(built) <= 1.2 * sum(live)


def test_lag_bound_of_lifted_multipliers():
    # a column's output comes with its last letter, so a run one letter
    # short of a full column still writes the column and the product's
    # extra letter but reads one letter: n letters of lag
    for rank in (2, 3, 4):
        for gamma in [None] + list(range(1, rank + 1)):
            for side in ("right", "left"):
                expected = 0 if gamma is None else rank
                assert lifted_multiplier(rank, gamma, side)._prepared.bound == expected, (rank, gamma, side)


def test_machines_export_ignores_hash_seed(tmp_path):
    # exports sort at write time; nothing may depend on set or dict order
    env_path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        subprocess.run(
            [sys.executable, "-m", "plactic", "machines", "--rank", "3", "--gamma", "2",
             "--format", "json", "--out", str(out)],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": env_path},
            check=True,
            capture_output=True,
        )
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 8
    assert outputs[0] == outputs[1]
