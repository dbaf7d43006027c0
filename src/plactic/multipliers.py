"""Normal-form languages and multiplication transducers.

K is the language of column words chained under `column_ge` (exactly the
normal forms of the column rewriting system); L is its expansion to letter
words, the column readings of tableaux.  Both multipliers by a letter are
built from the rewriting rules: right multiplication is a single right-to-left
pass carrying one pending column, and left multiplication a single
left-to-right pass carrying one pending letter.
Each is lifted to letters in one spelling pass, `lift`, which reads a column
letter by letter and fires the column multiplier's arc on its last letter,
writing the output columns letter by letter on that arc; the only epsilon
arcs of a lift are the column multiplier's own.  Within a column the lift
keys a state by what it can still do, the arcs whose column goes on past
the letters read, so states that agree on that are one state.
Synchronizing both padded encodings of the lift yields the four multiplier
pair automata per generator; `generator_machines` builds a generator's
column multipliers, lifts and pair automata, each once.  The column
multipliers are built from their reachable states by `automata._explore`:
each construction gives only the arcs that leave a state.  They are trim:
every carry state can read its last column again and every pend state has
an epsilon arc to "final", so every state can also reach acceptance.

A column multiplier reads every column of its rank, or only the `columns`
it is given.  A word of L factors into a word of K only by its maximal
strictly decreasing runs, since at each column boundary the letters do not
descend; so the machine over a word's runs gives that word the outputs of
the machine over all 2^n - 1 columns, and `multiply` builds no more.
"""

from __future__ import annotations

from typing import Iterable, Optional

from plactic.automata import (
    Nfa,
    PairAutomaton,
    Transducer,
    _explore,
    compose_relations,
    reverse_relation,
    synchronize,
)
from plactic.core import Column, check_rank, column_ge, iter_columns
from plactic.errors import RankError
from plactic.rewriting import product_columns


def build_k_acceptor(n: int) -> Nfa:
    """Acceptor for K: one state per column remembering the previous symbol;
    every state accepting (the empty word is in K)."""
    check_rank(n)
    cols = list(iter_columns(n))
    states = ["start"] + cols
    transitions = [("start", c, c) for c in cols]
    transitions += [(a, b, b) for a in cols for b in cols if column_ge(a, b)]
    return Nfa(cols, states, {"start"}, set(states), transitions)


def right_multiplier(n: int, gamma: int, columns: Optional[Iterable[Column]] = None) -> Transducer:
    """Transducer for right multiplication by `gamma` on K: a single
    right-to-left pass carrying one pending column, built from the rewriting
    rules.

    Built over reversed words (rightmost column first), so each arc emits its
    columns right to left, and wrapped with `reverse_relation`.  A carry state
    holds the column X still to be placed and the last column read.  Reading
    the next column s applies the rule for the pair (s, X): a comparable pair
    emits X and s and leaves the rest to the copy phase; otherwise either s is
    the leftmost column and the whole product is emitted, or the product's
    left column is carried on and its right column, if any, is emitted.  One
    pass is enough because each emitted column is `column_ge` the column
    emitted before it, so the output is the normal form.

    The machine reads `columns`, all columns of rank n by default; its
    output alphabet is the columns its arcs emit.
    """
    check_rank(n)
    if not 1 <= gamma <= n:
        raise RankError(f"letter {gamma} outside 1..{n}")
    cols = list(iter_columns(n) if columns is None else columns)

    start = ("carry", (gamma,), None)

    def arcs(q):
        if q == "final":
            return []
        found = [(q, None, ((gamma,),), "final")] if q == start else []
        prev = q[-1]
        for s in cols:
            if prev is not None and not column_ge(s, prev):
                continue
            if q[0] == "copy":
                found.append((q, s, (s,), ("copy", s)))
                continue
            carried = q[1]
            product = product_columns(s, carried)
            if product is None:
                found.append((q, s, (carried, s), ("copy", s)))
                continue
            found.append((q, s, product[::-1], "final"))
            found.append((q, s, product[1:], ("carry", product[0], s)))
        return found

    return reverse_relation(_column_machine(cols, start, arcs))


def left_multiplier(n: int, gamma: int, columns: Optional[Iterable[Column]] = None) -> Transducer:
    """Transducer for left multiplication by `gamma` on K: a single
    left-to-right pass storing one pending letter.  The machine reads
    `columns` as `right_multiplier` does."""
    check_rank(n)
    if not 1 <= gamma <= n:
        raise RankError(f"letter {gamma} outside 1..{n}")
    cols = list(iter_columns(n) if columns is None else columns)

    start = ("pend", gamma, None)

    def arcs(q):
        if q == "final":
            return []
        found = [(q, None, ((q[1],),), "final")] if q[0] == "pend" else []
        prev = q[-1]
        for s in cols:
            if prev is not None and not column_ge(prev, s):
                continue
            if q[0] == "copy":
                found.append((q, s, (s,), ("copy", s)))
                continue
            eta = q[1]
            product = product_columns((eta,), s)
            if product is None:
                found.append((q, s, ((eta,), s), ("copy", s)))
            elif len(product) == 1:
                found.append((q, s, (product[0],), ("copy", s)))
            else:
                new_left, bumped = product
                if len(bumped) != 1:
                    raise AssertionError("right column of a letter product must be a letter")
                found.append((q, s, (new_left,), ("pend", bumped[0], s)))
        return found

    return _column_machine(cols, start, arcs)


def _column_machine(cols: list[Column], start, arcs) -> Transducer:
    """The column multiplier over the reachable states of arcs from start,
    reading cols and writing the columns its arcs emit."""
    states, transitions = _explore([start], arcs)
    accepting = {q for q in states if q == "final" or q[0] == "copy"}
    emitted = {c for _, _, out, _ in transitions for c in out}
    return Transducer(cols, emitted, states, {start}, accepting, transitions)


def build_l_acceptor(n: int) -> Nfa:
    """Acceptor for L, the column readings of tableaux: each arc of the K
    acceptor spelled as a chain of letters.  State (c, j) has read the first
    j letters of column c; the chain ends in the state c."""
    k = build_k_acceptor(n)
    transitions = []
    for src, c, dst in k.transitions:
        chain = [src] + [(c, j) for j in range(1, len(c))] + [dst]
        transitions += [(a, x, b) for a, x, b in zip(chain, c, chain[1:])]
    states = k.states | {(c, j) for c in k.alphabet for j in range(1, len(c))}
    return Nfa(range(1, n + 1), states, k.initial, k.accepting, transitions)


def lift(t: Transducer, n: int) -> Transducer:
    """The relation of t over columns, read and written in letters: a letter
    word relates to the spelling of each t-output of each factorization of
    the word into columns.

    State (r, ()) is at state r of t between columns, where t's own epsilon
    arcs fire; they are the lift's only epsilon arcs.  An arc of t that
    reads a column is spelled as a chain of letters whose last letter
    emits the arc's output columns, letter by letter, and goes straight to
    (r2, ()) for the arc's target r2.  Within a column, after the strictly
    decreasing letters p, a state is keyed by its residual arcs: the arcs
    of r whose column begins with p and goes on past it, as (rest of the
    column, spelled output, target) triples.  So states that can finish
    the column in the same ways are one state, and none is made where no
    column goes on past p.  On a trim t the lift is trim: every state
    built is reached, and every state can reach acceptance.
    """
    residual: dict = {}
    transitions = []
    for r, sym, out, r2 in t.transitions:
        spelled = tuple(x for col in out for x in col)
        if sym is None or len(sym) == 1:
            transitions.append(((r, ()), None if sym is None else sym[0], spelled, (r2, ())))
        for k in range(1, len(sym or ())):
            residual.setdefault((r, sym[:k]), set()).add((sym[k:], spelled, r2))
    key = {rp: frozenset(arcs) for rp, arcs in residual.items()}
    # short names, numbered by the first (r, p) of each residual in repr
    # order: a frozenset's repr depends on the hash seed, and long names
    # slow every later step
    name: dict = {}
    for rp in sorted(key, key=repr):
        name.setdefault(key[rp], ("mid", len(name)))
    for (r, p), arcs in key.items():
        src = name[key[r, p[:-1]]] if len(p) > 1 else (r, ())
        transitions.append((src, p[-1], (), name[arcs]))
    for arcs, mid in name.items():
        transitions += [(mid, rest[0], out, (r2, ())) for rest, out, r2 in arcs if len(rest) == 1]
    letters = range(1, n + 1)
    states = {(r, ()) for r in t.states} | set(name.values())
    initial = {(r, ()) for r in t.initial}
    accepting = {(r, ()) for r in t.accepting}
    return Transducer(letters, letters, states, initial, accepting, transitions)


def identity_multiplier(n: int) -> Transducer:
    """The identity relation on L (the empty-generator multiplier)."""
    accept = build_l_acceptor(n)
    transitions = [(src, x, (x,), dst) for src, x, dst in accept.transitions]
    return Transducer(
        accept.alphabet, accept.alphabet, accept.states, accept.initial, accept.accepting, transitions
    )


def lifted_multiplier(
    n: int, gamma: Optional[int], side: str = "right", columns: Optional[Iterable[Column]] = None
) -> Transducer:
    """Multiplier over letters for one generator (None = empty generator),
    lifted from the column multiplier that reads `columns`."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if gamma is None:
        return identity_multiplier(n)
    build = right_multiplier if side == "right" else left_multiplier
    return lift(build(n, gamma, columns), n)


def generator_machines(
    n: int, gamma: Optional[int]
) -> tuple[dict[str, Transducer], dict[str, Transducer], dict[tuple[str, str], PairAutomaton]]:
    """Every machine of one generator (None = empty generator), each built
    once: `column` maps each side to its column multiplier ({} for the empty
    generator), `lifted` each side to its lift (the identity on L for the
    empty generator), and `pairs` each (side, padding direction) to the
    pair automaton `synchronize` makes of that lift."""
    if gamma is None:
        column = {}
        lifted = {side: identity_multiplier(n) for side in ("right", "left")}
    else:
        column = {"right": right_multiplier(n, gamma), "left": left_multiplier(n, gamma)}
        lifted = {side: lift(t, n) for side, t in column.items()}
    pairs = {
        (side, direction): synchronize(t, direction) for side, t in lifted.items() for direction in ("R", "L")
    }
    return column, lifted, pairs


def multiplier_pair_automata(n: int, gamma: Optional[int]) -> dict[tuple[str, str], PairAutomaton]:
    """The four padded multiplier automata for one generator: both sides,
    both padding directions.  gamma=None gives the empty-generator identity."""
    return generator_machines(n, gamma)[2]


def general_multiplier(n: int, b, side: str = "right") -> Transducer:
    """Multiplier for a word over the alphabet, chained from single-letter
    multipliers; the length discrepancy of the relation equals len(b)."""
    word = tuple(b)
    if not word:
        return identity_multiplier(n)
    # the letter next to u applies first: b1 for u b1 ... bk, bk for b1 ... bk u
    order = word if side == "right" else word[::-1]
    machine = lifted_multiplier(n, order[0], side)
    for x in order[1:]:
        machine = compose_relations(machine, lifted_multiplier(n, x, side))
    return machine
