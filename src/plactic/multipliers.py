"""Normal-form languages and multiplication transducers.

K is the language of column words chained under `column_ge` (exactly the
normal forms of the column rewriting system); L is its expansion to letter
words, the column readings of tableaux.  Right multiplication by a letter is
recognized by a transducer that replays column insertion in one right-to-left
pass with one-symbol lookahead realized as guess-and-verify states; left
multiplication needs a single left-to-right pass carrying one pending letter.
Lifting through the column-spelling relation and synchronizing both padded
encodings yields the four multiplier pair automata per generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from plactic.automata import (
    Nfa,
    PairAutomaton,
    Transducer,
    compose_relations,
    rational_image,
    reverse_relation,
    synchronize,
    trim,
)
from plactic.core import Column, check_rank, column_ge, iter_columns
from plactic.errors import RankError
from plactic.rewriting import product_columns

START = "start"
END_CLAIM = None  # claim that the input has no further symbol


def build_k_acceptor(n: int) -> Nfa:
    """Acceptor for K: one state per column remembering the previous symbol;
    every state accepting (the empty word is in K)."""
    check_rank(n)
    cols = list(iter_columns(n))
    states = [START] + cols
    transitions = [(START, c, c) for c in cols]
    transitions += [(a, b, b) for a in cols for b in cols if column_ge(a, b)]
    return Nfa(cols, states, {START}, set(states), transitions)


def _entry(col: Column, m: int) -> int:
    """Row-m entry of a column (1-based from the bottom)."""
    return col[len(col) - m]


def _cascade(cur: Column, left: Optional[Column], m: int, eta: int, rank: int):
    """Resolve all insertion steps that touch the column `cur`, given the
    claimed column to its left (None when `cur` is leftmost).

    Starting state: the letter `eta` wants to enter row m.  Returns
    (new_column, exit, payload) where exit is one of
      "done"  - insertion finished inside this column,
      "ins"   - a bump continues in some column further left at (row, letter),
      "app"   - a letter must be appended atop a column further left,
    or None when no valid run matches (the configuration is impossible).
    """
    col = list(cur)
    r, theta = m, eta
    while True:
        left_reaches = left is not None and len(left) >= r
        if left_reaches and _entry(left, r) > theta:
            # the row-r target is weakly left of the claimed column
            return tuple(col), "ins", (r, theta)
        if r <= len(col):
            e = col[len(col) - r]
            if e > theta:
                col[len(col) - r] = theta
                r, theta = r + 1, e
                continue
            return None  # the row-r slot here is too small: no valid run
        # r == len(col) + 1: the bump climbed past the top of this column
        if r > rank:
            return None
        if left_reaches or left is None:
            # row r ends just left of here, so theta lands on top of cur
            if theta <= col[0]:
                return None
            return (theta,) + tuple(col), "done", None
        return tuple(col), "app", (r, theta)


def right_multiplier(n: int, gamma: int) -> Transducer:
    """Transducer for right multiplication by `gamma` on K.

    Built over reversed words (reading the column word right to left, i.e.
    rightmost column first) and wrapped with `reverse_relation`.  States
    carry the pending insertion, and the nondeterministic lookahead at the
    next (leftward) column is a stored claim verified on reading it.
    """
    check_rank(n)
    if not 1 <= gamma <= n:
        raise RankError(f"letter {gamma} outside 1..{n}")
    cols = list(iter_columns(n))
    ge_pairs = {(a, b) for a in cols for b in cols if column_ge(a, b)}

    states = {START, "check_bottom", "end"}
    transitions = []

    def claims(s: Column):
        yield END_CLAIM
        for g in cols:
            if (g, s) in ge_pairs:
                yield g

    def dispatch(src, s: Column, m: int, eta: int):
        """Transitions out of `src` that read s and resolve row m for eta."""
        for g in claims(s):
            res = _cascade(s, g, m, eta, n)
            if res is None:
                continue
            new_col, exit_, payload = res
            if exit_ == "done":
                dst = "end" if g is END_CLAIM else ("copy_v", g)
            elif exit_ == "ins":
                if g is END_CLAIM:
                    continue
                dst = ("ins",) + payload + (g,)
            else:  # "app"
                if g is END_CLAIM:
                    continue
                dst = ("app",) + payload + (g,)
            states.add(dst)
            transitions.append((src, s, (new_col,), dst))

    # new rightmost column: emit c_gamma up front, then verify the bottom
    # letter of the first column read is <= gamma (or that the input is empty)
    transitions.append((START, None, ((gamma,),), "check_bottom"))
    for s in cols:
        if s[-1] <= gamma:
            states.add(("copy", s))
            transitions.append(("check_bottom", s, (s,), ("copy", s)))
        else:
            dispatch(START, s, 1, gamma)

    # resolve pending work state by state until no new states appear
    done = set()
    while True:
        pending = [q for q in states if isinstance(q, tuple) and q not in done]
        if not pending:
            break
        for q in pending:
            done.add(q)
            kind = q[0]
            if kind == "ins":
                _, m, eta, g = q
                dispatch(q, g, m, eta)
            elif kind == "app":
                _, m, eta, g = q
                if len(g) != m - 1:
                    continue
                for g2 in claims(g):
                    if g2 is END_CLAIM:
                        if eta > g[0]:
                            dst = "end"
                            transitions.append((q, g, ((eta,) + g,), dst))
                    elif len(g2) >= m:
                        if _entry(g2, m) > eta:
                            dst = ("ins", m, eta, g2)
                            states.add(dst)
                            transitions.append((q, g, (g,), dst))
                        elif eta > g[0]:
                            dst = ("copy_v", g2)
                            states.add(dst)
                            transitions.append((q, g, ((eta,) + g,), dst))
                    else:  # len(g2) == m - 1: the append site is further left
                        dst = ("app", m, eta, g2)
                        states.add(dst)
                        transitions.append((q, g, (g,), dst))
            elif kind == "copy_v":
                g = q[1]
                dst = ("copy", g)
                states.add(dst)
                transitions.append((q, g, (g,), dst))
            elif kind == "copy":
                p = q[1]
                for s in cols:
                    if (s, p) in ge_pairs:
                        dst = ("copy", s)
                        states.add(dst)
                        transitions.append((q, s, (s,), dst))

    accepting = {"end", "check_bottom"} | {q for q in states if isinstance(q, tuple) and q[0] == "copy"}
    reversed_machine = Transducer(cols, cols, states, {START}, accepting, transitions)
    return trim(reverse_relation(reversed_machine))


def left_multiplier(n: int, gamma: int) -> Transducer:
    """Transducer for left multiplication by `gamma` on K: a single
    left-to-right pass storing one pending letter."""
    check_rank(n)
    if not 1 <= gamma <= n:
        raise RankError(f"letter {gamma} outside 1..{n}")
    cols = list(iter_columns(n))
    ge_pairs = {(a, b) for a in cols for b in cols if column_ge(a, b)}

    states = {"final"}
    transitions = []

    def pend(eta, prev):
        q = ("pend", eta, prev)
        states.add(q)
        return q

    def copy(prev):
        q = ("copy", prev)
        states.add(q)
        return q

    start = pend(gamma, None)
    for eta in range(1, n + 1):
        for prev in [None] + cols:
            q = ("pend", eta, prev)
            states.add(q)
            transitions.append((q, None, ((eta,),), "final"))
            for s in cols:
                if prev is not None and (prev, s) not in ge_pairs:
                    continue
                product = product_columns((eta,), s)
                if product is None:
                    transitions.append((q, s, ((eta,), s), copy(s)))
                elif len(product) == 1:
                    transitions.append((q, s, (product[0],), copy(s)))
                else:
                    new_left, bumped = product
                    if len(bumped) != 1:
                        raise AssertionError("right column of a letter product must be a letter")
                    transitions.append((q, s, (new_left,), pend(bumped[0], s)))
    for prev in cols:
        q = ("copy", prev)
        states.add(q)
        for s in cols:
            if (prev, s) in ge_pairs:
                transitions.append((q, s, (s,), copy(s)))

    accepting = {"final"} | {q for q in states if isinstance(q, tuple) and q[0] == "copy"}
    machine = Transducer(cols, cols, states, {start}, accepting, transitions)
    return trim(machine)


@dataclass(frozen=True)
class QRelation:
    """The column-spelling relation and its inverse.

    forward maps each column symbol to its letters; inverse nondeterministically
    factors a letter word into columns (any factorization, not only the chained
    one - the middle relation of a lift constrains both ends to K anyway).
    """

    rank: int
    forward: Transducer
    inverse: Transducer


def build_q(n: int) -> QRelation:
    check_rank(n)
    cols = list(iter_columns(n))
    letters = list(range(1, n + 1))

    forward = Transducer(
        cols,
        letters,
        {"q"},
        {"q"},
        {"q"},
        [("q", c, c, "q") for c in cols],
    )

    # inverse: grow a strictly decreasing partial column, close it anytime
    states = {()} | {c for c in cols}
    transitions = []
    for x in letters:
        transitions.append(((), x, (), (x,)))
    for p in cols:
        for x in letters:
            if x < p[-1]:
                transitions.append((p, x, (), p + (x,)))
        transitions.append((p, None, (p,), ()))
    inverse = Transducer(letters, cols, states, {()}, {()}, transitions)
    return QRelation(n, forward, inverse)


def build_l_acceptor(n: int) -> Nfa:
    """Acceptor for L, the column readings of tableaux: the image of K under
    the column-spelling relation."""
    q = build_q(n)
    return rational_image(q.forward, build_k_acceptor(n))


def lift_multiplier(t: Transducer, q: QRelation) -> Transducer:
    """Conjugate a multiplier over column symbols into one over letters."""
    return compose_relations(compose_relations(q.inverse, t), q.forward)


def identity_multiplier(n: int) -> Transducer:
    """The identity relation on L (the empty-generator multiplier)."""
    accept = build_l_acceptor(n)
    transitions = []
    for src, sym, dst in accept.transitions:
        if sym is None:
            transitions.append((src, None, (), dst))
        else:
            transitions.append((src, sym, (sym,), dst))
    letters = list(range(1, n + 1))
    return trim(
        Transducer(letters, letters, accept.states, accept.initial, accept.accepting, transitions)
    )


def lifted_multiplier(n: int, gamma: Optional[int], side: str = "right") -> Transducer:
    """Multiplier over letters for one generator (None = empty generator)."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if gamma is None:
        return identity_multiplier(n)
    q = build_q(n)
    base = right_multiplier(n, gamma) if side == "right" else left_multiplier(n, gamma)
    return lift_multiplier(base, q)


def multiplier_pair_automata(
    n: int, gamma: Optional[int], state_limit: int = 10**6
) -> dict[tuple[str, str], PairAutomaton]:
    """The four padded multiplier automata for one generator: both sides,
    both padding directions.  gamma=None gives the empty-generator identity."""
    out: dict[tuple[str, str], PairAutomaton] = {}
    for side in ("right", "left"):
        lifted = lifted_multiplier(n, gamma, side)
        for direction in ("R", "L"):
            out[(side, direction)] = synchronize(lifted, direction, state_limit)
    return out


def general_multiplier(n: int, b, side: str = "right") -> Transducer:
    """Multiplier for a word over the alphabet, chained from single-letter
    multipliers; the length discrepancy of the relation equals len(b)."""
    word = tuple(b)
    if not word:
        return identity_multiplier(n)
    if side == "right":
        # u -> u b1 b2 ... : apply the b1 multiplier first
        machine = lifted_multiplier(n, word[0], "right")
        for x in word[1:]:
            machine = compose_relations(machine, lifted_multiplier(n, x, "right"))
        return machine
    # b1 b2 ... bk u : the bk multiplier applies first
    machine = lifted_multiplier(n, word[-1], "left")
    for x in reversed(word[:-1]):
        machine = compose_relations(machine, lifted_multiplier(n, x, "left"))
    return machine
