"""Finite automata, transducers, padded pair encodings, and synchronization.

Symbols and states are arbitrary hashable values; epsilon is represented by
None.  Machines are immutable after construction and all operations here are
pure.  Every search over states is `core._sweep`, which keeps the order it
meets them in (`_explore` also collects the transitions it follows).  Only
the walks over words keep loops of their own, `enumerate_accepted` and the
trie walks of `transducer_images` and `PairAutomaton.accepted_pairs`.
`_minimal_dfa_of_reversal` minimizes by double reversal: one subset
construction, the `_explore` walk of `Nfa.determinized`, run twice.  The
verification sweeps decide a word set with `transducer_images`;
`transducer_outputs` is the per-word search, for `multiply` and the tests.
`synchronize` turns a rational relation of bounded lag, one whose
transducer emits as many letters as it reads on every cycle, into the
minimal deterministic automaton over padded letter pairs.  It trims the
transducer; sweeps the lags of its path prefixes and suffixes; searches
the configurations of the transducer against the pair string; and
minimizes.  Everything before the search is a property of the transducer
alone and is computed once per transducer for both padding directions.
The search drops two kinds of configuration that lie on no accepting run:
a lag that no path to acceptance can settle within the padding phases
left, a test that also caps the buffer at the largest lag of a path prefix
or suffix, and an awaited output that the transducer can no longer emit.
A relation of unbounded lag is refused with ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import zip_longest
from typing import Hashable, Iterator, Sequence

from plactic.core import SEARCH_LIMIT, _sweep

PAD = "$"

Symbol = Hashable
State = Hashable


class Nfa:
    """Nondeterministic finite automaton with epsilon moves (symbol None).

    Epsilon closures and successor maps are memoized per frontier set, so
    `accepts`, `enumerate_accepted` and `determinized` share one cache; a
    machine with no epsilon arcs, such as any DFA, closes a set as itself
    and memoizes no closure.
    """

    def __init__(self, alphabet, states, initial, accepting, transitions):
        self.alphabet = frozenset(alphabet)
        self.states = frozenset(states)
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        # no particular order: the exports sort what they write
        self.transitions = tuple(set(transitions))
        if not self.initial <= self.states or not self.accepting <= self.states:
            raise ValueError("initial/accepting states must be declared states")
        self._eps: dict[State, list[State]] = {}
        self._step: dict[State, dict[Symbol, list[State]]] = {}
        for src, sym, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise ValueError(f"undeclared state in transition {(src, sym, dst)!r}")
            if sym is None:
                self._eps.setdefault(src, []).append(dst)
            else:
                if sym not in self.alphabet:
                    raise ValueError(f"undeclared symbol {sym!r}")
                self._step.setdefault(src, {}).setdefault(sym, []).append(dst)
        self._closure_cache: dict[frozenset, frozenset] = {}
        self._moves_cache: dict[frozenset, dict[Symbol, frozenset]] = {}

    def closure(self, states: frozenset) -> frozenset:
        if not self._eps:
            return states
        cached = self._closure_cache.get(states)
        if cached is not None:
            return cached
        result = frozenset(_sweep(states, lambda q: self._eps.get(q, ())))
        self._closure_cache[states] = result
        return result

    def start_set(self) -> frozenset:
        return self.closure(self.initial)

    def moves(self, frontier: frozenset) -> dict[Symbol, frozenset]:
        """The closed successor set of frontier on each letter that leads
        somewhere; memoized per frontier set."""
        if frontier not in self._moves_cache:
            nxt: dict[Symbol, set[State]] = {}
            for q in frontier:
                for sym, dsts in self._step.get(q, {}).items():
                    nxt.setdefault(sym, set()).update(dsts)
            self._moves_cache[frontier] = {sym: self.closure(frozenset(d)) for sym, d in nxt.items()}
        return self._moves_cache[frontier]

    def accepts(self, word: Sequence[Symbol]) -> bool:
        cur = self.start_set()
        for sym in word:
            cur = self.moves(cur).get(sym)
            if cur is None:
                return False
        return bool(cur & self.accepting)

    def reversed(self) -> Nfa:
        """The reversal: every arc flipped, initial and accepting swapped."""
        return Nfa(self.alphabet, self.states, self.accepting, self.initial,
                   [(dst, sym, src) for src, sym, dst in self.transitions])

    def determinized(self) -> Nfa:
        """The accessible subset construction from `start_set()`: one
        `_explore` walk over the repr-sorted letters, its subsets numbered
        0..n-1 in the order found, so breadth-first from the initial state 0.
        A letter that leads nowhere gets no arc, so no arc leads to the empty
        subset; a subset accepts when it holds an accepting state."""
        letters = sorted(self.alphabet, key=repr)

        def arcs(subset):
            out = self.moves(subset)
            return [(subset, sym, out[sym]) for sym in letters if sym in out]

        subsets, found = _explore([self.start_set()], arcs)
        index = {subset: i for i, subset in enumerate(subsets)}
        accepting = {i for subset, i in index.items() if not subset.isdisjoint(self.accepting)}
        return Nfa(self.alphabet, index.values(), {0}, accepting,
                   [(index[src], sym, index[dst]) for src, sym, dst in found])


def enumerate_accepted(a: Nfa, max_len: int) -> Iterator[tuple]:
    """All accepted words of length <= max_len, by pruned depth-first search."""
    symbols = sorted(a.alphabet, key=repr)

    # its own walk, not `_sweep`: it yields words depth-first, not states
    def walk(frontier: frozenset, prefix: tuple):
        if frontier & a.accepting:
            yield prefix
        if len(prefix) == max_len:
            return
        moves = a.moves(frontier)
        for sym in symbols:
            if sym in moves:
                yield from walk(moves[sym], prefix + (sym,))

    yield from walk(a.start_set(), ())


class Transducer:
    """Finite transducer: transitions consume one input symbol (or None) and
    emit a bounded output word."""

    def __init__(self, in_alphabet, out_alphabet, states, initial, accepting, transitions):
        self.in_alphabet = frozenset(in_alphabet)
        self.out_alphabet = frozenset(out_alphabet)
        self.states = frozenset(states)
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        # no particular order: the exports sort what they write
        self.transitions = tuple(
            {(src, sym, tuple(out), dst) for src, sym, out, dst in transitions}
        )
        if not self.initial <= self.states or not self.accepting <= self.states:
            raise ValueError("initial/accepting states must be declared states")
        self._by_state: dict[State, list[tuple[Symbol, tuple, State]]] = {}
        for src, sym, out, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise ValueError("undeclared state in transducer transition")
            if sym is not None and sym not in self.in_alphabet:
                raise ValueError(f"undeclared input symbol {sym!r}")
            for y in out:
                if y not in self.out_alphabet:
                    raise ValueError(f"undeclared output symbol {y!r}")
            self._by_state.setdefault(src, []).append((sym, out, dst))

    def arcs_from(self, state: State):
        return self._by_state.get(state, ())

    @cached_property
    def _prepared(self) -> _Prepared:
        """What `synchronize` derives from this machine (see `_Prepared`),
        shared by both directions, memo included; built at the first call
        and kept as long as the machine."""
        return _prepare(self)


def transducer_outputs(t: Transducer, u: Sequence[Symbol]) -> set[tuple]:
    """All outputs paired with input u, by bounded configuration search.

    Raises ResourceLimit when more than `SEARCH_LIMIT` configurations get
    explored, which signals an output-unbounded machine.
    """
    # kept beside `transducer_images`: it is the tests' reference for that
    # walk, and it serves the one word of `multiply`, where the walk's
    # per-call arc index costs more than the search, also on the lift over
    # the word's own columns (gamma = 2 on a six-letter word at rank 3 or 4:
    # 0.08-0.10 ms against 0.02-0.03 ms; gamma = 10 on an 18-letter word at
    # rank 20: 0.38-0.53 against 0.04-0.12 ms; both sides, 2 cores, Python
    # 3.11)
    u = tuple(u)

    def successors(cfg):
        q, i, out = cfg
        for sym, emitted, dst in t.arcs_from(q):
            if sym is None:
                yield dst, i, out + emitted
            elif i < len(u) and u[i] == sym:
                yield dst, i + 1, out + emitted

    configs = _sweep([(q, 0, ()) for q in t.initial], successors, SEARCH_LIMIT, "transducer exploration")
    return {out for q, i, out in configs if i == len(u) and q in t.accepting}


def transducer_images(t: Transducer, words) -> dict[tuple, set[tuple]]:
    """transducer_outputs(t, u) for every word u of words, by one
    depth-first walk over the trie of the words.

    Each trie node carries the configurations (output, state) of its
    prefix, closed under epsilon arcs.  The epsilon closure of each state,
    and an index of the arcs by letter and state with the closure of their
    targets folded in, are built once per call, so one letter is one set
    comprehension.  Raises ResourceLimit when an epsilon closure exceeds
    `SEARCH_LIMIT` configurations, which signals an output-unbounded machine.
    """
    # states are numbered, so a configuration hashes an output and an int
    number = {q: i for i, q in enumerate(t.states)}
    silent: dict[int, list[tuple[tuple, int]]] = {}
    for src, sym, out, dst in t.transitions:
        if sym is None:
            silent.setdefault(number[src], []).append((out, number[dst]))
    closures: dict[int, dict] = {}

    def closure(q):
        if q not in closures:
            closures[q] = _sweep(
                {((), q)},
                lambda cfg: [(cfg[0] + out, dst) for out, dst in silent.get(cfg[1], ())],
                SEARCH_LIMIT,
                "transducer exploration",
            )
        return closures[q]

    # step[x][q]: the configurations one letter x leads to from state q,
    # epsilon-closed, each with the output emitted on the way
    step: dict[Symbol, dict[int, set]] = {}
    for src, sym, out, dst in t.transitions:
        if sym is not None:
            arcs = step.setdefault(sym, {}).setdefault(number[src], set())
            arcs.update((out + e, r) for e, r in closure(number[dst]))
    accepting = {number[q] for q in t.accepting}

    images: dict[tuple, set[tuple]] = {}
    # each entry holds the words that share their first i letters, a trie
    # node, and the configurations that prefix reaches; it is split by the
    # next letter.  A stack, not recursion: no depth limit, and no cycle
    # through a nested function keeps the index alive after the call
    stack = [(list(map(tuple, words)), 0, set().union(*(closure(number[q]) for q in t.initial)))]
    while stack:
        group, i, configs = stack.pop()
        children: dict[Symbol, list[tuple]] = {}
        for w in group:
            if len(w) == i:
                images[w] = {out for out, q in configs if q in accepting}
            else:
                children.setdefault(w[i], []).append(w)
        for x, below in children.items():
            by_state = step.get(x, {})
            nxt = {(out + e, r) for out, q in configs for e, r in by_state.get(q, ())}
            if nxt:
                stack.append((below, i + 1, nxt))
            else:
                images.update((w, set()) for w in below)
    return images


def _explore(start, arcs, limit=None, what="search") -> tuple[dict, list]:
    """The states reachable from start and the transitions leaving them, by
    `_sweep`; arcs(q) lists q's transitions, tuples that begin with q and end
    with their target."""
    transitions: list[tuple] = []

    def successors(q):
        found = arcs(q)
        transitions.extend(found)
        return [tr[-1] for tr in found]

    return _sweep(start, successors, limit, what), transitions


def trim(t: Transducer) -> Transducer:
    """Restrict to states both reachable and co-reachable."""
    fwd: dict[State, set[State]] = {}
    bwd: dict[State, set[State]] = {}
    for src, _, _, dst in t.transitions:
        fwd.setdefault(src, set()).add(dst)
        bwd.setdefault(dst, set()).add(src)
    keep = _sweep(t.initial, lambda q: fwd.get(q, ())).keys() & _sweep(t.accepting, lambda q: bwd.get(q, ()))
    return Transducer(
        t.in_alphabet,
        t.out_alphabet,
        keep,
        t.initial & keep,
        t.accepting & keep,
        [tr for tr in t.transitions if tr[0] in keep and tr[3] in keep],
    )


def reverse_relation(t: Transducer) -> Transducer:
    """The reversed relation: flip every transition, reverse its output word,
    and swap initial with accepting states."""
    return Transducer(
        t.in_alphabet,
        t.out_alphabet,
        t.states,
        t.accepting,
        t.initial,
        [(dst, sym, tuple(reversed(out)), src) for src, sym, out, dst in t.transitions],
    )


def compose_relations(s: Transducer, t: Transducer) -> Transducer:
    """Relational composition: pairs (u, w) with some v where (u,v) in s and
    (v,w) in t.  Product construction; s-outputs are buffered and fed to t
    symbol by symbol, so buffers never exceed one s-transition's output."""
    start = [(q, r, ()) for q in s.initial for r in t.initial]

    def arcs(state):
        q, r, pending = state
        if pending:
            head, rest = pending[0], pending[1:]
            found = [(state, None, out, (q, r2, rest)) for sym, out, r2 in t.arcs_from(r) if sym == head]
        else:
            found = [(state, sym, (), (q2, r, tuple(out))) for sym, out, q2 in s.arcs_from(q)]
        found += [(state, None, out, (q, r2, pending)) for sym, out, r2 in t.arcs_from(r) if sym is None]
        return found

    states, transitions = _explore(start, arcs)
    accepting = {
        (q, r, pend) for (q, r, pend) in states if pend == () and q in s.accepting and r in t.accepting
    }
    return trim(Transducer(s.in_alphabet, t.out_alphabet, states, start, accepting, transitions))


# -- padded pair encodings ----------------------------------------------


def padded(u: Sequence, v: Sequence, direction: str) -> Iterator[tuple]:
    """The letter pairs of (u, v) under padding direction "R" or "L", lazily.

    R: letters pair up from the left and the shorter word is padded with $
    at its end.  L: the words align at their right ends and the shorter one
    is padded with $ at its start.
    """
    if direction == "R":
        return zip_longest(u, v, fillvalue=PAD)
    d = len(u) - len(v)
    return zip((PAD,) * -d + tuple(u), (PAD,) * d + tuple(v))


def delta_r(u: Sequence, v: Sequence) -> tuple:
    """Right-padded convolution, as a tuple of letter pairs."""
    return tuple(padded(u, v, "R"))


def delta_l(u: Sequence, v: Sequence) -> tuple:
    """Left-padded convolution, as a tuple of letter pairs."""
    return tuple(padded(u, v, "L"))


@dataclass(frozen=True)
class PairAutomaton:
    """A DFA over padded letter pairs, tagged with its encoding direction.

    `nfa` holds the DFA in the general `Nfa` form, with states 0..n-1, the
    one initial state 0, no epsilon arcs and at most one arc per (state,
    letter); construction raises ValueError otherwise.  Membership has two
    entry points over a successor table built here, once: `accepts_pair`
    decides one pair, and `accepted_pairs` decides every pair of a word set
    in one walk per pair of word lengths.
    """

    nfa: Nfa
    direction: str  # "R" or "L"
    _succ: tuple = field(init=False, repr=False, compare=False)
    _final: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = self.nfa
        if self.direction not in ("R", "L"):
            raise ValueError(f"direction must be 'R' or 'L', got {self.direction!r}")
        if a.initial != {0}:
            starts = sorted(a.initial, key=repr)
            raise ValueError(f"a pair DFA starts at state 0 alone, not at {starts!r}")
        n = len(a.states)
        if a.states != frozenset(range(n)):
            raise ValueError(f"pair DFA states must be 0..{n - 1}")
        succ: list[dict[Symbol, int]] = [{} for _ in range(n)]
        for src, sym, dst in a.transitions:
            if sym is None:
                raise ValueError(f"epsilon arc {src!r} -> {dst!r} in a pair DFA")
            if succ[src].setdefault(sym, dst) != dst:
                raise ValueError(f"two arcs from {src!r} on {sym!r} in a pair DFA")
        object.__setattr__(self, "_succ", tuple(succ))
        object.__setattr__(self, "_final", tuple(q in a.accepting for q in range(n)))

    def accepts_pair(self, u: Sequence, v: Sequence) -> bool:
        succ = self._succ
        state = 0
        for letter in padded(u, v, self.direction):
            state = succ[state].get(letter)
            if state is None:
                return False
        return self._final[state]

    def accepted_pairs(self, words) -> set[tuple[tuple, tuple]]:
        """The pairs (u, v) of words x words that the DFA accepts, as tuples;
        equal to {(u, v) | accepts_pair(u, v)}.

        The words of each length form a trie whose depth-n nodes are the
        words themselves.  For each pair of lengths (m, n) one depth-first
        walk follows the successor table over pairs of nodes, one letter
        pair per step, with $ on the shorter side after its word under R and
        before it under L.  A missing arc drops the whole pair of subtrees,
        so a walk reads each pair of prefixes at most once.
        """
        tries: dict[int, object] = {}
        for w in map(tuple, words):
            if not w:
                tries[0] = w
                continue
            node = tries.setdefault(len(w), {})
            for x in w[:-1]:
                node = node.setdefault(x, {})
            node[w[-1]] = w
        succ, final = self._succ, self._final
        accepted: set[tuple[tuple, tuple]] = set()

        def walk(state, i, a, b, reads_u, reads_v):
            if i == len(reads_u):
                if final[state]:
                    accepted.add((a, b))
                return
            arcs = succ[state]
            for x, next_a in a.items() if reads_u[i] else ((PAD, a),):
                for y, next_b in b.items() if reads_v[i] else ((PAD, b),):
                    nxt = arcs.get((x, y))
                    if nxt is not None:
                        walk(nxt, i + 1, next_a, next_b, reads_u, reads_v)

        for m, u_root in tries.items():
            for n, v_root in tries.items():
                depth = max(m, n)
                # a side reads letters at steps [lo, lo + its length) and $ elsewhere
                lo_u = depth - m if self.direction == "L" else 0
                lo_v = depth - n if self.direction == "L" else 0
                reads_u = [lo_u <= i < lo_u + m for i in range(depth)]
                reads_v = [lo_v <= i < lo_v + n for i in range(depth)]
                walk(0, 0, u_root, v_root, reads_u, reads_v)
        return accepted


def _lags(t: Transducer) -> tuple[dict, dict, dict]:
    """The (state, lag) pairs of t's path prefixes, of its path suffixes, and
    of its path suffixes over epsilon arcs alone; ValueError when t has a
    cycle that emits more or fewer letters than it reads.

    An arc weighs len(out) minus the one letter it reads (none for epsilon).
    The prefix lags of a state are the weights of paths to it from an
    initial state, its suffix lags those of paths from it to an accepting
    state.  A simple path weighs at most the sum of all |weights|, so a
    sweep past that sum has gone round an unbalanced cycle.
    """
    fwd: dict[State, list[tuple[int, State]]] = {}
    bwd: dict[State, list[tuple[int, State]]] = {}
    bwd_eps: dict[State, list[tuple[int, State]]] = {}
    for src, sym, out, dst in t.transitions:
        weight = len(out) - (1 if sym is not None else 0)
        fwd.setdefault(src, []).append((weight, dst))
        bwd.setdefault(dst, []).append((weight, src))
        if sym is None:
            bwd_eps.setdefault(dst, []).append((weight, src))
    ceiling = sum(abs(w) for arcs in fwd.values() for w, _ in arcs)

    def lags(seeds, arcs) -> dict:
        def successors(cfg):
            q, lag = cfg
            for weight, nxt in arcs.get(q, ()):
                if abs(lag + weight) > ceiling:
                    raise ValueError("unbounded lag: a cycle of the transducer emits "
                                     "more or fewer letters than it reads")
                yield nxt, lag + weight

        return _sweep({(q, 0) for q in seeds}, successors)

    return lags(t.initial, fwd), lags(t.accepting, bwd), lags(t.accepting, bwd_eps)


@dataclass(frozen=True)
class _Prepared:
    """A transducer, trimmed and with its states numbered 0..n-1, with its
    buffer bound; for each state, the states its arcs with empty output
    reach (`silent`, the state included) and its suffix lags, over all arcs
    and over epsilon arcs alone; and the answers `_can_emit` has given so
    far."""

    t: Transducer
    bound: int
    silent: dict[State, dict]
    suffix: dict[State, set[int]]
    eps_suffix: dict[State, set[int]]
    emits: dict[tuple[State, tuple], bool] = field(default_factory=dict, repr=False, compare=False)


def _prepare(t: Transducer) -> _Prepared:
    """Trim and number t and sweep its lags (ValueError when t has a cycle
    that emits more or fewer letters than it reads, see `_lags`).

    The buffer bound is the largest buffer any configuration on an accepting
    run of `synchronize` needs.  A configuration's buffer holds |lag|
    letters, where lag = letters emitted - right letters read.  On an
    accepting run for (u, v) at a state with prefix lag a and suffix lag b,
    a + b = |v| - |u|, and the right word is ahead of the left by k letters,
    k between 0 and a + b in every padding phase of R and L.  So lag = a - k
    lies between a and -b, and the largest |lag| of both sweeps caps the
    buffer without dropping any configuration of an accepting run.
    """
    t = trim(t)
    # int states hash fast: configurations of the search hash their state
    number = {q: i for i, q in enumerate(t.states)}
    t = Transducer(
        t.in_alphabet,
        t.out_alphabet,
        number.values(),
        {number[q] for q in t.initial},
        {number[q] for q in t.accepting},
        [(number[src], sym, out, number[dst]) for src, sym, out, dst in t.transitions],
    )
    prefix, suffix, eps_suffix = _lags(t)
    bound = max((abs(lag) for _, lag in [*prefix, *suffix]), default=0)
    quiet = {q: [dst for _, out, dst in t.arcs_from(q) if not out] for q in t.states}
    silent = {q: _sweep({q}, lambda p: quiet[p]) for q in t.states}

    def by_state(pairs) -> dict[State, set[int]]:
        lags: dict[State, set[int]] = {}
        for q, lag in pairs:
            lags.setdefault(q, set()).add(lag)
        return lags

    return _Prepared(t, bound, silent, by_state(suffix), by_state(eps_suffix))


def _can_emit(prep: _Prepared, q: State, w: tuple) -> bool:
    """Whether the output of some path of prep.t from q begins with w: an
    arc with non-empty output `out` leaves a state of silent[q], and out
    begins with w, or w begins with out and the arc's target can emit the
    rest.  Each step shortens w, so the recursion ends.  Memoized per (q, w)
    in prep.emits."""
    if w and (q, w) not in prep.emits:
        n = len(w)
        prep.emits[q, w] = any(
            out[:n] == w if len(out) >= n
            else out == w[:len(out)] and _can_emit(prep, dst, w[len(out):])
            for p in prep.silent[q] for _, out, dst in prep.t.arcs_from(p) if out
        )
    return not w or prep.emits[q, w]


def _settling_lags(p: _Prepared, right: bool) -> dict[tuple, set[int]]:
    """For each (t-state, left flag, right flag) of `synchronize`, the lags
    d = |produced| - |awaited| from which an accepting run can still settle
    the buffer; a configuration with any other lag lies on no accepting run.

    From a configuration on an accepting run, the rest of the run follows a
    path of t from its state to an accepting one.  It reads l more left and
    r more right letters, t emits E letters, and the buffer ends empty, so
    d + E = r.  The path weighs b = E - l, one of the state's suffix lags,
    so r - l = d + b, and the flags bound r - l:
    - R, left closed: the left reads only $, so l = 0 <= r, and t follows
      epsilon arcs alone, so d + b >= 0 for a suffix lag b over epsilon arcs;
    - R, right closed: r = 0 <= l, so d + b <= 0; and E >= 0, so d = -E <= 0
      and prod is empty (see below): no letter is left to match an emission;
    - R, both closed: r = l = 0 (no configuration has these flags, as no
      pair letter is ($, $));
    - L: the words end together, and a side in its second phase reads a
      letter at every step left.  Right side alone reading: r >= l, so
      d + b >= 0.  Left side alone: l >= r, so d + b <= 0.  Both: r = l,
      so d + b = 0;
    - neither flag set: no bound.

    Every set lies in range(-bound, bound + 1): each is cut from that span
    or is {-b} for suffix lags b, which are at most bound in size.  Every
    configuration has its produced or its awaited buffer empty: a right
    letter joins the awaited queue only while nothing is produced, and
    emitted letters settle the queue before they extend prod.  So keeping d
    in these sets caps both buffers at `bound`, the cap `_prepare` derives.
    """
    span = range(-p.bound, p.bound + 1)
    unbounded = set(span)
    # where r <= l: under R the right word is closed, so also d <= 0
    behind = range(-p.bound, 1) if right else span
    out: dict[tuple, set[int]] = {}
    for q, lags in p.suffix.items():
        # the b where the flags give r >= l: over epsilon arcs under R
        late = p.eps_suffix.get(q, set()) if right else lags
        out[q, False, False] = unbounded
        out[q, right, not right] = {d for d in span for b in late if d + b >= 0}  # r >= l
        out[q, not right, right] = {d for d in behind for b in lags if d + b <= 0}  # r <= l
        out[q, True, True] = {-b for b in late}  # r = l
    return out


def _minimal_dfa_of_reversal(r: Nfa) -> Nfa:
    """The trim minimal DFA of L, as an Nfa with states 0..n-1, starting from
    r, a machine for the reversed language rev(L), by double reversal
    (Brzozowski 1962): `Nfa.determinized`, `Nfa.reversed`, `Nfa.determinized`.

    - A subset construction from one start set gives an accessible DFA, so
      the first pass gives an accessible DFA for rev(L).
    - Determinizing the reversal of an accessible DFA for rev(L) gives the
      minimal DFA of L: the second pass's subsets are its states.
    - No arc leads to the empty subset, so the result is trim: every
      first-pass state reaches the first pass's start, the one accepting
      state of its reversal.
    - An empty language leaves the one empty subset, a rejecting state.

    Both passes try the letters in repr-sorted order, so the states are
    numbered breadth-first from the initial state 0 over the sorted letters,
    and equal languages give equal machines.
    """
    dfa = r.determinized()
    del r  # a temporary argument's last reference (CPython 3.11+): frees the first pass's memo
    return dfa.reversed().determinized()


def synchronize(t: Transducer, direction: str) -> PairAutomaton:
    """Minimal DFA accepting the padded encodings of t's relation.

    The steps: trim t and number its states; sweep its lags (`_lags`) for
    the buffer bound and each state's suffix lags; search the
    configurations, asking on demand what each state can still emit
    (`_can_emit`); minimize.  All steps before the search depend on t alone,
    so they run once per transducer (`Transducer._prepared`), and its R and
    L machines share them and the answers of `_can_emit`.

    Simulates t against the pair string with a buffer of emitted-but-unmatched
    (or awaited) output symbols.  The relation must have bounded lag: every
    cycle of t emits as many letters as it reads, or ValueError is raised.
    Two drops keep the search to configurations that can still accept, and
    each is sound by construction: it removes only configurations that lie
    on no accepting run.  A lag d = |produced| - |awaited| that no path from
    the t-state to acceptance can settle within the phases its flags leave
    lies on none (see `_settling_lags`); every lag kept is at most the
    buffer bound in size, so no buffer is longer than any accepting run
    needs (see `_prepare`).  An awaited queue that is not a
    prefix of any output its t-state can still emit can never be emptied;
    a right letter that makes the queue such a word is not tried at all,
    since whatever t emits next must begin with it.  Construction aborts
    with ResourceLimit past `SEARCH_LIMIT` configurations.

    Each side of the pair string has two phases.  A side enters its second
    phase at its first $ under R, or at its first letter under L, and after
    that reads only that kind of symbol (`phase`).  Only the letters a
    configuration can read are tried: on the left $ (t stays put) or the
    input letter of an arc of t; on the right $, the head of the emitted
    symbols, or any letter when none wait.  The direction enters the search
    only through `phase` and the settling sets: under R, a $ on the right
    while emitted symbols wait, or an emission past the closed right word,
    leaves a lag that `_settling_lags` refuses.

    The graph, built reversed, is minimized (`_minimal_dfa_of_reversal`): the
    result has one initial state, no epsilon arcs, at most one arc per
    (state, letter), only useful states, and a canonical numbering.
    """
    if direction not in ("R", "L"):
        raise ValueError(f"direction must be 'R' or 'L', got {direction!r}")
    right = direction == "R"
    prep = t._prepared
    t, bound = prep.t, prep.bound
    settles = _settling_lags(prep, right)
    # no sorting: minimization numbers the result the same for any order
    base = list(t.in_alphabet | t.out_alphabet)
    letters = [(x, y) for x in base + [PAD] for y in base + [PAD] if (x, y) != (PAD, PAD)]

    def phase(flag, pad):
        # the side's new flag, or None when it may not read this symbol.
        # Under R the None is the only guard: False there changes the pair
        # DFAs of the multipliers.  Under L, when every state has one suffix
        # lag b (as on every multiplier), d + b is what remains of r - l, and
        # a side that reads $ after its letters leaves a lag outside the
        # `_settling_lags` set of its new flags, so those DFAs come out the
        # same without it; the None keeps L sound for other transducers
        return True if pad == right else (None if flag else False)

    # configuration: (t-state, produced, awaited, left flag, right flag), a
    # flag being True once that side is in its second phase
    init = [(q, (), (), False, False) for q in t.initial]

    def arcs(cfg):
        q, prod, owed, fl, fr = cfg
        found = []

        def store(label, out, dst, prod, owed, fl, fr):
            # emitted symbols settle the awaited queue first and the rest extends prod
            if out:
                k = min(len(out), len(owed))
                if out[:k] != owed[:k]:
                    return
                prod, owed = prod + out[k:], owed[k:]
            # the lag check also caps both buffers (see `_settling_lags`)
            if len(prod) - len(owed) not in settles[dst, fl, fr]:
                return  # no accepting run can settle this lag
            if not _can_emit(prep, dst, owed):
                return  # t can never emit the awaited queue: no accepting run
            found.append((cfg, label, (dst, prod, owed, fl, fr)))

        # epsilon arcs of t run freely between pair letters; the left letter
        # is $ (t stays put) or the input letter of one of t's arcs
        lefts = [(PAD, (), q, phase(fl, True))]
        for sym, out, dst in t.arcs_from(q):
            if sym is None:
                store(None, out, dst, prod, owed, fl, fr)
            else:
                lefts.append((sym, out, dst, phase(fl, False)))
        # the right letter is $, the head of prod, or any letter if prod is empty
        for y in [PAD, prod[0]] if prod else [PAD] + base:
            nfr = phase(fr, y == PAD)
            if nfr is None:
                continue
            # the right letter first: match it or add it to the awaited queue
            if y == PAD:
                prod2, owed2 = prod, owed
            elif prod:
                prod2, owed2 = prod[1:], owed
            else:
                prod2, owed2 = prod, owed + (y,)
                # whatever t emits next, from q on, must begin with owed2;
                # it may hold bound + 1 letters until `store` settles it
                if not _can_emit(prep, q, owed2[:bound]):
                    continue
            for x, out, dst, nfl in lefts:
                if nfl is not None and (x, y) != (PAD, PAD):
                    store((x, y), out, dst, prod2, owed2, nfl, nfr)
        return found

    configs, transitions = _explore(init, arcs, SEARCH_LIMIT, "synchronize")
    accepting = {cfg for cfg in configs if cfg[0] in t.accepting and not cfg[1] and not cfg[2]}
    # the Nfa copies what it needs, so the search's graph goes before
    # minimizing; the list hands the call the Nfa's last reference, so that
    # `_minimal_dfa_of_reversal` frees it after its first pass
    graph = [Nfa(letters, configs, accepting, init, [(dst, sym, src) for src, sym, dst in transitions])]
    del configs, transitions, accepting
    return PairAutomaton(_minimal_dfa_of_reversal(graph.pop()), direction)


# -- export --------------------------------------------------------------


def _number_states(m) -> dict:
    """Stable numbering of an Nfa's or a Transducer's states: breadth-first
    from the repr-sorted initial states over the repr-sorted successors, then
    the unreached states in repr order."""
    succ: dict[State, list[State]] = {}
    for tr in m.transitions:
        succ.setdefault(tr[0], []).append(tr[-1])
    key = {q: repr(q) for q in m.states}.__getitem__
    reached = _sweep(sorted(m.initial, key=key), lambda q: sorted(succ.get(q, ()), key=key))
    rest = sorted(m.states - reached.keys(), key=key)
    return {q: i for i, q in enumerate([*reached, *rest])}


def _sym_label(sym) -> str:
    if sym is None:
        return "eps"
    if isinstance(sym, tuple):
        return "".join(str(x) for x in sym) if sym else "eps"
    return str(sym)


def _labels(alphabet) -> dict:
    """The label of each symbol of alphabet, and of None (epsilon)."""
    return {sym: _sym_label(sym) for sym in [None, *alphabet]}


def nfa_to_json(a: Nfa) -> dict:
    num = _number_states(a)
    label = _labels(a.alphabet)
    return {
        "type": "nfa",
        "states": len(num),
        "alphabet": sorted(label[s] for s in a.alphabet),
        "initial": sorted(num[q] for q in a.initial),
        "accepting": sorted(num[q] for q in a.accepting),
        "transitions": sorted([num[src], label[sym], num[dst]] for src, sym, dst in a.transitions),
    }


def transducer_to_json(t: Transducer) -> dict:
    num = _number_states(t)
    label = _labels(t.in_alphabet | t.out_alphabet)
    return {
        "type": "transducer",
        "states": len(num),
        "input_alphabet": sorted(label[s] for s in t.in_alphabet),
        "output_alphabet": sorted(label[s] for s in t.out_alphabet),
        "initial": sorted(num[q] for q in t.initial),
        "accepting": sorted(num[q] for q in t.accepting),
        "transitions": sorted(
            [num[src], label[sym], [label[y] for y in out], num[dst]]
            for src, sym, out, dst in t.transitions
        ),
    }


def _dot(name: str, data: dict, arc_label, graph_label: str | None = None) -> str:
    """DOT text of an exported machine: accepting and initial states, then
    one edge per transition, labelled by arc_label(*middle fields)."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    if graph_label is not None:
        lines.append(f'  label="{graph_label}";')
    lines.append("  node [shape=circle];")
    for q in data["accepting"]:
        lines.append(f'  "{q}" [shape=doublecircle];')
    for q in data["initial"]:
        lines.append(f'  "start{q}" [shape=point]; "start{q}" -> "{q}";')
    for src, *label, dst in data["transitions"]:
        lines.append(f'  "{src}" -> "{dst}" [label="{arc_label(*label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def nfa_to_dot(a: Nfa, name: str = "nfa") -> str:
    return _dot(name, nfa_to_json(a), str)


def transducer_to_dot(t: Transducer, name: str = "transducer") -> str:
    return _dot(name, transducer_to_json(t), lambda sym, out: f"{sym}/{''.join(out) if out else 'eps'}")


def pair_automaton_to_dot(p: PairAutomaton, name: str = "pair") -> str:
    return _dot(name, nfa_to_json(p.nfa), lambda sym: f"({sym})", f"direction {p.direction}")
