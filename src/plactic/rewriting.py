"""The finite complete rewriting system over column generators.

Generators are the nonempty columns over 1..rank; a word over them rewrites
by replacing an adjacent incomparable pair with the one or two columns of
the tableau of its concatenation.  The module also checks termination,
checks confluence constructively through overlaps, and exports the rule set
as a binomial basis of the free algebra on the column generators.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, groupby
from typing import Iterator, Mapping, Optional

from plactic.core import (
    Column,
    Word,
    check_rank,
    check_word,
    column_ge,
    format_word,
    is_column,
    iter_columns,
    tableau_of_word,
)
from plactic.errors import ParseError, ResourceLimit, ViolationFound

CWord = tuple[Column, ...]

# (2^n - 1)^2 rule-table entries; refuse ranks that blow the table up
# (rank 11 and above: 2,047^2 = 4,190,209).
PAIR_BUDGET = 4_000_000

ORDER_DESCRIPTION = "order: deglex; symbol order: |subscript| desc, then lex"


def column_key(c: Column):
    """Sort key realizing the generator order: longer subscripts first,
    ties broken lexicographically."""
    return (-len(c), c)


def word_less(u: CWord, v: CWord) -> bool:
    """Length-first word order induced by the generator order; a well-order."""
    if len(u) != len(v):
        return len(u) < len(v)
    for a, b in zip(u, v):
        if a != b:
            # column_key(a) < column_key(b), without building the keys
            return len(a) > len(b) if len(a) != len(b) else a < b
    return False


def product_columns(a: Column, b: Column) -> Optional[tuple[Column, ...]]:
    """Columns of the tableau of ab for an incomparable pair, else None:
    Schensted's definition of `rule`, by insertion.  The column multipliers
    call it, and the tests check `rule` against it.

    The result has one or two columns; in the two-column case the left one
    is strictly longer than a.
    """
    if column_ge(a, b):
        return None
    cols = tableau_of_word(a + b).columns
    if len(cols) > 2:
        raise AssertionError(f"product of two columns gave {len(cols)} columns")
    return cols


@dataclass(frozen=True)
class RewritingSystem:
    """A rule table: left side (a, b) to the one or two columns it rewrites to.

    The order of `rules` is the order of every listing made from it (the
    termination check, the overlaps, the basis and the rule exports).
    `generate_rules` builds it in generator order, by (column_key(a),
    column_key(b)); a hand-built table is listed as given.
    """

    rank: int
    rules: Mapping[tuple[Column, Column], tuple[Column, ...]]


def _letter_set(c: Column) -> int:
    """The letters of a column as a bit mask, bit x for letter x."""
    bits = 0
    for x in c:
        bits |= 1 << x
    return bits


def _match(a: Column, free: int) -> tuple[int, int]:
    """The bracket matching of Lascoux and Schützenberger ("Le monoïde
    plaxique", 1981) of the letters of a against the letter set `free` of
    b.  Returns the letter sets of b taken and still free.

    The letters of a are matched one at a time, largest first.  One step,
    on a letter x: x takes the smallest letter of b still free that is at
    least x, that is, the step clears the lowest set bit of
    `free >> x << x` from `free`, and clears nothing if that is 0.  So the
    free set after a is the free set after a[:-1] with one step on a's last
    letter, and the taken set is the rest of b."""
    taken = 0
    for x in a:
        above = free >> x << x
        if above:
            low = above & -above
            taken |= low
            free ^= low
    return taken, free


def rule(a: Column, b: Column) -> Optional[tuple[Column, ...]]:
    """The right side of the rule on ab, without insertion: None on a
    comparable pair, else the one or two columns of the tableau of ab.

    `_match` decides both: no letter of b is left free exactly when
    `column_ge(a, b)`.  The letters of b it takes form the right column; the
    free ones join a in the left column, the only column if none is taken.
    """
    taken, free = _match(a, _letter_set(b))
    if not free:
        return None
    if not taken:
        return (tuple(sorted(a + b, reverse=True)),)
    left, right = list(a), []
    for x in b:
        if taken >> x & 1:
            right.append(x)
        else:
            left.append(x)
    left.sort(reverse=True)
    return tuple(left), tuple(right)


def generate_rules(n: int) -> RewritingSystem:
    """One rule per ordered incomparable pair of columns, in generator order,
    each with the right side `rule` gives; the right sides are made of the
    rank's own column objects.  ResourceLimit when the table would exceed
    PAIR_BUDGET entries.

    The matching of a against every column b is shared with a's prefix: the
    columns are swept shortest first, so a[:-1] comes before a, and the free
    set of each b after a is its free set after a[:-1] with one step of
    `_match` on a's last letter.  The free sets of a are kept in one array,
    4 bytes a column b.  A second pass lists, in generator order, the pairs
    that leave a letter of b free: the free letters join a in the left
    column, the taken ones, the rest of b, make the right column."""
    check_rank(n)
    count = (2**n - 1) ** 2
    if count > PAIR_BUDGET:
        raise ResourceLimit(f"rank {n} needs {count} rule-table entries (budget {PAIR_BUDGET})")
    columns = list(iter_columns(n))
    order = sorted(columns, key=column_key)
    bits = [_letter_set(c) for c in order]
    column_of = dict(zip(bits, order))
    # free[a][j]: the letters of order[j] left free by the matching of a
    free = {(): array("I", bits)}
    for a in columns:
        x = a[-1]
        free[a] = array("I", [f ^ ((above := f >> x << x) & -above) for f in free[a[:-1]]])
    rules = {}
    for a, a_bits in zip(order, bits):
        for b, b_bits, f in zip(order, bits, free[a]):
            if f:
                left = column_of[a_bits | f]
                rules[a, b] = (left, column_of[b_bits ^ f]) if f != b_bits else (left,)
    return RewritingSystem(n, rules)


def rewrite_step(w: CWord, system: RewritingSystem) -> Optional[CWord]:
    """Apply one rule at the leftmost redex, or None if w is irreducible."""
    rules = system.rules
    for i in range(len(w) - 1):
        rhs = rules.get((w[i], w[i + 1]))
        if rhs is not None:
            return w[:i] + rhs + w[i + 2 :]
    return None


def normalize(w: CWord, system: Optional[RewritingSystem] = None) -> CWord:
    """Leftmost rewriting to the normal form, each rule read from the table
    or, without one, from `rule`, so it runs at any rank."""
    lookup = (lambda pair: rule(*pair)) if system is None else system.rules.get
    out = list(w)
    i = 0
    while i < len(out) - 1:
        rhs = lookup((out[i], out[i + 1]))
        if rhs is None:
            i += 1
        else:
            out[i : i + 2] = rhs
            # a new redex can appear one position to the left at most
            i = max(i - 1, 0)
    return tuple(out)


def is_normal_form(w: CWord, system: RewritingSystem) -> bool:
    return rewrite_step(w, system) is None


def check_termination(system: RewritingSystem) -> int:
    """Verify every rule strictly decreases under the word order, in rule
    order; ViolationFound at the first offending rule, else the number of
    rules checked."""
    for lhs, rhs in system.rules.items():
        if not word_less(rhs, lhs):
            raise ViolationFound((lhs, rhs))
    return len(system.rules)


@dataclass(frozen=True)
class Overlap:
    word: CWord  # three symbols, both adjacent pairs reducible
    left_result: CWord
    right_result: CWord

    @property
    def converged(self) -> bool:
        return self.left_result == self.right_result


def critical_pairs(system: RewritingSystem) -> Iterator[Overlap]:
    """Each overlap word c_a c_b c_c with both pairs reducible, with the
    normal forms of the two one-step descendants, yielded in rule order.

    Left-hand sides all have length two, so these are the only overlaps.
    """
    rules = system.rules
    by_first: dict[Column, list[Column]] = {}
    for a, b in rules:
        by_first.setdefault(a, []).append(b)
    for (a, b), rhs_ab in system.rules.items():
        for c in by_first.get(b, ()):
            rhs_bc = rules[(b, c)]
            left = normalize(rhs_ab + (c,), system)
            right = normalize((a,) + rhs_bc, system)
            yield Overlap((a, b, c), left, right)


def encode_word(w: Word) -> CWord:
    """Letters to single-letter column symbols."""
    return tuple((x,) for x in w)


def decode_word(v: CWord) -> Word:
    """Concatenate the column subscripts."""
    out: list[int] = []
    for c in v:
        out.extend(c)
    return tuple(out)


# -- text / JSON forms --------------------------------------------------


def parse_cword(text: str, rank: int) -> CWord:
    """Parse `c:`-prefixed column words: c:21,1 (dots separate letters when
    the rank needs multi-digit letters, e.g. c:10.2,1)."""
    body = text[2:] if text.startswith("c:") else text
    body = body.strip()
    if not body:
        return ()
    cols = []
    for part in body.split(","):
        part = part.strip()
        try:
            if rank <= 9:
                letters = tuple(int(ch) for ch in part)
            else:
                letters = tuple(int(p) for p in part.split("."))
        except ValueError as exc:
            raise ParseError(f"cannot parse column {part!r}") from exc
        check_word(letters, rank)
        if not letters or not is_column(letters):
            raise ParseError(f"{part!r} is not a column")
        cols.append(letters)
    return tuple(cols)


def format_cword(w: CWord, rank: int) -> str:
    """Human form of a column word: c_21 c_1 (empty word prints as nothing)."""
    if rank > 9:
        return " ".join("c_" + ".".join(str(x) for x in c) for c in w)
    return " ".join("c_" + format_word(c, rank) for c in w)


def _labels(rank: int, template: str = "{}") -> dict[Column, str]:
    """The label of each column of the rank in the exports, its letters
    formatted once."""
    return {c: template.format(format_word(c, rank)) for c in iter_columns(rank)}


def rules_json(system: RewritingSystem) -> dict:
    label = _labels(system.rank)
    return {
        "rank": system.rank,
        "rules": [
            {"lhs": [label[c] for c in lhs], "rhs": [label[c] for c in rhs]}
            for lhs, rhs in system.rules.items()
        ],
    }


def rules_text(system: RewritingSystem) -> Iterator[str]:
    """The rule table as text: the rank, then one `lhs -> rhs` line per rule
    in rule order, yielded as `_blocks` does."""
    yield f"rank: {system.rank}\n"
    yield from _blocks(system, " ", " -> ", "")


def _blocks(system: RewritingSystem, sep: str, arrow: str, empty: str) -> Iterator[str]:
    """One `lhs{arrow}rhs` line per rule in rule order, the columns of a side
    joined by sep and an empty side written as `empty`.  The lines are
    yielded one block per run of consecutive rules that share a left column,
    each block joined once, with every label and its sep-prefixed form read
    from dicts built once per call."""
    label = _labels(system.rank, "c[{}]")
    tail = {c: sep + text for c, text in label.items()}
    name = label.__getitem__
    for a, group in groupby(system.rules.items(), key=lambda item: item[0][0]):
        head = label[a]
        yield "".join([
            f"{head}{tail[b]}{arrow}{label[rhs[0]]}{tail[rhs[1]]}\n"
            if len(rhs) == 2
            else f"{head}{tail[b]}{arrow}{sep.join(map(name, rhs)) or empty}\n"
            for (_, b), rhs in group
        ])


def gsb_export(system: RewritingSystem) -> dict:
    """The binomial basis of the table as a JSON document: the order, the
    generators in generator order, and one binomial lhs - rhs per rule in
    rule order.  `check_termination` raises ViolationFound first unless each
    leading term exceeds its trailing term under the declared order."""
    check_termination(system)
    label = _labels(system.rank)
    return {
        "rank": system.rank,
        "order": ORDER_DESCRIPTION,
        "generators": [label[c] for c in sorted(label, key=column_key)],
        "binomials": [
            {
                "leading": [label[c] for c in lhs],
                "trailing": [label[c] for c in rhs],
                "leading_coeff": 1,
                "trailing_coeff": -1,
            }
            for lhs, rhs in system.rules.items()
        ],
    }


def gsb_text(system: RewritingSystem) -> Iterator[str]:
    """The binomial basis of the table as text: the order, then one
    `lhs - rhs` binomial line per rule in rule order (the empty word is the
    monomial 1), yielded as `_blocks` does.

    `check_termination` runs when this is called, so a table that fails it
    raises ViolationFound before any line is written.
    """
    check_termination(system)
    return chain((ORDER_DESCRIPTION + "\n",), _blocks(system, "*", " - ", "1"))
