"""Words, tableaux, Schensted insertion, and Knuth equivalence.

Letters are plain ints 1..rank, words are tuples of letters.  A tableau is
stored canonically as its list of columns (each strictly decreasing, written
top-to-bottom); row views are derived on demand.  `_sweep`, the walk over
states that every module searches with, lives here: they all import `core`.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from plactic.errors import ParseError, RankError, ResourceLimit

Word = tuple[int, ...]
Column = tuple[int, ...]

SEARCH_LIMIT = 10**6


def _sweep(seeds, successors, limit=None, what="search") -> dict:
    """The states reachable from seeds, as the keys of a dict in visiting
    order: the seeds in the order given, then breadth-first, each state's new
    successors in the order successors(state) lists them.  Raises
    ResourceLimit when a state beyond the seeds would be added once `limit`
    states are known."""
    seen = dict.fromkeys(seeds)
    queue = deque(seen)
    while queue:
        for nxt in successors(queue.popleft()):
            if nxt not in seen:
                if limit is not None and len(seen) >= limit:
                    raise ResourceLimit(f"{what} exceeded {limit} configurations")
                seen[nxt] = None
                queue.append(nxt)
    return seen


def check_rank(n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise RankError(f"rank must be a positive integer, got {n!r}")
    return n


def check_word(w: Sequence[int], rank: int) -> Word:
    word = tuple(w)
    for x in word:
        if not isinstance(x, int) or not 1 <= x <= rank:
            raise RankError(f"letter {x!r} outside 1..{rank}")
    return word


def parse_word(text: str, rank: int) -> Word:
    """Parse the text form of a word: digit string for rank <= 9,
    comma-separated integers above."""
    check_rank(rank)
    text = text.strip()
    if not text:
        return ()
    try:
        if rank <= 9:
            word = tuple(int(c) for c in text)
        else:
            word = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ParseError(f"cannot parse word {text!r}") from exc
    return check_word(word, rank)


def format_word(word: Sequence[int], rank: int) -> str:
    if rank <= 9:
        return "".join(str(x) for x in word)
    return ",".join(str(x) for x in word)


def is_row(w: Sequence[int]) -> bool:
    """True iff w is non-decreasing (vacuously true for the empty word)."""
    return all(w[i] <= w[i + 1] for i in range(len(w) - 1))


def is_column(w: Sequence[int]) -> bool:
    """True iff w is strictly decreasing in written order."""
    return all(w[i] > w[i + 1] for i in range(len(w) - 1))


def column_runs(w: Sequence[int]) -> tuple[Column, ...]:
    """The maximal strictly decreasing runs of w, left to right."""
    runs: list[list[int]] = []
    for x in w:
        if runs and runs[-1][-1] > x:
            runs[-1].append(x)
        else:
            runs.append([x])
    return tuple(tuple(r) for r in runs)


def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """Row domination: a is no longer than b and exceeds it letterwise."""
    return len(a) <= len(b) and all(a[i] > b[i] for i in range(len(a)))


def column_ge(a: Sequence[int], b: Sequence[int]) -> bool:
    """Column order: a may stand immediately left of b in a tableau.

    Holds iff a is at least as long as b and, aligning both at the bottom,
    each letter of a is <= the letter of b beside it.
    """
    if len(a) < len(b):
        return False
    for i in range(1, len(b) + 1):
        if a[-i] > b[-i]:
            return False
    return True


@dataclass(frozen=True)
class Tableau:
    """A tableau as its tuple of columns, chained under `column_ge`."""

    columns: tuple[Column, ...] = ()

    @classmethod
    def from_columns(cls, columns) -> "Tableau":
        t = cls(tuple(tuple(c) for c in columns))
        if not t.is_valid():
            raise ParseError(f"columns do not form a tableau: {columns!r}")
        return t

    def is_valid(self) -> bool:
        cols = self.columns
        if not all(c and is_column(c) for c in cols):
            return False
        return all(column_ge(cols[i], cols[i + 1]) for i in range(len(cols) - 1))

    def __len__(self) -> int:
        return sum(len(c) for c in self.columns)

    @property
    def height(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def width(self) -> int:
        return len(self.columns)

    def rows(self) -> tuple[Word, ...]:
        """Rows top to bottom (order of domination)."""
        cols = self.columns
        out = []
        for m in range(self.height, 0, -1):
            out.append(tuple(c[len(c) - m] for c in cols if len(c) >= m))
        return tuple(out)

    def column_reading(self) -> Word:
        out: list[int] = []
        for c in self.columns:
            out.extend(c)
        return tuple(out)

    def row_reading(self) -> Word:
        out: list[int] = []
        for r in self.rows():
            out.extend(r)
        return tuple(out)

    def pretty(self, rank: int | None = None) -> str:
        """Planar form, top row first, left-justified."""
        rank = rank if rank is not None else (max(self.column_reading(), default=1))
        return "\n".join(format_word(r, rank) for r in self.rows())


def _insert(cols, g, trace):
    """Insert g into the column lists `cols` in place (row m counts from the
    bottom); each step's (row, column-index) site goes to `trace` if given."""
    m = 1
    eta = g
    ncols = len(cols)
    while True:
        # columns reaching row m form a prefix
        r = 0
        while r < ncols and len(cols[r]) >= m:
            r += 1
        # leftmost column whose row-m entry exceeds eta
        j = -1
        for i in range(r):
            col = cols[i]
            if col[len(col) - m] > eta:
                j = i
                break
        if j < 0:
            # append eta at the end of row m
            if r == ncols:
                if m != 1:
                    raise AssertionError("new column can only start at row 1")
                cols.append([eta])
            else:
                col = cols[r]
                if len(col) != m - 1:
                    raise AssertionError("append site must have height m-1")
                if col and eta <= col[0]:
                    raise AssertionError("column must stay strictly decreasing")
                col.insert(0, eta)
            if trace is not None:
                trace.append((m, r))
            return
        col = cols[j]
        k = len(col) - m
        bumped = col[k]
        col[k] = eta
        if trace is not None:
            trace.append((m, j))
        eta = bumped
        m += 1


def insert(t: Tableau, g: int) -> Tableau:
    """Schensted insertion of one letter."""
    cols = [list(c) for c in t.columns]
    _insert(cols, g, None)
    return Tableau(tuple(tuple(c) for c in cols))


def insert_with_trace(t: Tableau, g: int) -> tuple[Tableau, tuple[tuple[int, int], ...]]:
    """Insertion plus the (row, column-index) landing site of every step."""
    cols = [list(c) for c in t.columns]
    trace: list[tuple[int, int]] = []
    _insert(cols, g, trace)
    return Tableau(tuple(tuple(c) for c in cols)), tuple(trace)


def tableau_of_word(w: Sequence[int]) -> Tableau:
    cols: list[list[int]] = []
    for g in w:
        _insert(cols, g, None)
    return Tableau(tuple(tuple(c) for c in cols))


def lnds(w: Sequence[int]) -> int:
    """Length of the longest non-decreasing subsequence (quadratic DP)."""
    best = [0] * len(w)
    for i in range(len(w)):
        best[i] = 1 + max((best[j] for j in range(i) if w[j] <= w[i]), default=0)
    return max(best, default=0)


def lds(w: Sequence[int]) -> int:
    """Length of the longest strictly decreasing subsequence."""
    best = [0] * len(w)
    for i in range(len(w)):
        best[i] = 1 + max((best[j] for j in range(i) if w[j] > w[i]), default=0)
    return max(best, default=0)


def knuth_relations(n: int) -> frozenset[tuple[Word, Word]]:
    """The defining relations xzy=zxy (x<=y<z) and yxz=yzx (x<y<=z) over 1..n."""
    check_rank(n)
    rels = set()
    for x in range(1, n + 1):
        for y in range(x, n + 1):
            for z in range(y + 1, n + 1):
                rels.add(((x, z, y), (z, x, y)))
    for x in range(1, n + 1):
        for y in range(x + 1, n + 1):
            for z in range(y, n + 1):
                rels.add(((y, x, z), (y, z, x)))
    return frozenset(rels)


@functools.cache
def _relation_map(n: int) -> dict[Word, tuple[Word, ...]]:
    """The moves of the defining relations over 1..n, both ways, by left
    side; built once per rank, and read only."""
    moves: dict[Word, list[Word]] = {}
    for left, right in knuth_relations(n):
        moves.setdefault(left, []).append(right)
        moves.setdefault(right, []).append(left)
    return {k: tuple(v) for k, v in moves.items()}


def knuth_class(w: Sequence[int]) -> frozenset[Word]:
    """The full equivalence class of w, by breadth-first search.

    Raises ResourceLimit if the class exceeds `SEARCH_LIMIT`; the defining
    relations preserve length so the search space is finite.
    """
    start = tuple(w)
    moves = _relation_map(max(start, default=1))

    def successors(cur):
        for i in range(len(cur) - 2):
            for rep in moves.get(cur[i : i + 3], ()):
                yield cur[:i] + rep + cur[i + 3 :]

    return frozenset(_sweep([start], successors, SEARCH_LIMIT, f"equivalence class of {start!r}"))


def knuth_equivalent(u: Sequence[int], v: Sequence[int]) -> bool:
    """Brute-force congruence test: v reachable from u by relation moves."""
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        return False
    return v in knuth_class(u)


def iter_columns(rank: int) -> Iterator[Column]:
    """All nonempty strictly decreasing words over 1..rank, shortest first."""
    check_rank(rank)
    subsets: list[tuple[int, ...]] = [()]
    for x in range(1, rank + 1):
        subsets.extend([s + (x,) for s in subsets])
    cols = [tuple(sorted(s, reverse=True)) for s in subsets if s]
    cols.sort(key=lambda c: (len(c), c))
    return iter(cols)


def iter_tableaux(rank: int, max_cells: int) -> Iterator[Tableau]:
    """Every tableau over 1..rank with at most `max_cells` cells."""
    check_rank(rank)
    cols = list(iter_columns(rank))

    def extend(chain: tuple[Column, ...], used: int) -> Iterator[tuple[Column, ...]]:
        yield chain
        for c in cols:
            if used + len(c) > max_cells:
                continue
            if chain and not column_ge(chain[-1], c):
                continue
            yield from extend(chain + (c,), used + len(c))

    for chain in extend((), 0):
        yield Tableau(chain)
