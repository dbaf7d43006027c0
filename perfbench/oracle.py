"""Independent oracles for the benchmark's output checks.

Nothing here imports `plactic`: tableaux come from textbook row insertion
(Schensted's bumping on rows, bottom row first), padded pair encodings are
rebuilt from their definition, and exported pair automata are walked by a
small NFA simulator that reads the JSON export format.
"""

from __future__ import annotations

import json
from bisect import bisect_right

PAD = "$"


def row_insert(word):
    """Rows of the tableau of `word`, bottom (longest) row first."""
    rows = []
    for x in word:
        for row in rows:
            i = bisect_right(row, x)
            if i == len(row):
                row.append(x)
                break
            row[i], x = x, row[i]
        else:
            rows.append([x])
    return rows


def columns(rows):
    """Columns left to right, each written top to bottom."""
    return [
        tuple(rows[m][j] for m in range(len(rows) - 1, -1, -1) if j < len(rows[m]))
        for j in range(len(rows[0]) if rows else 0)
    ]


def column_reading(word):
    return tuple(x for col in columns(row_insert(word)) for x in col)


def fmt(word, rank):
    """The CLI's text form of a word: digits up to rank 9, commas above."""
    sep = "" if rank <= 9 else ","
    return sep.join(str(x) for x in word)


def fmt_cword(cols, rank):
    if rank > 9:
        return " ".join("c_" + ".".join(str(x) for x in c) for c in cols)
    return " ".join("c_" + fmt(c, rank) for c in cols)


def expected_tableau(word, rank):
    """Expected stdout of `tableau`: planar rows top first, then the reading."""
    if not word:
        return ""
    rows = row_insert(word)
    planar = [fmt(r, rank) for r in reversed(rows)]
    return "\n".join(planar + [fmt(column_reading(word), rank)]) + "\n"


def expected_normalize(word, rank):
    """Expected stdout of `normalize`: the normal form is the tableau's
    column word, then its letters."""
    cols = columns(row_insert(word))
    return fmt_cword(cols, rank) + "\n" + fmt(column_reading(word), rank) + "\n"


def product(u, gamma, side):
    return column_reading(u + (gamma,) if side == "right" else (gamma,) + u)


def delta_r(u, v):
    n = max(len(u), len(v))
    u = tuple(u) + (PAD,) * (n - len(u))
    v = tuple(v) + (PAD,) * (n - len(v))
    return tuple(zip(u, v))


def delta_l(u, v):
    n = max(len(u), len(v))
    u = (PAD,) * (n - len(u)) + tuple(u)
    v = (PAD,) * (n - len(v)) + tuple(v)
    return tuple(zip(u, v))


class JsonNfa:
    """Subset simulation of an exported NFA (labels as exported, 'eps' for
    epsilon moves)."""

    def __init__(self, text):
        data = json.loads(text)
        if data.get("type") != "nfa":
            raise ValueError("not an NFA export")
        self.direction = data.get("direction")
        self.accepting = frozenset(data["accepting"])
        self.eps = {}
        self.step = {}
        for src, label, dst in data["transitions"]:
            if label == "eps":
                self.eps.setdefault(src, []).append(dst)
            else:
                self.step.setdefault((src, label), []).append(dst)
        self.start = self._closure(data["initial"])

    def _closure(self, states):
        out = set(states)
        todo = list(states)
        while todo:
            for nxt in self.eps.get(todo.pop(), ()):
                if nxt not in out:
                    out.add(nxt)
                    todo.append(nxt)
        return frozenset(out)

    def accepts(self, labels):
        cur = self.start
        for label in labels:
            cur = self._closure([d for q in cur for d in self.step.get((q, label), ())])
            if not cur:
                return False
        return bool(cur & self.accepting)

    def accepts_pair(self, u, v):
        enc = delta_r(u, v) if self.direction == "R" else delta_l(u, v)
        return self.accepts(["".join(str(x) for x in pair) for pair in enc])


def perturb(v, rank, rng):
    """A word different from v: change, drop or add one letter."""
    v = list(v)
    choice = rng.randrange(3) if v else 2
    if choice == 0:
        i = rng.randrange(len(v))
        v[i] = rng.choice([x for x in range(1, rank + 1) if x != v[i]])
    elif choice == 1:
        del v[rng.randrange(len(v))]
    else:
        v.insert(rng.randrange(len(v) + 1), rng.randint(1, rank))
    return tuple(v)
