"""Independent reference implementations used only to check the package.

The tableau oracle here is a direct row-by-row transcription of Schensted
insertion on lists of rows.  The package itself stores tableaux as columns
and inserts through a different code path, so the two implementations share
no code.
"""

from collections import deque
from itertools import combinations


def row_insert(rows, x):
    """Insert x into a tableau given as a list of rows (top row first)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [[x]]
    bottom = rows[-1]
    if bottom[-1] <= x:
        bottom.append(x)
        return rows
    j = next(i for i, v in enumerate(bottom) if v > x)
    bumped = bottom[j]
    bottom[j] = x
    return row_insert(rows[:-1], bumped) + [bottom]


def tableau_rows(word):
    """Rows (top first) of the tableau of `word`, built by repeated insertion."""
    rows = []
    for x in word:
        rows = row_insert(rows, x)
    return [tuple(r) for r in rows]


def tableau_columns(word):
    """Columns (each top-to-bottom) of the tableau of `word`."""
    rows = tableau_rows(word)
    if not rows:
        return []
    width = len(rows[-1])
    cols = []
    for j in range(width):
        cols.append(tuple(r[j] for r in rows if j < len(r)))
    return cols


def column_reading_of_word(word):
    """Column reading of the tableau of `word`, as a tuple of letters."""
    out = []
    for col in tableau_columns(word):
        out.extend(col)
    return tuple(out)


def brute_lnds(word):
    """Longest non-decreasing subsequence length by exhaustive enumeration."""
    best = 0
    n = len(word)
    for k in range(n, 0, -1):
        for picks in combinations(range(n), k):
            seq = [word[i] for i in picks]
            if all(seq[i] <= seq[i + 1] for i in range(len(seq) - 1)):
                return k
    return best


def brute_lds(word):
    """Longest strictly decreasing subsequence length by exhaustive enumeration."""
    n = len(word)
    for k in range(n, 0, -1):
        for picks in combinations(range(n), k):
            seq = [word[i] for i in picks]
            if all(seq[i] > seq[i + 1] for i in range(len(seq) - 1)):
                return k
    return 0


def all_words(rank, max_len):
    """Every word over {1..rank} of length 0..max_len."""
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (a,) for w in frontier for a in range(1, rank + 1)]
        words.extend(frontier)
    return words


def breadth_first_numbering(nfa):
    """The numbering of a DFA's states in the order a breadth-first walk
    from its initial state meets them, each state's arcs taken in the repr
    order of their letters; states it never meets are left out."""
    succ = {}
    for src, sym, dst in nfa.transitions:
        succ.setdefault(src, []).append((repr(sym), dst))
    (start,) = nfa.initial
    number = {start: 0}
    queue = [start]
    for q in queue:
        for _, dst in sorted(succ.get(q, ())):
            if dst not in number:
                number[dst] = len(number)
                queue.append(dst)
    return number


def dfa_contract_violations(nfa):
    """Ways in which `nfa` fails to be a trim minimal DFA (empty when it is one).

    Checks: one initial state, no epsilon arcs, at most one arc per (state,
    letter), every state reachable and co-reachable, and Moore refinement run
    to its fixed point (the pass that splits no block) leaves every state in a
    block of its own.
    """
    problems = []
    if len(nfa.initial) != 1:
        problems.append(f"{len(nfa.initial)} initial states")
    succ = {}
    for src, sym, dst in nfa.transitions:
        if sym is None:
            problems.append(f"epsilon arc {src!r} -> {dst!r}")
        elif succ.setdefault((src, sym), dst) != dst:
            problems.append(f"two arcs from {src!r} on {sym!r}")
    fwd, bwd = {}, {}
    for (src, _), dst in succ.items():
        fwd.setdefault(src, set()).add(dst)
        bwd.setdefault(dst, set()).add(src)

    def sweep(seeds, edges):
        seen, todo = set(seeds), list(seeds)
        while todo:
            for nxt in edges.get(todo.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    if sweep(nfa.initial, fwd) != set(nfa.states):
        problems.append("unreachable states")
    if sweep(nfa.accepting, bwd) != set(nfa.states):
        problems.append("states that cannot reach acceptance")

    letters = sorted(nfa.alphabet, key=repr)
    block = {q: int(q in nfa.accepting) for q in nfa.states}
    while True:
        ids = {}
        refined = {
            q: ids.setdefault(
                (block[q],) + tuple(block.get(succ.get((q, a)), -1) for a in letters), len(ids)
            )
            for q in nfa.states
        }
        if len(ids) == len(set(block.values())):
            break
        block = refined
    if len(set(block.values())) != len(nfa.states):
        problems.append(f"{len(nfa.states)} states but {len(set(block.values()))} Moore classes")
    return problems


def output_prefixes(t, bound):
    """For each state of transducer t, the words of length <= bound that the
    output of some path from that state begins with (a prefix-closed set),
    by a fixpoint over t's arcs run backward."""
    preds = {}
    for src, _, out, dst in t.transitions:
        preds.setdefault(dst, []).append((src, out))
    prefixes = {q: {()} for q in t.states}
    queue = deque(t.states)
    queued = set(t.states)
    while queue:
        dst = queue.popleft()
        queued.discard(dst)
        for src, out in preds.get(dst, ()):
            grown = {out[:k] for k in range(min(len(out), bound) + 1)}
            grown.update((out + w)[:bound] for w in prefixes[dst])
            if not grown <= prefixes[src]:
                prefixes[src] |= grown
                if src not in queued:
                    queued.add(src)
                    queue.append(src)
    return prefixes
