"""Exhaustive desk-scale verification suites driven by the CLI.

Each suite re-checks a family of structural facts by enumeration and
reports counts; any witness of failure is named in the report.
"""

from __future__ import annotations

import itertools
import os
import sys
from dataclasses import dataclass, field, replace

from plactic import automata, multipliers, rewriting
from plactic.core import (
    SEARCH_LIMIT,
    Tableau,
    column_ge,
    insert_with_trace,
    iter_columns,
    iter_tableaux,
    knuth_class,
    lds,
    lnds,
    tableau_of_word,
)
from plactic.errors import ParseError, RankError


@dataclass
class Config:
    rank: int = 3
    max_len: int = 6
    thorough: bool = False


@dataclass
class Report:
    suite: str
    lines: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def check(self, label: str, count: int, witnesses: list) -> None:
        if witnesses:
            self.failures.append(f"{label}: {len(witnesses)} failures, first: {witnesses[0]!r}")
            self.lines.append(f"FAIL {label}: {len(witnesses)}/{count} items failed")
        else:
            self.lines.append(f"ok   {label}: {count} items")


def _check_sweep(rank: int, max_len: int) -> None:
    """ParseError when the words of at most max_len letters over rank
    letters are more than SEARCH_LIMIT, or hold more than SEARCH_LIMIT
    letters in all."""
    # the sum of rank^k words and of k * rank^k letters over k <= max_len,
    # counted only until the words pass the search limit
    count = size = 1
    letters = 0
    for k in range(1, max_len + 1):
        size *= rank
        count += size
        letters += k * size
        if count > SEARCH_LIMIT:
            raise ParseError(
                f"--max-len {max_len} sweeps at least {count} words at rank {rank}, more than {SEARCH_LIMIT}"
            )
    if letters > SEARCH_LIMIT:
        raise ParseError(
            f"--max-len {max_len} sweeps {letters} letters at rank {rank}, more than {SEARCH_LIMIT}"
        )


def _words(rank: int, max_len: int):
    # a sweep of too many words or letters is refused before it is built
    _check_sweep(rank, max_len)
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (a,) for w in frontier for a in range(1, rank + 1)]
        out.extend(frontier)
    return out


def verify_core(cfg: Config) -> Report:
    rep = Report("core")
    rank, max_len = cfg.rank, cfg.max_len
    _check_sweep(rank, max_len)
    shape_bad, length_bad, insert_bad, reading_bad, class_bad = [], [], [], [], []
    words = short_words = pairs = 0

    def grown(level):
        # the words one letter longer than level's, in `_words` order, each
        # with its prefix's tableau and bad insertion steps grown by its last letter
        for u, (s, traces) in level.items():
            for a in range(1, rank + 1):
                t, trace = insert_with_trace(s, a)
                moves_right = any(trace[i + 1][1] > trace[i][1] for i in range(len(trace) - 1))
                yield u + (a,), t, traces + (trace,) if moves_right else traces

    # one length at a time, each kept only while the next length or the class checks read it
    short = min(max_len, 5)
    level: dict = {}
    for length in range(max_len + 1):
        todo = grown(level) if length else [((), Tableau(), ())]
        level = {}
        for w, t, traces in todo:
            words += 1
            if t.width != lnds(w) or t.height != lds(w):
                shape_bad.append(w)
            if len(t.row_reading()) != len(w):
                length_bad.append(w)
            insert_bad.extend((w, trace) for trace in traces)
            if not t.is_valid():
                insert_bad.append(w)
            if length < max_len or length <= short:
                level[w] = t, traces
        if length <= short:
            # readings are congruent to the word; over the pairs u < v of this
            # length (word order is lexicographic) the v that break "equivalence
            # iff equal tableaux" for u lie in u's class or tableau group, not both
            classes = {w: knuth_class(w) for w in level}
            same_tableau: dict[Tableau, set] = {}
            for w, (t, _) in level.items():
                same_tableau.setdefault(t, set()).add(w)
                if t.column_reading() not in classes[w] or t.row_reading() not in classes[w]:
                    reading_bad.append(w)
            class_bad.extend(
                (u, v)
                for u, (t, _) in level.items()
                for v in sorted(classes[u] ^ same_tableau[t])
                if v > u
            )
            short_words += len(level)
            pairs += len(level) * (len(level) - 1) // 2

    rep.check("columns=lnds and rows=lds", words, shape_bad)
    rep.check("length preserved", words, length_bad)
    rep.check("insertion stays weakly left and valid", words, insert_bad)
    rep.check("readings stay in the congruence class", short_words, reading_bad)
    rep.check("equivalence iff equal tableaux", pairs, class_bad)

    # every triple (a, b, c) is decided by one set difference per comparable
    # pair: it breaks transitivity when c is below b but not below a
    cols = list(iter_columns(rank))
    below = {a: {b for b in cols if column_ge(a, b)} for a in cols}
    bad = []
    for a in cols:
        if a not in below[a]:
            bad.append(a)
        for b in cols:
            if b not in below[a]:
                continue
            if a in below[b] and a != b:
                bad.append((a, b))
            missing = below[b] - below[a]
            if missing:
                bad.extend((a, b, c) for c in cols if c in missing)
    rep.check("column order is a partial order", len(cols) ** 3, bad)
    return rep


def verify_rewriting(cfg: Config) -> Report:
    rep = Report("rewriting")
    # the word sweep is sized before any rule table is built
    words = _words(cfg.rank, cfg.max_len)
    top = min(cfg.rank + 2, RANK_CAPS["rewriting"]) if cfg.thorough else cfg.rank
    tables = {n: rewriting.generate_rules(n) for n in range(1, top + 1)}
    for n, rs in tables.items():
        cols = list(iter_columns(n))
        bad = [
            (a, b)
            for a in cols
            for b in cols
            if column_ge(a, b) == (((a, b)) in rs.rules)
        ]
        rep.check(f"rank {n}: rules cover exactly incomparable pairs", len(cols) ** 2, bad)

        bad = []
        for (a, b), rhs in rs.rules.items():
            if len(rhs) == 2 and len(rhs[0]) <= len(a):
                bad.append((a, b))
            flat = tuple(sorted(x for c in rhs for x in c))
            if flat != tuple(sorted(a + b)):
                bad.append((a, b))
        rep.check(f"rank {n}: rule shapes and letter multisets", len(rs.rules), bad)

        checked = rewriting.check_termination(rs)
        rep.lines.append(f"ok   rank {n}: termination certificate over {checked} rules")

        count = 0
        bad = []
        for o in rewriting.critical_pairs(rs):
            count += 1
            if not o.converged:
                bad.append(o)
        rep.check(f"rank {n}: critical pairs converge", count, bad)

    bad = []
    for w in words:
        nf = rewriting.normalize(rewriting.encode_word(w), tables[cfg.rank])
        if rewriting.decode_word(nf) != tableau_of_word(w).column_reading():
            bad.append(w)
        if tuple(sorted(rewriting.decode_word(nf))) != tuple(sorted(w)):
            bad.append(w)
    rep.check("normal form matches tableau reading", len(words), bad)

    tabs = list(iter_tableaux(cfg.rank, cfg.max_len))
    k = multipliers.build_k_acceptor(cfg.rank)
    kwords = {t.columns for t in tabs}
    universe = set(kwords)
    for t in tabs:
        for c in iter_columns(cfg.rank):
            w = t.columns + (c,)
            if sum(len(x) for x in w) <= cfg.max_len + 2:
                universe.add(w)
    bad = [w for w in universe if k.accepts(w) != rewriting.is_normal_form(w, tables[cfg.rank])]
    rep.check("normal forms coincide with the K language", len(universe), bad)
    return rep


def verify_automata(cfg: Config) -> Report:
    rep = Report("automata")
    sigma = (1, 2, 3)
    words = [w for L in range(5) for w in itertools.product(sigma, repeat=L)]
    mirror = [w[::-1] for w in words]
    bad = [
        (u, v)
        for u, mu in zip(words, mirror)
        for v, mv in zip(words, mirror)
        if automata.delta_r(u, v)[::-1] != automata.delta_l(mu, mv)
    ]
    rep.check("padded encodings are mirror images", len(words) ** 2, bad)

    copy = automata.Transducer(
        sigma, sigma, {0}, {0}, {0}, [(0, a, (a,), 0) for a in sigma]
    )
    append = automata.Transducer(
        sigma, sigma, {0, 1}, {0}, {1}, [(0, a, (a,), 0) for a in sigma] + [(0, None, (1,), 1)]
    )
    # failures over words x words are listed in (u, v) index order
    index = {w: i for i, w in enumerate(words)}

    def by_index(pair):
        return index[pair[0]], index[pair[1]]

    # each machine must accept exactly the graph of its relation inside
    # words x words: one trie walk (`accepted_pairs`) decides every pair, and
    # `accepts_pair` re-decides each pair that the walk or the graph holds;
    # a pair fails when either entry point disagrees with the graph
    bad, synced = [], {}
    for t, name in ((copy, "copy"), (append, "append")):
        for direction in "RL":
            pa = automata.synchronize(t, direction)
            synced[name, direction] = pa
            tail = () if name == "copy" else (1,)
            graph = {(u, u + tail) for u in words if u + tail in index}
            accepted = pa.accepted_pairs(words)
            wrong = [
                pair
                for pair in accepted | graph
                if pa.accepts_pair(*pair) != (pair in graph) or (pair in accepted) != (pair in graph)
            ]
            bad.extend((name, direction, u, v) for u, v in sorted(wrong, key=by_index))
    rep.check("synchronization agrees with relation membership", 4 * len(words) ** 2, bad)

    # t agrees with a relation on words x words when each u has the same
    # outputs in words under both; the pairs in one of them only are the
    # failures
    def mismatches(t, expected):
        images = automata.transducer_images(t, words)
        return sorted(((u, v) for u in words for v in images[u] ^ expected(u) if v in index), key=by_index)

    rel = automata.Transducer(sigma, sigma, {0, 1}, {0}, {1}, [(0, 1, (2, 3), 1)])
    twice = automata.reverse_relation(automata.reverse_relation(rel))
    bad = mismatches(rel, automata.transducer_images(twice, words).__getitem__)
    rep.check("double reversal restores the relation", len(words) ** 2, bad)

    composed = automata.compose_relations(copy, append)
    bad = mismatches(composed, lambda u: {u + (1,)})
    rep.check("composition matches set composition", len(words) ** 2, bad)

    image = {automata.delta_r(u, u + (1,)) for u in words}
    bad = [
        s
        for s in automata.enumerate_accepted(synced["append", "R"].nfa, 5)
        if s not in image
    ]
    rep.check("accepted pair strings are well-formed encodings", len(image), bad)
    return rep


# the part of the multipliers suite whose gamma is BIJECTION checks that the
# column readings of its sweep biject with its tableaux
BIJECTION = "bijection"


def _multiplier_parts(cfg: Config) -> list[tuple]:
    """The parts of the multipliers suite in report order, each
    (prefix, rank, max_len, gamma): every generator gamma of the sweep, eps
    (None) first, then the bijection; under --thorough, the default sweep
    and then every generator of the given bounds, labelled with their rank."""
    # --thorough keeps the default sweep and adds the given bounds after it
    base = Config() if cfg.thorough else cfg
    parts = [("", base.rank, base.max_len, gamma) for gamma in [None, *range(1, base.rank + 1), BIJECTION]]
    if cfg.thorough:
        prefix = f"rank {cfg.rank}: "
        parts += [(prefix, cfg.rank, cfg.max_len, gamma) for gamma in [None, *range(1, cfg.rank + 1)]]
    return parts


@dataclass
class _Sweep:
    """The tableaux of one rank and size, as K-words and column readings,
    and the rule table of the rank: what every part over them shares."""

    rank: int
    tabs: list[Tableau]
    rules: rewriting.RewritingSystem
    kwords: list
    lwords: list
    index: dict


def _multiplier_part(part: tuple, sweeps: dict) -> list[tuple[str, int, list]]:
    """The checks of one part of the multipliers suite, as (label, items,
    witnesses) in report order; `sweeps` keeps the sweeps already built, by
    rank and size, for the next parts."""
    prefix, rank, max_len, gamma = part
    sweep = sweeps.get((rank, max_len))
    if sweep is None:
        tabs = list(iter_tableaux(rank, max_len))
        lwords = [t.column_reading() for t in tabs]
        sweep = _Sweep(rank, tabs, rewriting.generate_rules(rank), [t.columns for t in tabs], lwords,
                       {u: i for i, u in enumerate(lwords)})
        sweeps[rank, max_len] = sweep
    if gamma == BIJECTION:
        seen = set()
        bad = []
        for t, w in zip(sweep.tabs, sweep.lwords):
            if w in seen:
                bad.append(w)
            seen.add(w)
            if tableau_of_word(w) != t:
                bad.append(w)
        return [("column readings biject with tableaux", len(sweep.tabs), bad)]
    return _check_generator(sweep, gamma, prefix)


def _check_generator(sweep: _Sweep, gamma: int | None, prefix: str) -> list[tuple[str, int, list]]:
    """Column, lifted and pair multipliers of one generator (None for eps)
    against normalization and tableau products, over the tableaux of the
    sweep, as (label, items, witnesses); labels start with prefix."""
    # the generator's machines are built once; the lifts and the pair
    # automata are checked against the same product column readings,
    # computed once; each machine's images are dropped once checked, so
    # beside the pair automata at most one machine's images are held
    rank, kwords, lwords, index = sweep.rank, sweep.kwords, sweep.lwords, sweep.index
    column, lifted, machines = multipliers.generator_machines(rank, gamma)

    def misses(t, words, expected) -> list:
        """The words, in order, whose images under t are not exactly {expected(u)}."""
        images = automata.transducer_images(t, words)
        return [u for u in words if images[u] != {expected(u)}]

    normal = {
        "right": lambda u: rewriting.normalize(u + ((gamma,),), sweep.rules),
        "left": lambda u: rewriting.normalize(((gamma,),) + u, sweep.rules),
    }
    column_misses = {side: set(misses(t, kwords, normal[side])) for side, t in column.items()}
    # witnesses by K-word u, right before left
    column_bad = [(side, gamma, u) for u in kwords for side in column if u in column_misses[side]]
    non_k, domain_bad = [], []
    if gamma == 1:
        non_k = [w for w in itertools.product(list(iter_columns(rank)), repeat=2) if not column_ge(w[0], w[1])]
        domain_images = automata.transducer_images(column["right"], non_k)
        domain_bad = [u for u in non_k if domain_images[u]]

    g = (gamma,) if gamma else ()
    right = {u: tableau_of_word(u + g).column_reading() for u in lwords}
    # without a generator both sides multiply by eps and share the products
    left = {u: tableau_of_word(g + u).column_reading() for u in lwords} if g else right
    products = {"right": right, "left": left}
    lifted_bad = [(side, gamma, u) for side, t in lifted.items() for u in misses(t, lwords, products[side].get)]

    # a machine must accept exactly the graph {(u, u*gamma)} inside
    # lwords x lwords; the symmetric difference is the failures, listed
    # in (u, v) index order
    pair_bad = []
    for (side, direction), pa in machines.items():
        expected = products[side]
        graph = {(u, expected[u]) for u in lwords if expected[u] in index}
        wrong = pa.accepted_pairs(lwords) ^ graph
        for u, v in sorted(wrong, key=lambda pair: (index[pair[0]], index[pair[1]])):
            pair_bad.append((side, direction, gamma, u, v))
    return [
        (f"{prefix}column multipliers match normalization", len(column) * len(kwords), column_bad),
        (f"{prefix}multiplier domain excludes non-normal words", len(non_k), domain_bad),
        (f"{prefix}lifted multipliers match tableau products", 2 * len(lwords), lifted_bad),
        (f"{prefix}pair automata agree with the product oracle", len(machines) * len(lwords) ** 2, pair_bad),
    ]


def _multipliers_report(records: list) -> Report:
    """The multipliers report merged from the records of its parts, in part
    order: a label's items add up and its witnesses follow one another."""
    rep = Report("multipliers")
    totals: dict[str, tuple[int, list]] = {}
    for record in records:
        for label, count, bad in record:
            items, witnesses = totals.get(label, (0, []))
            totals[label] = items + count, witnesses + bad
    for label, (count, bad) in totals.items():
        rep.check(label, count, bad)
    return rep


def verify_multipliers(cfg: Config) -> Report:
    sweeps: dict = {}
    return _multipliers_report([_multiplier_part(part, sweeps) for part in _multiplier_parts(cfg)])


SUITES = {
    "core": verify_core,
    "rewriting": verify_rewriting,
    "automata": verify_automata,
    "multipliers": verify_multipliers,
}


# the largest rank each suite runs at: the core suite orders all (2^n-1)^3
# triples of columns, about 8x the work per rank (`verify --rank 11 --max-len
# 1 core` 11.1 s and 97.0 MB, rank 12 75.8 s and 289.5 MB), the rewriting
# suite checks the critical pairs of every rank up to the one given, yielded
# one at a time (623,010 at rank 7), and the multipliers suite synchronizes
# every pair automaton of its rank (all 32 at rank 7 over 6 cells: 17.4 s wall
# and a 79 MB peak over both processes, one run of `verify --rank 7
# multipliers`); each figure is one run on a shared 2-core Linux machine under
# Python 3.11.7, 2026-10-22
RANK_CAPS = {"core": 11, "rewriting": 7, "multipliers": 7}


# the suites that sweep every word up to --max-len letters
SWEEPS = ("core", "rewriting")


def run(suite: str, cfg: Config) -> list[Report]:
    """The reports of one suite, or of all, in suite order.

    Under --thorough the rank is at least 4 and the length at least 7.
    RankError when the rank exceeds the cap of one of the suites, and
    ParseError when a word sweep is too large, before any suite runs.  The
    units of work are the suites, except that `multipliers` gives one unit
    per generator it checks and one for its bijection check, and
    `_results` runs them, in one process or two.  Either way the reports
    are the same, and a raising unit raises the exception of the earliest
    one in suite order, and within `multipliers` in generator order.
    """
    names = list(SUITES) if suite == "all" else [suite]
    if cfg.thorough:
        cfg = replace(cfg, rank=max(cfg.rank, 4), max_len=max(cfg.max_len, 7))
    for name in names:
        cap = RANK_CAPS.get(name)
        if cap is not None and cfg.rank > cap:
            raise RankError(f"verify {name} runs at --rank {cap} at most, got {cfg.rank}")
    if any(name in SWEEPS for name in names):
        _check_sweep(cfg.rank, cfg.max_len)
    units = [(name, part) for name in names
             for part in (_multiplier_parts(cfg) if name == "multipliers" else [None])]
    results = _results(units, cfg)
    for i in range(len(units)):
        if isinstance(results[i], Exception):
            raise results[i]
    reports = []
    for name in names:
        done = [results[i] for i, unit in enumerate(units) if unit[0] == name]
        reports.append(_multipliers_report(done) if name == "multipliers" else done[0])
    return reports


def _results(units: list[tuple], cfg: Config) -> dict:
    """The result of each unit that ran, by index: a suite's report, a
    part's record or the exception it raised.  Every unit before the
    earliest exception in unit order has run.

    With more than one unit, on two or more cores, in a process with one
    thread and where `os.fork` exists, a forked worker and this process
    claim the units in unit order from one queue, a pipe of one byte per
    unit index read one byte a claim (a one-byte read from a pipe is
    atomic).  This process first runs `automata` and every generator-1
    part, and with them every function that a tracer wrapping the
    package's functions counts.  Otherwise, or when the fork fails, this
    process claims every unit, in unit order.

    The worker sends its results pickled through a pipe and leaves through
    `os._exit`: it flushes no stream, runs no exit handler and never returns
    to the caller.  This process kills the worker if it still runs and
    reaps it, whatever happens here.  When the worker sends nothing that
    unpickles (its exception does not pickle, or it was killed), the units
    missing from this process's results run again here.
    """
    # a fork copies only the calling thread
    threading = sys.modules.get("threading")
    if not (hasattr(os, "fork") and len(units) > 1 and (os.cpu_count() or 1) >= 2
            and (threading is None or threading.active_count() == 1)):
        return _claimed(units, cfg, range(len(units)))
    # imported here, so that importing the package loads neither
    import pickle
    import signal

    first = [i for i, (name, part) in enumerate(units) if name == "automata" or part and part[3] == 1]
    queue, write = os.pipe()
    os.write(write, bytes(range(len(units))))
    os.close(write)
    read, write = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        pid = os.fork()
    except OSError:
        pid, first = None, []
    claims = (byte[0] for byte in iter(lambda: os.read(queue, 1), b"") if byte[0] not in first)
    if pid == 0:
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pipe.write(pickle.dumps(_claimed(units, cfg, claims)))
        finally:
            os._exit(0)
    os.close(write)
    try:
        with open(read, "rb") as pipe:
            mine = _claimed(units, cfg, itertools.chain(first, claims))
            sent = pipe.read()
    finally:
        os.close(queue)
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    try:
        theirs = pickle.loads(sent)
    except (EOFError, pickle.UnpicklingError):
        stop = min((i for i, result in mine.items() if isinstance(result, Exception)), default=len(units))
        theirs = _claimed(units, cfg, (i for i in range(stop) if i not in mine))
    return theirs | mine


def _claimed(units: list[tuple], cfg: Config, order) -> dict:
    """The result of each unit of `order` in turn, by index: a suite's
    report, a part's record or the exception it raised.  After the first
    exception only earlier units run; later claims are drained unrun."""
    sweeps: dict = {}
    results = {}
    stop = len(units)
    for i in order:
        if i > stop:
            continue
        name, part = units[i]
        try:
            results[i] = SUITES[name](cfg) if part is None else _multiplier_part(part, sweeps)
        except Exception as exc:
            results[i] = exc
            stop = i
    return results
