"""Spans around plactic's public functions, installed from outside the package.

`Tracer.install` wraps each target in `TARGETS` and rebinds every reference to
the original that a `plactic` module holds: module globals (so names taken
with `from ... import ...` are covered), module-level dicts such as
`verify.SUITES`, and class attributes.  A leftover reference is an error.

Each wrapped call pushes a frame; when it returns, its duration is added to
the parent frame, so self time is duration minus the time of direct children.
Calls of folded targets (leaf calls made about 10^5 times or more per run)
record no span: they add to a count and a summed time under their parent
span.  Bookkeeping done by the benchmark itself (counting the useful states
of a synchronized automaton) is timed and taken out of every enclosing
duration.  Spans stay in memory until `write` is called.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import deque

clock = time.perf_counter

# (module, attribute, span name, folded)
TARGETS = [
    ("core", "tableau_of_word", "core.tableau_of_word", True),
    ("rewriting", "generate_rules", "rewriting.generate_rules", False),
    ("rewriting", "product_columns", "rewriting.product_columns", True),
    ("rewriting", "normalize", "rewriting.normalize", False),
    ("rewriting", "gsb_export", "rewriting.gsb_export", False),
    ("rewriting", "critical_pairs", "rewriting.critical_pairs", False),
    ("multipliers", "right_multiplier", "multipliers.right_multiplier", False),
    ("multipliers", "left_multiplier", "multipliers.left_multiplier", False),
    ("multipliers", "lifted_multiplier", "multipliers.lifted_multiplier", False),
    ("multipliers", "multiplier_pair_automata", "multipliers.multiplier_pair_automata", False),
    ("automata", "synchronize", "automata.synchronize", False),
    ("automata", "Nfa.__init__", "automata.Nfa.init", False),
    ("automata", "compose_relations", "automata.compose_relations", False),
    ("automata", "nfa_to_json", "automata.export.nfa_to_json", False),
    ("automata", "transducer_to_json", "automata.export.transducer_to_json", False),
    ("automata", "nfa_to_dot", "automata.export.nfa_to_dot", False),
    ("automata", "transducer_to_dot", "automata.export.transducer_to_dot", False),
    ("automata", "pair_automaton_to_dot", "automata.export.pair_automaton_to_dot", False),
    ("automata", "PairAutomaton.accepts_pair", "automata.accepts_pair", True),
    ("automata", "Nfa.accepts", "automata.Nfa.accepts", True),
    ("automata", "transducer_outputs", "automata.transducer_outputs", False),
    ("verify", "verify_core", "verify.core", False),
    ("verify", "verify_rewriting", "verify.rewriting", False),
    ("verify", "verify_automata", "verify.automata", False),
    ("verify", "verify_multipliers", "verify.multipliers", False),
] + [
    ("cli", f"cmd_{cmd}", f"cli.{cmd}", False)
    for cmd in ("tableau", "normalize", "multiply", "rules", "gsb", "machines", "verify")
]

# span-name prefixes of each layer, for the zero-call guard (`Tracer.idle`)
LAYERS = {
    "core": ("core.",),
    "rewriting": ("rewriting.",),
    "multipliers": ("multipliers.",),
    "automata construction": (
        "automata.synchronize",
        "automata.Nfa.init",
        "automata.compose_relations",
    ),
    "automata membership": ("automata.accepts_pair", "automata.Nfa.accepts"),
    "verify": ("verify.",),
    "cli": ("cli.",),
}


def useful_states(nfa) -> int:
    """States of an NFA that are reachable and co-reachable."""
    fwd: dict = {}
    bwd: dict = {}
    for src, _, dst in nfa.transitions:
        fwd.setdefault(src, []).append(dst)
        bwd.setdefault(dst, []).append(src)

    def sweep(seeds, edges):
        seen = set(seeds)
        todo = deque(seeds)
        while todo:
            for nxt in edges.get(todo.popleft(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    return len(sweep(nfa.initial, fwd) & sweep(nfa.accepting, bwd))


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # frame: [span id, time of direct children, bookkeeping time inside]
        self.stack = [[0, 0.0, 0.0]]
        self.spans: list[tuple] = []  # (id, name, start, end, parent, bookkeeping)
        self.tally: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.folds: dict[tuple, list] = {}  # (parent span, name) -> [calls, s]
        self.counts = {"letters": 0, "sync_states": 0, "sync_useful": 0, "bookkeeping_s": 0.0}
        self._next_id = 0

    # -- recording ----------------------------------------------------

    def _enter(self):
        self._next_id += 1
        frame = [self._next_id, 0.0, 0.0]
        self.stack.append(frame)
        return frame

    def _leave(self, name, frame, t0, t1):
        self.stack.pop()
        parent = self.stack[-1]
        dur = t1 - t0 - frame[2]
        parent[1] += dur
        parent[2] += frame[2]
        tally = self.tally.setdefault(name, [0, 0.0, 0.0])
        tally[0] += 1
        tally[1] += dur
        tally[2] += dur - frame[1]
        self.spans.append((frame[0], name, t0, t1, parent[0], frame[2]))

    @contextlib.contextmanager
    def span(self, name):
        """A span around one of the benchmark's own steps."""
        frame = self._enter()
        t0 = clock()
        try:
            yield
        finally:
            self._leave(name, frame, t0, clock())

    def wrap(self, name, fn, folded):
        if folded:
            return self._wrap_folded(name, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(name, frame, t0, clock())
            if name == "automata.synchronize":
                tracer._count_states(result)
            return result

        return wrapper

    def _wrap_folded(self, name, fn):
        """Like `wrap`, inlined, and with no span: the call adds to a count
        and a summed time under the enclosing span."""
        stack, folds, counts = self.stack, self.folds, self.counts
        tally = self.tally.setdefault(name, [0, 0.0, 0.0])
        count_letters = name == "core.tableau_of_word"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_letters:
                counts["letters"] += len(args[0])
            parent = stack[-1]
            frame = [parent[0], 0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0 - frame[2]
                stack.pop()
                parent[1] += dur
                parent[2] += frame[2]
                tally[0] += 1
                tally[1] += dur
                tally[2] += dur - frame[1]
                key = (parent[0], name)
                fold = folds.get(key)
                if fold is None:
                    folds[key] = [1, dur]
                else:
                    fold[0] += 1
                    fold[1] += dur

        return wrapper

    def _count_states(self, pair_automaton):
        t0 = clock()
        self.counts["sync_states"] += len(pair_automaton.nfa.states)
        self.counts["sync_useful"] += useful_states(pair_automaton.nfa)
        self.exclude(clock() - t0)

    def exclude(self, spent):
        """Take time the benchmark spent on itself out of the enclosing spans."""
        self.stack[-1][2] += spent
        self.counts["bookkeeping_s"] += spent

    # -- installation -------------------------------------------------

    def install(self):
        """Wrap every target and rebind every reference plactic holds."""
        import plactic.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "plactic" or n.startswith("plactic.")]
        swap = {}
        for modname, attr, name, folded in TARGETS:
            owner = sys.modules[f"plactic.{modname}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            wrapper = self.wrap(name, original, folded)
            setattr(owner, attr, wrapper)
            swap[id(original)] = (original, wrapper)

        def wrapper_for(value):
            entry = swap.get(id(value))
            return entry[1] if entry and entry[0] is value else None

        def references():
            """(namespace, key, value) for each name held by a plactic module,
            by its module-level dicts, or by a class it defines."""
            for mod in modules:
                found = list(vars(mod).values())
                spaces = [vars(mod)] + [v for v in found if isinstance(v, dict)]
                spaces += [v for v in found if isinstance(v, type) and v.__module__ == mod.__name__]
                for ns in spaces:
                    items = vars(ns).items() if isinstance(ns, type) else ns.items()
                    yield from ((ns, key, value) for key, value in list(items))

        for ns, key, value in references():
            wrapper = wrapper_for(value)
            if wrapper is None:
                continue
            if isinstance(ns, type):
                setattr(ns, key, wrapper)
            else:
                ns[key] = wrapper
        leftovers = sorted({key for _, key, value in references() if wrapper_for(value)})
        if leftovers:
            raise RuntimeError(f"unwrapped references remain: {leftovers}")

    # -- results ------------------------------------------------------

    def calls(self, name):
        return self.tally.get(name, (0, 0.0, 0.0))[0]

    def inclusive(self, name):
        return self.tally.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name):
        return self.tally.get(name, (0, 0.0, 0.0))[2]

    def idle(self, layers, functions):
        """The given layers that recorded no call at all, and the given
        functions that were never called: each means a lost wrapper or a
        workload that no longer reaches the code."""
        idle = [
            layer
            for layer in layers
            if not any(self.calls(n) for n in self.tally if n.startswith(LAYERS[layer]))
        ]
        return idle + [name for name in functions if not self.calls(name)]

    def per_layer(self, cycles: int, speed: float) -> dict[str, float]:
        """Per-layer metrics: counts and times per cycle, with times in
        nominal seconds (wall seconds times `speed`)."""
        c = self.counts
        t = self.calls
        export_self = sum(self.self_time(n) for n in self.tally if n.startswith("automata.export."))
        m = {
            "core.tableau_of_word.calls": t("core.tableau_of_word"),
            "core.tableau_of_word.self_s": self.self_time("core.tableau_of_word"),
            "core.letters": c["letters"],
            "rewriting.generate_rules.calls": t("rewriting.generate_rules"),
            "rewriting.generate_rules.self_s": self.self_time("rewriting.generate_rules"),
            "rewriting.product_columns.calls": t("rewriting.product_columns"),
            "rewriting.normalize.self_s": self.self_time("rewriting.normalize"),
            "rewriting.gsb_export.self_s": self.self_time("rewriting.gsb_export"),
            "rewriting.critical_pairs.self_s": self.self_time("rewriting.critical_pairs"),
            "multipliers.right_multiplier.self_s": self.self_time("multipliers.right_multiplier"),
            "multipliers.left_multiplier.self_s": self.self_time("multipliers.left_multiplier"),
            "multipliers.lifted_multiplier.s": self.inclusive("multipliers.lifted_multiplier"),
            "multipliers.multiplier_pair_automata.s": self.inclusive("multipliers.multiplier_pair_automata"),
            "automata.synchronize.calls": t("automata.synchronize"),
            "automata.synchronize.self_s": self.self_time("automata.synchronize"),
            "automata.synchronize.states": c["sync_states"],
            "automata.synchronize.useful_states": c["sync_useful"],
            "automata.Nfa.init.self_s": self.self_time("automata.Nfa.init"),
            "automata.compose_relations.self_s": self.self_time("automata.compose_relations"),
            "automata.export.self_s": export_self,
            "automata.accepts_pair.calls": t("automata.accepts_pair"),
            "automata.accepts_pair.self_s": self.self_time("automata.accepts_pair"),
            "automata.Nfa.accepts.self_s": self.self_time("automata.Nfa.accepts"),
            "automata.transducer_outputs.self_s": self.self_time("automata.transducer_outputs"),
        }
        for suite in ("core", "rewriting", "automata", "multipliers"):
            m[f"verify.{suite}.s"] = self.inclusive(f"verify.{suite}")
        for cmd in ("tableau", "normalize", "multiply", "machines", "gsb", "verify"):
            m[f"cli.{cmd}.s"] = self.inclusive(f"cli.{cmd}")
        m = {k: v * (speed if k.endswith(("_s", ".s")) else 1) / cycles for k, v in m.items()}
        # rates and ratios are not divided by the cycle count
        kernel_s = self.inclusive("core.tableau_of_word") * speed
        m["core.letters_per_s"] = c["letters"] / kernel_s if kernel_s else 0.0
        pair_s = self.inclusive("automata.accepts_pair") * speed
        m["automata.pairs_per_s"] = t("automata.accepts_pair") / pair_s if pair_s else 0.0
        m["automata.synchronize.useful_ratio"] = (
            c["sync_useful"] / c["sync_states"] if c["sync_states"] else 0.0
        )
        return m

    def write(self, path):
        """Write spans and folded aggregates as JSON lines."""
        with open(path, "w") as out:
            for sid, name, t0, t1, parent, bookkeeping in self.spans:
                out.write(json.dumps({
                    "run": self.run_id, "id": sid, "name": name, "start": t0, "end": t1,
                    "parent": parent, "bookkeeping_s": bookkeeping,
                }) + "\n")
            for (parent, name), (calls, total) in sorted(self.folds.items()):
                out.write(json.dumps({
                    "run": self.run_id, "folded": name, "parent": parent,
                    "calls": calls, "total_s": total,
                }) + "\n")
