"""The benchmark's workloads: the commands of each cycle and their checks.

A workload is a closed loop of CLI commands, each run through
`plactic.cli.main` in the measuring process.  Inputs come from the seed
alone.  Every output is checked against `oracle` (which shares no code with
`plactic`) or against outputs pinned from the seed release.
"""

from __future__ import annotations

import hashlib
import random
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import oracle

# `plactic verify all` at the defaults (rank 3, max-len 6) must report these
# exact counts; a shrunken sweep is a failure, not a speed-up.
VERIFY_ITEMS = {
    "columns=lnds and rows=lds": 1093,
    "length preserved": 1093,
    "insertion stays weakly left and valid": 1093,
    "readings stay in the congruence class": 364,
    "equivalence iff equal tableaux": 33033,
    "column order is a partial order": 343,
    "rank 1: rules cover exactly incomparable pairs": 1,
    "rank 1: rule shapes and letter multisets": 0,
    "rank 1: critical pairs converge": 0,
    "rank 2: rules cover exactly incomparable pairs": 9,
    "rank 2: rule shapes and letter multisets": 3,
    "rank 2: critical pairs converge": 1,
    "rank 3: rules cover exactly incomparable pairs": 49,
    "rank 3: rule shapes and letter multisets": 22,
    "rank 3: critical pairs converge": 42,
    "normal form matches tableau reading": 1093,
    "normal forms coincide with the K language": 1695,
    "padded encodings are mirror images": 14641,
    "synchronization agrees with relation membership": 58564,
    "double reversal restores the relation": 14641,
    "composition matches set composition": 14641,
    "accepted pair strings are well-formed encodings": 121,
    "column multipliers match normalization": 1554,
    "multiplier domain excludes non-normal words": 22,
    "lifted multipliers match tableau products": 2072,
    "pair automata agree with the product oracle": 1073296,
    "column readings biject with tableaux": 259,
}
ITEM_LINE = re.compile(r"^\s+ok\s+(.+): (\d+) items$")

# sha256 of `plactic gsb --rank 8` as released; its output must stay
# byte-identical
GSB8_SHA256 = "828f5e14b2e04d0f25f09e4057d29f54c961704f6812189544cfb5436da12e59"

EXPORT_GAMMAS = ("eps", "1", "2", "3")
EXPORT_RANK = 3
PAIR_SAMPLES = 24  # sampled words u per exported pair automaton


@dataclass
class Command:
    kind: str
    argv: list[str]
    expect: tuple = ()  # what the check needs to know about the input
    files: list[Path] = field(default_factory=list)  # files the command writes


class Verify:
    """One `plactic verify all` at the defaults per cycle."""

    name = "verify"
    # a traced run must see calls in these layers and of these functions
    layers = ("core", "rewriting", "multipliers", "automata construction",
              "automata membership", "verify", "cli")
    counted = ("core.tableau_of_word", "rewriting.generate_rules", "rewriting.product_columns",
               "automata.synchronize", "automata.accepts_pair")

    def __init__(self, seed: int, workdir: Path):
        pass  # `verify all` takes no input

    def cycle(self, i: int) -> list[Command]:
        return [Command("verify", ["verify", "all"])]

    def check(self, cmd: Command, stdout: str) -> str | None:
        lines = stdout.splitlines()
        if not lines or lines[-1] != "PASS":
            return "verify did not print PASS"
        seen = {}
        for line in lines:
            match = ITEM_LINE.match(line)
            if match:
                seen[match.group(1)] = int(match.group(2))
        wrong = {k: (v, seen.get(k)) for k, v in VERIFY_ITEMS.items() if seen.get(k) != v}
        return f"verify item counts differ (expected, got): {wrong}" if wrong else None


class Export:
    """Per cycle: `machines --rank 3 --format json` for each generator, written
    to a fresh directory, then `gsb --rank 8`."""

    name = "export"
    layers = ("core", "rewriting", "multipliers", "automata construction", "cli")
    counted = ("core.tableau_of_word", "rewriting.generate_rules", "rewriting.product_columns",
               "automata.synchronize")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.first: dict[str, dict] = {}  # generator -> digests of its files

    def cycle(self, i: int) -> list[Command]:
        out = self.workdir / f"cycle{i}"
        cmds = []
        for g in EXPORT_GAMMAS:
            argv = ["machines", "--rank", str(EXPORT_RANK), "--gamma", g, "--format", "json",
                    "--out", str(out / g)]
            cmds.append(Command("machines", argv, (g,), [out / g]))
        gsb = out / "gsb8.txt"
        cmds.append(Command("gsb", ["gsb", "--rank", "8", "--out", str(gsb)], (), [gsb]))
        return cmds

    def check(self, cmd: Command, stdout: str) -> str | None:
        """gsb must match its pinned digest.  The first cycle's machines are
        walked by the oracle; later cycles must repeat them byte for byte."""
        (path,) = cmd.files
        if cmd.kind == "gsb":
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            return None if digest == GSB8_SHA256 else f"gsb --rank 8 sha256 {digest}"
        (g,) = cmd.expect
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(path.iterdir())}
        if g in self.first:
            shutil.rmtree(path)
            return None if digests == self.first[g] else f"machines --gamma {g}: output differs between cycles"
        self.first[g] = digests
        return self._walk(path, None if g == "eps" else int(g))

    def _walk(self, path: Path, gamma: int | None) -> str | None:
        """Each exported pair automaton, on a seeded sample of words u, must
        accept (u, u*gamma) and reject a perturbed product."""
        rng = random.Random(f"{self.seed}:{gamma}")
        files = sorted(path.glob("pair_*.json"))
        if len(files) != 4:
            return f"{path.name}: {len(files)} pair automata, expected 4"
        for f in files:
            nfa = oracle.JsonNfa(f.read_text())
            side = f.name.split("_")[1]
            for _ in range(PAIR_SAMPLES):
                word = [rng.randint(1, EXPORT_RANK) for _ in range(rng.randint(0, 6))]
                u = oracle.column_reading(word)
                v = u if gamma is None else oracle.product(u, gamma, side)
                if not nfa.accepts_pair(u, v):
                    return f"{f.name} rejects the product pair {u}, {v}"
                bad = oracle.perturb(v, EXPORT_RANK, rng)
                if nfa.accepts_pair(u, bad):
                    return f"{f.name} accepts the wrong pair {u}, {bad}"
        return None


class Queries:
    """A seeded, interleaved stream of `tableau`, `normalize` and
    `multiply --check` queries.  Each batch holds twelve of each kind, with
    word lengths, ranks and generators on fixed grids so that batches cost
    about the same; the seed picks the letters and the order."""

    name = "queries"
    layers = ("core", "rewriting", "multipliers", "cli")
    # not generate_rules: a lazy normalize (ROADMAP item 5) may stop calling it
    counted = ("core.tableau_of_word", "rewriting.product_columns")
    POOL = 12  # batches generated at set-up; later ones are made on demand

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.batches = [self._batch(i) for i in range(self.POOL)]

    def _batch(self, i: int) -> list[Command]:
        rng = random.Random(f"{self.seed}:{i}")
        cmds = []
        for k in range(12):
            # lengths 500..3000 and ranks 4..20 on fixed grids; the pairing
            # rotates from batch to batch and the seed picks the letters
            length = 500 + round(2500 * k / 11)
            rank = round(4 + 16 * ((k + i) % 12) / 11)
            word = tuple(rng.choices(range(1, rank + 1), k=length))
            cmds.append(Command("tableau", ["tableau", "--rank", str(rank), oracle.fmt(word, rank)],
                                (word, rank)))
        for k in range(12):
            rank = 4 + k % 4
            if k < 6:
                word = tuple(rng.choices(range(1, rank + 1), k=rng.randint(8, 30)))
                text = oracle.fmt(word, rank)
            else:
                cols = []
                for _ in range(rng.randint(3, 10)):
                    col = sorted(rng.sample(range(1, rank + 1), rng.randint(1, rank)), reverse=True)
                    cols.append(tuple(col))
                word = tuple(x for c in cols for x in c)
                text = "c:" + ",".join(oracle.fmt(c, rank) for c in cols)
            cmds.append(Command("normalize", ["normalize", "--rank", str(rank), text], (word, rank)))
        for k in range(12):
            # each (rank, side) three times; the generator, which moves the
            # cost, rotates from batch to batch
            rank = 3 + k % 2
            side = ("right", "left")[k // 2 % 2]
            gamma = 1 + (k // 4 + i) % rank
            u = oracle.column_reading(rng.choices(range(1, rank + 1), k=rng.randint(1, 10)))
            argv = ["multiply", "--rank", str(rank), "--side", side, "--check",
                    oracle.fmt(u, rank), str(gamma)]
            cmds.append(Command("multiply", argv, (u, rank, gamma, side)))
        rng.shuffle(cmds)
        return cmds

    def cycle(self, i: int) -> list[Command]:
        return self.batches[i] if i < len(self.batches) else self._batch(i)

    def check(self, cmd: Command, stdout: str) -> str | None:
        if cmd.kind == "tableau":
            word, rank = cmd.expect
            expected = oracle.expected_tableau(word, rank)
        elif cmd.kind == "normalize":
            word, rank = cmd.expect
            expected = oracle.expected_normalize(word, rank)
        else:
            u, rank, gamma, side = cmd.expect
            expected = oracle.fmt(oracle.product(u, gamma, side), rank) + "\n"
        return None if stdout == expected else f"{cmd.kind}: wrong output for {' '.join(cmd.argv)[:80]}"


WORKLOADS = {w.name: w for w in (Verify, Export, Queries)}
