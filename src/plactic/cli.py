"""Command-line front end.

Exit codes: 0 success, 1 verification failure, cross-check mismatch or
an exceeded resource bound (rules and gsb at rank 11 and above), 2 usage,
parse or output-path errors and ranks above a command's cap.  All exports
are byte-deterministic for a fixed set of flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable

from plactic import automata, multipliers, rewriting, verify
from plactic.core import (
    check_rank,
    column_runs,
    format_word,
    parse_word,
    tableau_of_word,
)
from plactic.errors import NotInL, OutputError, ParseError, PlacticError, RankError


# the largest rank of the commands that build the column multipliers over
# all 2^n - 1 columns: memory grows about 3-4x a rank (machines --rank 8
# takes 2-13 s and 72-247 MB a generator, the most at gamma 2, on 2 cores)
RANK_CAPS = {"machines": 8}


def cmd_tableau(args) -> int:
    word = parse_word(args.word, args.rank)
    if not word:
        return 0
    t = tableau_of_word(word)
    print(t.pretty(args.rank))
    print(format_word(t.column_reading(), args.rank))
    return 0


def cmd_normalize(args) -> int:
    if args.word.startswith("c:"):
        cword = rewriting.parse_cword(args.word, args.rank)
    else:
        cword = rewriting.encode_word(parse_word(args.word, args.rank))
    nf = rewriting.normalize(cword)
    print(rewriting.format_cword(nf, args.rank))
    print(format_word(rewriting.decode_word(nf), args.rank))
    return 0


def cmd_multiply(args) -> int:
    rank = args.rank
    u = parse_word(args.word, rank)
    gamma = parse_word(args.gamma, rank)
    if len(gamma) != 1:
        raise ParseError(f"generator must be a single letter, got {args.gamma!r}")
    # over u's runs the machine gives u the outputs of the machine over all
    # columns (see `multipliers`), none when u is not in L
    machine = multipliers.lifted_multiplier(rank, gamma[0], args.side, set(column_runs(u)))
    outputs = automata.transducer_outputs(machine, u)
    if not outputs:
        raise NotInL(f"{args.word!r} is not a column reading of a tableau")
    if len(outputs) != 1:
        print(f"internal error: multiplier produced {len(outputs)} outputs", file=sys.stderr)
        return 1
    (result,) = outputs
    if args.check:
        product = u + gamma if args.side == "right" else gamma + u
        expected = tableau_of_word(product).column_reading()
        if result != expected:
            print(
                f"internal error: transducer gave {format_word(result, rank)}, "
                f"normalization gives {format_word(expected, rank)}",
                file=sys.stderr,
            )
            return 1
    print(format_word(result, rank))
    return 0


@contextmanager
def _writing(path):
    """Turn a failed write under `path` into an OutputError."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(args, chunks: Iterable[str]) -> None:
    """Write the chunks, in order, to the --out file or to stdout."""
    if args.out:
        with _writing(args.out), open(args.out, "w") as f:
            f.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def cmd_rules(args) -> int:
    rs = rewriting.generate_rules(args.rank)
    if args.format == "json":
        _emit(args, (json.dumps(rewriting.rules_json(rs), indent=2, sort_keys=True) + "\n",))
    else:
        _emit(args, rewriting.rules_text(rs))
    return 0


def cmd_gsb(args) -> int:
    rs = rewriting.generate_rules(args.rank)
    if args.format == "json":
        _emit(args, (json.dumps(rewriting.gsb_export(rs), indent=2, sort_keys=True) + "\n",))
    else:
        _emit(args, rewriting.gsb_text(rs))
    return 0


def cmd_machines(args) -> int:
    rank = args.rank
    if args.gamma in ("e", "eps", ""):
        gamma = None
    else:
        letters = parse_word(args.gamma, rank)
        if len(letters) != 1:
            raise ParseError(f"generator must be a single letter or 'eps', got {args.gamma!r}")
        gamma = letters[0]
    exports: list[tuple[str, str]] = []

    def render_t(name, machine):
        if args.format == "dot":
            exports.append((f"{name}.dot", automata.transducer_to_dot(machine, name)))
        else:
            exports.append(
                (f"{name}.json", json.dumps(automata.transducer_to_json(machine), sort_keys=True, indent=2) + "\n")
            )

    column, lifted, pairs = multipliers.generator_machines(rank, gamma)
    for side, machine in column.items():
        render_t(f"{side}_multiplier_col_{gamma}", machine)
    for side, machine in lifted.items():
        render_t(f"{side}_multiplier_{gamma or 'eps'}", machine)
    for (side, direction), pa in sorted(pairs.items()):
        name = f"pair_{side}_{direction}_{gamma or 'eps'}"
        if args.format == "dot":
            exports.append((f"{name}.dot", automata.pair_automaton_to_dot(pa, name)))
        else:
            payload = automata.nfa_to_json(pa.nfa)
            payload["direction"] = pa.direction
            exports.append((f"{name}.json", json.dumps(payload, sort_keys=True, indent=2) + "\n"))

    if args.out:
        outdir = Path(args.out)
        with _writing(outdir):
            outdir.mkdir(parents=True, exist_ok=True)
            for fname, text in exports:
                (outdir / fname).write_text(text)
        print(f"wrote {len(exports)} files to {outdir}")
    else:
        for fname, text in exports:
            print(f"== {fname} ==")
            sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    if args.max_len < 0:
        raise ParseError(f"--max-len must be non-negative, got {args.max_len}")
    cfg = verify.Config(rank=args.rank, max_len=args.max_len, thorough=args.thorough)
    reports = verify.run(args.suite, cfg)
    failed = False
    for rep in reports:
        print(f"[{rep.suite}]")
        for line in rep.lines:
            print("  " + line)
        for failure in rep.failures:
            failed = True
            print("  FAILURE " + failure)
    print("FAIL" if failed else "PASS")
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process, on the first call.

    Each `parse_args` returns a fresh Namespace, so no option carries over
    from one call to the next.  The parser captures the `cmd_*` functions,
    `verify.SUITES` and the `verify.Config` defaults as they stand at that
    first build, so no test monkeypatches them: `main` would not see the patch.
    """
    parser = argparse.ArgumentParser(prog="plactic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rank_default=None):
        if rank_default is None:
            p.add_argument("--rank", type=int, required=True, help="alphabet size")
        else:
            p.add_argument("--rank", type=int, default=rank_default, help="alphabet size")

    p = sub.add_parser("tableau", help="planar tableau and column reading of a word")
    common(p)
    p.add_argument("word")
    p.set_defaults(fn=cmd_tableau)

    p = sub.add_parser("normalize", help="normal form of a word over letters or columns")
    common(p)
    p.add_argument("word", help="letter word, or c:-prefixed column word like c:21,1")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("multiply", help="multiply a normal form by a generator via transducer")
    common(p)
    p.add_argument("--side", choices=["left", "right"], required=True)
    p.add_argument("--check", action="store_true", help="cross-validate against normalization")
    p.add_argument("word")
    p.add_argument("gamma")
    p.set_defaults(fn=cmd_multiply)

    p = sub.add_parser("rules", help="export the rewriting rules")
    common(p)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_rules)

    p = sub.add_parser("gsb", help="export the binomial basis")
    common(p)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gsb)

    p = sub.add_parser("machines", help="export multiplier transducers and pair automata")
    common(p)
    p.add_argument("--gamma", required=True, help="a letter, or 'eps' for the identity")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--out", default=None, help="directory for one file per machine")
    p.set_defaults(fn=cmd_machines)

    p = sub.add_parser("verify", help="run the exhaustive verification suites")
    common(p, rank_default=verify.Config.rank)
    p.add_argument("--max-len", type=int, default=verify.Config.max_len)
    p.add_argument(
        "--thorough", action="store_true", help="raise the rank to at least 4 and the length to at least 7"
    )
    p.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        check_rank(args.rank)
        # an empty --out would fall back to stdout, or to `Path('')`, the working directory
        if getattr(args, "out", None) == "":
            raise OutputError("--out must name a path, got an empty one")
        cap = RANK_CAPS.get(args.command)
        if cap is not None and args.rank > cap:
            raise RankError(f"{args.command} runs at --rank {cap} at most, got {args.rank}")
        return args.fn(args)
    except (ParseError, NotInL, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PlacticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
