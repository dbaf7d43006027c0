"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (zero tolerance); the asserted time budgets are the
contractual ceilings.  A criterion prints PASS only when its checks hold
and it finished within its budget.  Run with `pytest -v -s` to see the
per-criterion lines.
"""

import time

import pytest

from plactic.automata import delta_l, delta_r, transducer_outputs
from plactic.cli import main
from plactic.core import (
    column_ge,
    iter_columns,
    iter_tableaux,
    knuth_class,
    lds,
    lnds,
    tableau_of_word,
)
from plactic.errors import ViolationFound
from plactic.multipliers import (
    general_multiplier,
    left_multiplier,
    multiplier_pair_automata,
    right_multiplier,
)
from plactic.rewriting import (
    check_termination,
    critical_pairs,
    decode_word,
    encode_word,
    generate_rules,
    gsb_export,
    gsb_text,
    normalize,
    parse_cword,
    product_columns,
    word_less,
)

import oracles

RULE_COUNTS = {1: 0, 2: 3, 3: 22, 4: 115, 5: 531}


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        in_budget = elapsed < self.seconds
        status = "PASS" if exc_type is None and in_budget else "FAIL"
        print(f"{status} {self.name} ({elapsed:.2f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert in_budget, f"{self.name} exceeded {self.seconds}s"


def test_criterion_01_worked_example(capsys):
    with Budget("criterion 1: column reading of the worked example", 1.0):
        code = main(["tableau", "--rank", "6", "6345511235"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[-1] == "6314152535"
    # re-print inside the captured stream so -s shows it
    print(capsys.readouterr().out, end="")


def test_criterion_02_subsequence_theorem():
    with Budget("criterion 2: column/row counts equal subsequence lengths", 10.0):
        checked = 0
        for rank in (2, 3, 4):
            for w in oracles.all_words(rank, 7):
                t = tableau_of_word(w)
                assert t.width == lnds(w)
                assert t.height == lds(w)
                checked += 1
        assert checked == 255 + 3280 + 21845


def test_criterion_03_cross_section():
    with Budget("criterion 3: equivalence classes match tableaux", 60.0):
        for rank in (1, 2, 3):
            words = oracles.all_words(rank, 5)
            classes = {w: knuth_class(w) for w in words}
            tableaux = {w: tableau_of_word(w).columns for w in words}
            by_len = {}
            for w in words:
                by_len.setdefault(len(w), []).append(w)
            for group in by_len.values():
                for u in group:
                    cu = classes[u]
                    tu = tableaux[u]
                    for v in group:
                        assert (v in cu) == (tu == tableaux[v])


def test_criterion_04_rewriting_completeness():
    with Budget("criterion 4: rule coverage, termination, confluence", 30.0):
        for rank in (1, 2, 3, 4, 5):
            rs = generate_rules(rank)
            cols = list(iter_columns(rank))
            incomparable = {
                (a, b) for a in cols for b in cols if not column_ge(a, b)
            }
            assert set(rs.rules) == incomparable
            assert len(rs.rules) == RULE_COUNTS[rank]
            assert check_termination(rs) == RULE_COUNTS[rank]
            overlaps = list(critical_pairs(rs))
            assert all(o.converged for o in overlaps)
            if rank == 1:
                assert overlaps == []
        flipped = type(rs)(2, {((2, 1), (2, 1)): ((2,), (1,), (2, 1))})
        with pytest.raises(ViolationFound):
            check_termination(flipped)


def test_criterion_05_normal_form_oracle():
    with Budget("criterion 5: normal forms equal tableau readings", 30.0):
        for rank in (2, 3, 4):
            rs = generate_rules(rank)
            for w in oracles.all_words(rank, 7):
                nf = normalize(encode_word(w), rs)
                assert decode_word(nf) == tableau_of_word(w).column_reading()


def test_criterion_06_two_column_products():
    with Budget("criterion 6: incomparable products have at most two columns", 5.0):
        for rank in (1, 2, 3, 4, 5):
            for a in iter_columns(rank):
                for b in iter_columns(rank):
                    result = product_columns(a, b)
                    if column_ge(a, b):
                        assert result is None
                        continue
                    assert result is not None and len(result) in (1, 2)
                    if len(result) == 2:
                        assert len(result[0]) > len(a)


def test_criterion_07_gsb_export():
    with Budget("criterion 7: binomial basis matches rules and order", 1.0):
        for rank in (2, 3):
            rs = generate_rules(rank)
            binomials = gsb_export(rs)["binomials"]
            assert len(binomials) == len(rs.rules)
            seen = set()
            for b in binomials:
                leading = parse_cword("c:" + ",".join(b["leading"]), rank)
                trailing = parse_cword("c:" + ",".join(b["trailing"]), rank)
                assert leading in rs.rules and rs.rules[leading] == trailing
                assert word_less(trailing, leading)
                assert (b["leading_coeff"], b["trailing_coeff"]) == (1, -1)
                seen.add(leading)
            assert seen == set(rs.rules)
            assert "".join(gsb_text(rs)) == "".join(gsb_text(generate_rules(rank)))
        assert "".join(gsb_text(generate_rules(2))) == (
            "order: deglex; symbol order: |subscript| desc, then lex\n"
            "c[1]*c[21] - c[21]*c[1]\n"
            "c[2]*c[21] - c[21]*c[2]\n"
            "c[2]*c[1] - c[21]\n"
        )


def test_criterion_08_multiplier_transducers():
    with Budget("criterion 8: multipliers compute normalized products", 60.0):
        for rank in (1, 2, 3):
            rs = generate_rules(rank)
            kwords = [t.columns for t in iter_tableaux(rank, 6)]
            for gamma in range(1, rank + 1):
                rm = right_multiplier(rank, gamma)
                lm = left_multiplier(rank, gamma)
                for u in kwords:
                    assert transducer_outputs(rm, u) == {normalize(u + ((gamma,),), rs)}
                    assert transducer_outputs(lm, u) == {normalize(((gamma,),) + u, rs)}


def test_criterion_09_biautomaticity_witness():
    with Budget("criterion 9: four pair automata agree with the product oracle", 300.0):
        for rank in (1, 2, 3):
            lwords = [t.column_reading() for t in iter_tableaux(rank, 6)]
            for gamma in [None] + list(range(1, rank + 1)):
                g = (gamma,) if gamma else ()
                machines = multiplier_pair_automata(rank, gamma)
                assert set(machines) == {
                    ("right", "R"),
                    ("right", "L"),
                    ("left", "R"),
                    ("left", "L"),
                }
                for (side, direction), pa in machines.items():
                    encode = delta_r if direction == "R" else delta_l
                    nfa = pa.nfa
                    expected = {
                        u: tableau_of_word(u + g if side == "right" else g + u).column_reading()
                        for u in lwords
                    }
                    for u in lwords:
                        want = expected[u]
                        for v in lwords:
                            assert nfa.accepts(encode(u, v)) == (v == want)


def test_criterion_10_encoder_duality():
    with Budget("criterion 10: the two encodings are mirror images", 5.0):
        words = oracles.all_words(3, 6)
        reverses = {w: tuple(reversed(w)) for w in words}
        for u in words:
            ru = reverses[u]
            for v in words:
                assert tuple(reversed(delta_r(u, v))) == delta_l(ru, reverses[v])


def test_criterion_11_change_of_generators():
    with Budget("criterion 11: composed multipliers for words over the alphabet", 30.0):
        lwords = [t.column_reading() for t in iter_tableaux(2, 5)]
        for b in ((1, 2), (2, 1)):
            gm = general_multiplier(2, b, "right")
            for u in lwords:
                assert transducer_outputs(gm, u) == {
                    tableau_of_word(u + b).column_reading()
                }
