"""Tokenizer, parser and pretty-printer: shapes from the concrete syntax and
the corpus round-trip property."""

import pytest

from sizedcheck.diagnostics import Diagnostic
from sizedcheck.parser import parse_source, tokenize
from sizedcheck.pretty import pretty, pretty_program
from sizedcheck.scope import scope_check
from sizedcheck.sizes import INFTY
from sizedcheck.syntax import (
    Annot,
    App,
    CaseData,
    FunDecl,
    Lam,
    LetDecl,
    PCon,
    PDot,
    Pi,
    PVar,
    SetU,
    Size,
    SizeU,
    LineTable,
    fresh_ident,
)

from conftest import SNAT_PARAMETRIC, accept_sources, alpha_eq_programs


class TestTokenize:
    def test_inc2_application(self):
        toks = tokenize("succ ($ i) n")
        assert toks.texts == ["succ", "(", "$", "i", ")", "n", ""]
        assert toks.offsets == [0, 5, 6, 8, 9, 11, 12]

    def test_empty_source(self):
        toks = tokenize("")
        assert (toks.texts, toks.offsets) == ([""], [0])

    def test_double_successor_is_two_dollars(self):
        toks = tokenize("($$ i)")
        assert toks.texts[:-1] == ["(", "$", "$", "i", ")"]

    def test_comments_and_crlf(self):
        src = "a -- comment $ # {\r\nb"
        toks = tokenize(src)
        assert toks.texts[:-1] == ["a", "b"]
        assert LineTable(src).line_col(toks.offsets[1]) == (2, 1)

    def test_longest_match_symbols(self):
        toks = tokenize("++ -> > .")
        assert toks.texts[:-1] == ["++", "->", ">", "."]

    def test_lex_error_position(self):
        with pytest.raises(Diagnostic) as e:
            tokenize("abc @")
        assert e.value.code == "PARSE"
        assert LineTable("abc @").line_col(e.value.pos) == (1, 5)
        assert str(e.value) == "PARSE <input>:@4 illegal character '@'"

    def test_one_string_per_distinct_name(self):
        # each match of a name is a new string until tokenize shares it
        texts = tokenize("name xy name xy name").texts
        assert texts[:-1] == ["name", "xy"] * 2 + ["name"]
        assert len({id(t) for t in texts[:-1]}) == 2

    def test_token_count_bounded(self):
        for src in ["", "a b c", "($$ i)", "-- only a comment", "x" * 100]:
            assert len(tokenize(src)) <= len(src) + 1 or src == ""


class TestParse:
    def test_minus_block_clause_shapes(self):
        src = SNAT_PARAMETRIC + """
fun minus : [i : Size] -> SNat i -> SNat # -> SNat i
{ minus i (zero (i > j))    y          = zero j
; minus i  x               (zero .#)   = x
; minus i (succ (i > j) x) (succ .# y) = minus j x y
}
"""
        decls = parse_source(src)
        minus = decls[1]
        assert isinstance(minus, FunDecl) and len(minus.clauses) == 3
        mid = minus.clauses[1].lhs
        assert isinstance(mid[0], PVar) and isinstance(mid[1], PVar)
        assert isinstance(mid[2], PCon) and mid[2].con.text == "zero"
        (dot,) = mid[2].args
        assert isinstance(dot, PDot) and isinstance(dot.expr, Size)
        assert dot.expr.size == ((INFTY, 0),)

    def test_plain_let(self):
        (d,) = parse_source("let x : Set = Set")
        assert isinstance(d, LetDecl) and d.eval is False

    def test_eval_let(self):
        (d,) = parse_source("let n : Set = Set\n")
        assert not d.eval
        (d,) = parse_source("eval let n : Set = Set\n")
        assert d.eval

    def test_pre_is_lambda_chain_ending_in_case(self):
        src = """
let pre : [i : Size] -> (Nat -> O ($$ i)) -> Nat -> O ($ i)
  = \\ i -> \\ f -> \\ n -> case (f (succ n))
    { (Z .($ i))     -> Z i
    ; (S .($ i) x)   -> x
    ; (L .($ i) g)   -> g n
    ; (M .($ i) a b) -> a
    }
"""
        (d,) = parse_source(src)
        body = d.body
        depth = 0
        while isinstance(body, Lam):
            body = body.body
            depth += 1
        assert depth == 3
        assert isinstance(body, CaseData) and len(body.branches) == 4

    def test_sized_data_with_polarity(self):
        (d,) = parse_source(
            "sized data Rose ++(A : Set) : Size -> Set "
            "{ rose : [i : Size] -> A -> Rose A i -> Rose A ($ i) }"
        )
        from sizedcheck.syntax import Polarity

        assert d.sized and not d.coinductive
        assert d.params[0].polarity is Polarity.STRICT_POS
        assert isinstance(d.index_sig, Pi)
        assert isinstance(d.index_sig.domain, SizeU)

    def test_multi_successor_pattern_rejected(self):
        src = "cofun bad : [i : Size] -> Stream Nat i { bad ($$ i) = bad i }"
        with pytest.raises(Diagnostic) as e:
            parse_source(src)
        assert e.value.code == "PARSE"
        assert "successor" in e.value.message

    def test_arrow_right_associative(self):
        (d,) = parse_source("let T : Set = Set -> Set -> Set")
        t = d.body
        assert isinstance(t, Pi) and isinstance(t.codomain, Pi)

    def test_application_left_associative(self):
        (d,) = parse_source("let x : Set = f a b")
        b = d.body
        assert isinstance(b, App) and isinstance(b.fun, App)

    def test_clause_head_must_match(self):
        with pytest.raises(Diagnostic) as e:
            parse_source("fun f : Set -> Set { g x = x }")
        assert e.value.code == "PARSE"

    def test_parse_error_positions_in_bounds(self):
        bad_sources = [
            "fun : Set",
            "let x Set = Set",
            "data D : Set { c : }",
            "let x : Set = (",
        ]
        for src in bad_sources:
            with pytest.raises(Diagnostic) as e:
                parse_source(src)
            assert e.value.code == "PARSE"
            line, col = LineTable(src).line_col(e.value.pos)
            lines = src.splitlines() or [""]
            assert 1 <= line <= len(lines) + 1
            assert col >= 1


class TestChainDepth:
    """A chain of binders and arrows is collected in a loop, so its length
    costs the parser no stack."""

    N = 1000

    def links(self, e, node):
        out = []
        while isinstance(e, node):
            out.append(e)
            e = e.codomain if node is Pi else e.body
        return out, e

    def shown(self, src, nodes):
        lines = LineTable(src)
        return [lines.line_col(n.pos) for n in nodes]

    def test_chained_arrows(self):
        src = "let T : Set = " + "Set -> " * self.N + "Set"
        (d,) = parse_source(src)
        pis, last = self.links(d.body, Pi)
        assert len(pis) == self.N and isinstance(last, SetU)
        assert all(p.binder is None and p.annot is Annot.RELEVANT for p in pis)
        assert self.shown(src, pis[:2]) == [(1, 15), (1, 22)]

    def test_parametric_binders(self):
        src = "let T : Set = " + "[i : Size] -> " * self.N + "Set"
        (d,) = parse_source(src)
        pis, last = self.links(d.body, Pi)
        assert len(pis) == self.N and isinstance(last, SetU)
        assert all(p.annot is Annot.PARAMETRIC and isinstance(p.domain, SizeU) for p in pis)
        assert self.shown(src, pis[:2]) == [(1, 15), (1, 29)]

    def test_nested_lambdas(self):
        src = "let f : Set = " + "\\ x -> " * self.N + "x"
        (d,) = parse_source(src)
        lams, last = self.links(d.body, Lam)
        # the body's x is bound by the innermost lambda
        assert len(lams) == self.N and last.name is lams[-1].binder
        assert self.shown(src, lams[:2]) == [(1, 15), (1, 22)]


class TestPretty:
    def test_parametric_pi_with_folded_successors(self):
        src = SNAT_PARAMETRIC + "let f : [i : Size] -> SNat i -> SNat ($$ i) = \\ i -> \\ n -> succ ($ i) (succ i n)"
        decls = scope_check(parse_source(src))
        assert pretty(decls[1].type) == "[i : Size] -> SNat i -> SNat ($ ($ i))"

    def test_var(self):
        x = fresh_ident("x")
        from sizedcheck.syntax import Var

        assert pretty(Var(x)) == "x"

    def test_case_size_prints(self):
        src = "fun f : Size -> Set { f i = Set }"
        # exercise the printer on a handwritten size-case node
        from sizedcheck.syntax import CaseSize, SetU

        j = fresh_ident("j")
        i = fresh_ident("i")
        assert pretty(CaseSize(((i, 0),), j, SetU())) == "case i { ($ j) -> Set }"

    @pytest.mark.parametrize("name", sorted(accept_sources()))
    def test_roundtrip_over_corpus(self, name):
        src = accept_sources()[name]
        first = parse_source(src)
        printed = pretty_program(first)
        second = parse_source(printed)
        assert alpha_eq_programs(first, second), printed

    @pytest.mark.parametrize("name", ["bad"])
    def test_roundtrip_skips_unparseable(self, name):
        # reject-corpus entries that fail at parse have no tree to round-trip
        from conftest import reject_sources

        with pytest.raises(Diagnostic) as e:
            parse_source(reject_sources()[name])
        assert e.value.code == "PARSE"

    def test_roundtrip_reject_corpus(self):
        from conftest import reject_sources

        for name, src in reject_sources().items():
            if name == "bad":
                continue
            first = parse_source(src)
            assert alpha_eq_programs(first, parse_source(pretty_program(first))), name
