import gc
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import polymin
from polymin.logic import (
    TOP,
    And,
    Atom,
    Diamond,
    Eta,
    Formula,
    FormulaSyntaxError,
    Gamma,
    MAX_DEPTH,
    Not,
    Or,
    Top,
    UndefinedIdentifierError,
    UnprintableAtomError,
    format_formula,
    is_eta_pure,
    node_count,
    parse_formula,
    parse_script,
)

from oracles import (
    EtaPurityError, atoms_of, encode_eta_to_gamma, not_chain, random_formula, shared_and_chain,
)
from test_fuzz import NAMES

APPENDIX_SCRIPT = """load model = "polyInput_Poset.json"

let green       = ap("G")
let white       = ap("W")
let corridor    = ap("corridor")

let greenOrWhite = (green | white)

let oneStepToWhite   = eta((green | eta(corridor,white)),white)
let twoStepsToWhite  = eta((green | eta(corridor,oneStepToWhite)), oneStepToWhite) & (!oneStepToWhite)
let threeStepsToWhite = eta((green | eta(corridor,twoStepsToWhite)), twoStepsToWhite) &
                        (!twoStepsToWhite) & (!oneStepToWhite)

let phi1 = eta((green | eta(corridor,white)),white)
let phi2 = eta((green | eta(corridor,oneStepToWhite)), oneStepToWhite)

save "green" green
save "white" white
save "corr" corridor
save "phi1" phi1
save "phi2" phi2
"""


class TestParseFormula:
    def test_corridor_formula_shape(self):
        f = parse_formula("eta(corridor,white) & !eta(corridor, green | black | red)")
        assert f == And(
            Eta(Atom("corridor"), Atom("white")),
            Not(Eta(Atom("corridor"), Or(Or(Atom("green"), Atom("black")), Atom("red")))),
        )

    def test_ap_quotes_atom(self):
        assert parse_formula('ap("G")') == Atom("G")

    def test_double_negation_is_not_simplified(self):
        assert parse_formula("!!p") == Not(Not(Atom("p")))

    def test_precedence_not_and_or(self):
        f = parse_formula("!a & b | c")
        assert f == Or(And(Not(Atom("a")), Atom("b")), Atom("c"))

    def test_parentheses(self):
        f = parse_formula("a & (b | c)")
        assert f == And(Atom("a"), Or(Atom("b"), Atom("c")))

    def test_true_literal(self):
        assert parse_formula("true") == TOP
        assert parse_formula("gamma(p, true)") == Gamma(Atom("p"), TOP)

    def test_diamond(self):
        assert parse_formula("diamond(p & q)") == Diamond(And(Atom("p"), Atom("q")))

    def test_syntax_error_has_position(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("a &\n& b")
        assert exc.value.line == 2
        assert exc.value.column == 1

    def test_trailing_garbage(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("a b")


@pytest.mark.parametrize("parse, text, error, message", [
    (parse_formula, "a &\n  (b | )", FormulaSyntaxError,
     "expected a formula, found ')' (line 2, column 8)"),
    (parse_formula, "a\r\n& @", FormulaSyntaxError, "unexpected character '@' (line 2, column 3)"),
    (parse_formula, "// note\neta(a b)", FormulaSyntaxError,
     "expected ',', found 'b' (line 2, column 7)"),
    (parse_formula, "diamond(a, b)", FormulaSyntaxError,
     "expected ')', found ',' (line 1, column 10)"),
    (parse_formula, "ap(x)", FormulaSyntaxError, "expected quoted atom name (line 1, column 4)"),
    (parse_formula, "a\n\tb", FormulaSyntaxError,
     "unexpected trailing input 'b' (line 2, column 2)"),
    (parse_formula, '"open', FormulaSyntaxError, "unexpected character '\"' (line 1, column 1)"),
    (parse_script, 'let a = ap("p")\n\nsave "x" a & zz', UndefinedIdentifierError,
     "undefined identifier 'zz' (line 3, column 14)"),
    (parse_script, 'load model = "m\0.json"', FormulaSyntaxError,
     "model path holds a NUL character (line 1, column 14)"),
    (parse_script, 'let a = true\nsave "x" a\nsave  "x" a', FormulaSyntaxError,
     "duplicate save name 'x' (line 3, column 7)"),
], ids=[
    "missing-operand", "crlf-is-one-line-break", "comment-line", "diamond-arity", "unquoted-ap",
    "tab-is-one-column", "unclosed-string", "undefined-identifier", "nul-in-model-path",
    "duplicate-save",
])
def test_error_positions(parse, text, error, message):
    """Lines and columns count characters; only ``\\n`` starts a line."""
    with pytest.raises(error) as exc:
        parse(text)
    assert type(exc.value) is error and str(exc.value) == message


def nested(shape, depth):
    """Text of a formula of exactly ``depth`` levels, nested by ``shape``."""
    k = depth - 1
    return {
        "not": "!" * k + "a",
        "and": " & ".join(["a"] * (k + 1)),
        "or": " | ".join(["a"] * (k + 1)),
        "eta": "eta(b, " * k + "a" + ")" * k,
        "diamond": "diamond(" * k + "a" + ")" * k,
    }[shape]


class TestDepthLimit:
    SHAPES = ["not", "and", "or", "eta", "diamond"]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_deepest_formula_is_usable(self, shape):
        f = parse_formula(nested(shape, MAX_DEPTH))
        assert parse_formula(format_formula(f)) == f
        assert node_count(f) >= MAX_DEPTH
        assert is_eta_pure(f) == (shape != "diamond")
        assert atoms_of(f) <= {"a", "b"}
        assert hash(f) == hash(parse_formula(format_formula(f)))
        if shape != "diamond":
            assert format_formula(encode_eta_to_gamma(f))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_one_level_deeper_is_rejected(self, shape):
        with pytest.raises(FormulaSyntaxError, match="nested deeper than"):
            parse_formula(nested(shape, MAX_DEPTH + 1))

    def test_parentheses_count_as_nesting(self):
        parse_formula("(" * (MAX_DEPTH - 1) + "a" + ")" * (MAX_DEPTH - 1))
        with pytest.raises(FormulaSyntaxError, match="nested deeper than"):
            parse_formula("(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH)

    def test_let_references_count_towards_depth(self):
        lets = "".join(f"let a{i + 1} = !a{i}\n" for i in range(MAX_DEPTH - 1))
        script = 'let a0 = ap("p")\n' + lets
        parse_script(script + f'save "x" a{MAX_DEPTH - 1}\n')
        with pytest.raises(FormulaSyntaxError, match="nested deeper than"):
            parse_script(script + f'save "x" !a{MAX_DEPTH - 1}\n')

    LETS = 'let a0 = ap("p")\n' + "".join(f"let a{i + 1} = !a{i}\n" for i in range(MAX_DEPTH - 1))

    @pytest.mark.parametrize("parse, text, position", [
        (parse_formula, " & ".join(["a"] * 101), "line 1, column 399"),
        (parse_formula, "!" * 100 + "a", "line 1, column 1"),
        (parse_formula, "b | " + " | ".join(["a"] * 100) + " & c", "line 1, column 399"),
        (parse_script, 'let a = ap("p")\nsave "deep" ' + "!" * 3000 + "a\n", "line 2, column 2913"),
        (parse_script, LETS + 'save "x" !a99\n', "line 101, column 10"),
        (parse_script, LETS + 'save "x" ap("q") & a99 | true\n', "line 101, column 18"),
        (parse_script, LETS + 'save "x" true |\n  eta(a99, true)\n', "line 102, column 3"),
        # nesting through call arguments is counted where the argument starts
        (parse_formula, "eta(b, " * 100 + "a" + ")" * 100, "line 1, column 698"),
    ], ids=["and-chain", "not-run", "or-chain", "long-not-run", "let-not", "let-infix",
            "let-call", "call-arguments"])
    def test_error_names_the_operator(self, parse, text, position):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse(text)
        assert str(exc.value) == f"formula nested deeper than {MAX_DEPTH} ({position})"


def tree_size(f):
    return 1 + sum(map(tree_size, f.operands))


class TestNodeCount:
    def test_counts_the_tree(self):
        for seed in range(100):
            f = random_formula(seed, 4, ["a", "b", "c"])
            assert node_count(f) == tree_size(f), seed
        shared = Atom("a")
        assert node_count(And(shared, Not(shared))) == 4

    def test_shared_let_chain_is_sized_once_per_node(self):
        # Written out as a tree, a60 has 2**61 - 1 nodes.  A child process
        # bounds the run, so a count that walks the tree fails by timeout.
        chain = 'let a0 = ap("p")\n' + "".join(f"let a{i + 1} = a{i} & a{i}\n" for i in range(60))
        code = (
            "import sys\n"
            "from polymin.logic import node_count, parse_script\n"
            "print(node_count(parse_script(sys.stdin.read()).saves['a']))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], input=chain + 'save "a" a60\n',
            env={**os.environ, "PYTHONPATH": str(Path(polymin.__file__).parent.parent)},
            capture_output=True, text=True, timeout=20,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert int(done.stdout) == 2**61 - 1

    def test_deep_library_formulas_are_walked_without_recursion(self):
        # MAX_DEPTH caps parsed formulas only; the constructors build any depth
        deep = not_chain(10_000, Gamma(Atom("a"), Atom("b")))
        shared = shared_and_chain(10_000, "a")
        counts = node_count(deep), node_count(shared)
        assert counts == (10_003, 2**10_001 - 1)
        assert (is_eta_pure(deep), is_eta_pure(shared)) == (False, True)
        # equal formulas are one object, so comparing and hashing walk nothing
        again = not_chain(10_000, Gamma(Atom("a"), Atom("b")))
        assert deep == again and deep != shared and shared == shared_and_chain(10_000, "a")
        assert hash(deep) == hash(again) and {deep, shared, again} == {deep, shared}


def tree_depth(f):
    match f:
        case Not(g) | Diamond(g):
            return 1 + tree_depth(g)
        case And(a, b) | Or(a, b) | Eta(a, b) | Gamma(a, b):
            return 1 + max(tree_depth(a), tree_depth(b))
    return 1


class TestInterning:
    def test_equal_formulas_are_one_object(self):
        assert And(Atom("a"), Atom("b")) is And(Atom("a"), Atom("b"))
        assert Top() is TOP
        assert parse_formula("a & !b") is And(Atom("a"), Not(Atom("b")))
        assert Eta(Atom("a"), Atom("b")) is not Gamma(Atom("a"), Atom("b"))
        assert Not(Atom("a")).operands == (Atom("a"),) and Atom("a").operands == ()

    def test_a_dropped_parse_is_freed_by_reference_counting(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            f = parse_formula("eta(dropped_x, !dropped_y) | dropped_z")
            refs = weakref.ref(f), weakref.ref(f.left.condition)
            del f
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()

    def test_threads_parsing_the_same_texts_get_one_object_per_text(self):
        texts = [format_formula(random_formula(seed, 4, ["a", "b", "c"])) for seed in range(40)]
        barrier = threading.Barrier(8)
        parsed: list[list] = [[] for _ in range(8)]

        def parse_all(out):
            barrier.wait(timeout=60)
            for _ in range(30):
                out.extend(map(parse_formula, texts))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=parse_all, args=(out,)) for out in parsed]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [len(out) for out in parsed] == [30 * len(texts)] * 8
        for i, text in enumerate(texts):
            [f] = {out[j] for out in parsed for j in range(i, len(out), len(texts))}
            assert format_formula(f) == text

    def test_nodes_are_immutable(self):
        f = And(Atom("a"), Atom("b"))
        for name in ("left", "depth", "size", "operands", "other"):
            with pytest.raises(AttributeError):
                setattr(f, name, Atom("c"))
        with pytest.raises(AttributeError):
            del f.right
        assert (f.left, f.right, f.depth, f.size) == (Atom("a"), Atom("b"), 2, 3)

    @pytest.mark.parametrize("make, message", [
        (lambda: Atom(), "Atom takes 1 argument"),
        (lambda: And(Atom("a")), "And takes 2 arguments"),
        (lambda: Top(TOP), "Top takes 0 arguments"),
    ], ids=["atom", "and", "top"])
    def test_wrong_operand_count(self, make, message):
        with pytest.raises(TypeError) as exc:
            make()
        assert str(exc.value) == message

    def test_depth_is_the_tree_depth(self):
        for seed in range(100):
            f = random_formula(seed, 4, ["a", "b", "c"])
            assert f.depth == tree_depth(f), seed
        assert not_chain(3, Atom("a")).depth == 4


def recursive_repr(f):
    """The dataclass-style spelling, one call per level: the reference for
    ``Formula.__repr__``."""
    args = (getattr(f, name) for name in f.__match_args__)
    spelled = (recursive_repr(a) if isinstance(a, Formula) else repr(a) for a in args)
    return f"{type(f).__name__}({', '.join(f'{n}={a}' for n, a in zip(f.__match_args__, spelled))})"


class TestRepr:
    def test_spelling(self):
        assert repr(Not(Atom("a"))) == "Not(operand=Atom(name='a'))"
        assert repr(TOP) == "Top()"
        f = parse_formula('eta(a & !b, gamma(c | true, diamond(ap("x\'y"))))')
        assert repr(f) == (
            "Eta(condition=And(left=Atom(name='a'), right=Not(operand=Atom(name='b'))), "
            "target=Gamma(condition=Or(left=Atom(name='c'), right=Top()), "
            "target=Diamond(operand=Atom(name=\"x'y\"))))"
        )
        assert repr(f) == recursive_repr(f)

    def test_random_formulas_match_the_recursive_spelling(self):
        for seed in range(200):
            f = random_formula(seed, 6, ["a", "b", "c"])
            assert repr(f) == recursive_repr(f), seed

    @pytest.mark.parametrize("deep, head, tail", [
        (lambda: not_chain(10_000, Atom("a")), "Not(operand=", ")"),
        (lambda: left_and_chain(10_000), "And(left=", ", right=Atom(name='b'))"),
    ], ids=["not", "left-and"])
    def test_deep_formulas_print(self, deep, head, tail):
        # far past the recursion limit: 10,000 levels over Atom("a")
        assert repr(deep()) == head * 10_000 + "Atom(name='a')" + tail * 10_000


def left_and_chain(length):
    f = Atom("a")
    for _ in range(length):
        f = And(f, Atom("b"))
    return f


class TestParseScript:
    def test_appendix_style_script(self):
        s = parse_script(APPENDIX_SCRIPT)
        assert list(s.saves) == ["green", "white", "corr", "phi1", "phi2"]
        assert s.model_ref == "polyInput_Poset.json"
        assert s.saves["green"] == Atom("G")
        # bindings substitute inline
        assert s.saves["phi1"] == Eta(
            Or(Atom("G"), Eta(Atom("corridor"), Atom("W"))), Atom("W")
        )

    def test_single_binding(self):
        s = parse_script('let a = ap("p")\nsave "x" a')
        assert list(s.saves) == ["x"]
        assert s.saves["x"] == Atom("p")
        assert s.model_ref is None

    def test_undefined_identifier(self):
        with pytest.raises(UndefinedIdentifierError):
            parse_script('save "x" undefinedName')

    def test_forward_reference_rejected(self):
        with pytest.raises(UndefinedIdentifierError):
            parse_script('let a = b\nlet b = ap("p")\nsave "x" a')

    def test_duplicate_save_name(self):
        with pytest.raises(FormulaSyntaxError):
            parse_script('let a = ap("p")\nsave "x" a\nsave "x" a')

    @pytest.mark.parametrize("text, message", [
        ('save x true', "expected quoted save name (line 1, column 6)"),
        ('load model = x', "expected quoted model path (line 1, column 14)"),
        ('load path = "m.json"', "expected 'model' after 'load' (line 1, column 6)"),
        ('let save = true', "expected binding name (line 1, column 5)"),
        ('let "a" = true', "expected binding name (line 1, column 5)"),
        ('save "x" true\nfoo',
         "expected 'let', 'save' or end of script, found 'foo' (line 2, column 1)"),
        ('save "x" true\nlet a = true',
         "expected 'let', 'save' or end of script, found 'let' (line 2, column 1)"),
    ], ids=[
        "unquoted-save-name", "unquoted-model-path", "load-without-model", "let-keyword",
        "let-string", "trailing-text", "let-after-save",
    ])
    def test_syntax_errors(self, text, message):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_script(text)
        assert type(exc.value) is FormulaSyntaxError and str(exc.value) == message

    def test_empty_script(self):
        s = parse_script("")
        assert s.saves == {}


class TestEncode:
    def test_single_eta(self):
        p, q = Atom("p"), Atom("q")
        assert encode_eta_to_gamma(Eta(p, q)) == And(p, Gamma(p, q))

    def test_atom_unchanged(self):
        assert encode_eta_to_gamma(Atom("p")) == Atom("p")

    def test_nested_eta_unfolds(self):
        p, q, r = Atom("p"), Atom("q"), Atom("r")
        inner = And(p, Gamma(p, q))
        expected = And(inner, Gamma(inner, r))
        assert encode_eta_to_gamma(Eta(Eta(p, q), r)) == expected

    def test_rejects_gamma_input(self):
        with pytest.raises(EtaPurityError):
            encode_eta_to_gamma(Gamma(Atom("p"), Atom("q")))
        with pytest.raises(EtaPurityError):
            encode_eta_to_gamma(Not(Diamond(Atom("p"))))

    def test_output_is_gamma_only(self):
        for seed in range(50):
            f = random_formula(seed, 3, ["a", "b"])
            encoded = encode_eta_to_gamma(f)

            def no_eta(g):
                match g:
                    case Eta():
                        return False
                    case Not(x) | Diamond(x):
                        return no_eta(x)
                    case And(x, y) | Or(x, y) | Gamma(x, y):
                        return no_eta(x) and no_eta(y)
                    case _:
                        return True

            assert no_eta(encoded)

    def test_size_bound(self):
        for seed in range(100):
            f = random_formula(seed, 4, ["a", "b", "c"])
            n_in = node_count(f)
            assert node_count(encode_eta_to_gamma(f)) <= 3 * n_in * n_in


def formulas(names=st.sampled_from(["red", "blue", "p_1", "odd name"])):
    leaf = st.one_of(st.just(TOP), names.map(Atom))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Eta, sub, sub),
            st.builds(Gamma, sub, sub),
            st.builds(Diamond, sub),
        ),
        max_leaves=25,
    )


class TestRoundTrip:
    @given(formulas())
    def test_print_then_parse_is_identity(self, f):
        assert parse_formula(format_formula(f)) == f

    @given(formulas(NAMES))
    @example(Atom("a\nb"))
    @example(And(TOP, Atom('a"b')))
    @example(Atom("a\rb - c"))
    def test_printed_text_parses_back_unless_a_name_cannot_be_quoted(self, f):
        if any('"' in a or "\n" in a for a in atoms_of(f)):
            with pytest.raises(UnprintableAtomError):
                format_formula(f)
        else:
            assert parse_formula(format_formula(f)) == f

    def test_deep_formulas_print_without_recursion(self):
        assert format_formula(not_chain(5000, Atom("a"))) == "!" * 5000 + "a"
        # 18 levels of let bindings that each use the one before twice
        lets = "".join(f"let a{i + 1} = a{i} & a{i}\n" for i in range(18))
        f = parse_script(f'let a0 = ap("a")\n{lets}save "x" a18\n').saves["x"]
        text = "a & a"
        for _ in range(17):
            text = f"{text} & ({text})"
        assert format_formula(f) == text

    def test_deep_chain_prints_holding_one_level_of_text(self):
        f = not_chain(5000, Atom("a"))
        tracemalloc.start()
        try:
            text = format_formula(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text == "!" * 5000 + "a"
        assert peak < 2_000_000, peak

    def test_keyword_shaped_atom_uses_ap(self):
        f = Atom("true")
        text = format_formula(f)
        assert text == 'ap("true")'
        assert parse_formula(text) == f


class TestRandomFormula:
    def test_depth_zero_gives_leaf(self):
        f = random_formula(1, 0, ["p"])
        assert f in (Atom("p"), TOP)

    def test_pinned_regression_value(self):
        # frozen after the first run; deterministic in the seed
        assert random_formula(7, 3, ["red", "blue"]) == Not(Atom("blue"))

    def test_stable_across_atom_ordering(self):
        assert random_formula(7, 3, ["blue", "red"]) == random_formula(7, 3, ["red", "blue"])

    def test_empty_atoms_error(self):
        with pytest.raises(ValueError):
            random_formula(3, 2, [])

    def test_always_eta_pure_and_bounded(self):
        for seed in range(60):
            f = random_formula(seed, 3, ["a", "b"])
            assert is_eta_pure(f)

            def depth(g):
                match g:
                    case Top() | Atom():
                        return 0
                    case Not(x) | Diamond(x):
                        return 1 + depth(x)
                    case And(x, y) | Or(x, y) | Eta(x, y) | Gamma(x, y):
                        return 1 + max(depth(x), depth(y))

            assert depth(f) <= 3
