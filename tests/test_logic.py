import pytest
from hypothesis import given, strategies as st

from polymin.logic import (
    TOP,
    And,
    Atom,
    Diamond,
    Eta,
    EtaPurityError,
    FormulaSyntaxError,
    Gamma,
    MAX_DEPTH,
    Not,
    Or,
    Top,
    UndefinedIdentifierError,
    atoms_of,
    format_formula,
    is_eta_pure,
    node_count,
    parse_formula,
    parse_script,
)

from oracles import encode_eta_to_gamma, random_formula

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


def formulas(atoms=("red", "blue", "p_1")):
    leaf = st.one_of(
        st.just(TOP), st.sampled_from([Atom(a) for a in atoms]), st.just(Atom("odd name"))
    )
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
