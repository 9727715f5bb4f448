import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_bounds import (Box, FieldEvaluationError, FieldSyntaxError,
                             ProblemSpec, QuadratureGrid, bound_context,
                             differentiate, parse_field, phase_space_tables)
from spectral_bounds.expressions import _MAX_DEPTH, const, is_constant


def ev(expr, nu, *points):
    """Evaluate at a list of points given as tuples.

    Constant expressions come back as scalars; broadcast to match the
    point count, as the quadrature grid does.
    """
    f = parse_field(expr, nu)
    cols = [np.array([p[i] for p in points], dtype=float) for i in range(nu)]
    out = np.asarray(f.evaluate(cols), dtype=float)
    return np.broadcast_to(out, (len(points),))


class TestParseEvaluate:
    def test_polynomial(self):
        out = ev("x^2 + 3*y - 1", 2, (2.0, 1.0), (-1.0, 0.5))
        assert out == pytest.approx([6.0, 1.5])

    def test_precedence(self):
        assert ev("2 + 3*4^2", 1, (0.0,))[0] == 50.0
        assert ev("-2^2", 1, (0.0,))[0] == -4.0
        # repeated constant exponents fold left: (2^3)^2
        assert ev("2^3^2", 1, (0.0,))[0] == 64.0
        assert ev("(2+3)*4", 1, (0.0,))[0] == 20.0

    def test_division_and_unary(self):
        assert ev("x/4 - -x", 1, (2.0,))[0] == pytest.approx(2.5)

    def test_functions(self):
        x = 0.7
        vals = ev("sin(x) + cos(x) + exp(x)", 1, (x,))
        assert vals[0] == pytest.approx(math.sin(x) + math.cos(x) + math.exp(x))
        assert ev("log(x)", 1, (2.0,))[0] == pytest.approx(math.log(2.0))
        assert ev("sqrt(x)", 1, (9.0,))[0] == 3.0
        assert ev("abs(x)", 1, (-3.5,))[0] == 3.5

    def test_pi_constant(self):
        assert ev("2*pi", 1, (0.0,))[0] == pytest.approx(2 * math.pi)

    def test_step_convention(self):
        # step is the indicator of strict positivity: step(0) = 0
        out = ev("step(x)", 1, (-1.0,), (0.0,), (1e-12,))
        assert list(out) == [0.0, 0.0, 1.0]

    def test_min_max(self):
        out = ev("min(x, y) + 2*max(x, y)", 2, (1.0, 3.0), (5.0, -2.0))
        assert out == pytest.approx([7.0, 8.0])

    def test_coordinates_by_dimension(self):
        assert ev("x + y + z", 3, (1.0, 2.0, 3.0))[0] == 6.0
        with pytest.raises(FieldSyntaxError):
            parse_field("z", 2)

    def test_fractional_power(self):
        assert ev("x^(1/2)", 1, (4.0,))[0] == pytest.approx(2.0)
        assert ev("x^(2/3)", 1, (8.0,))[0] == pytest.approx(4.0)


class TestErrors:
    def test_syntax_error_position(self):
        with pytest.raises(FieldSyntaxError) as err:
            parse_field("x + * y", 2)
        assert "position" in str(err.value)

    def test_unbalanced_parens(self):
        with pytest.raises(FieldSyntaxError):
            parse_field("(x + 1", 1)

    def test_unknown_function(self):
        with pytest.raises(FieldSyntaxError):
            parse_field("sinh(x)", 1)

    def test_empty(self):
        with pytest.raises(FieldSyntaxError):
            parse_field("", 1)

    def test_non_finite_evaluation(self):
        with pytest.raises(FieldEvaluationError):
            ev("1/x", 1, (0.0,))
        with pytest.raises(FieldEvaluationError):
            ev("log(x)", 1, (-1.0,))
        with pytest.raises(FieldEvaluationError):
            ev("sqrt(x)", 1, (-4.0,))


    @pytest.mark.parametrize("source,position", [
        ("1.2.3", 3), ("1e+", 1), ("x^(1.2.3)", 6), ("x^(1/0)", 5),
        ("x^(2/0.0)", 5), ("1e400*x", 0), ("x^1e400", 2)])
    def test_bad_literal_position(self, source, position):
        with pytest.raises(FieldSyntaxError) as err:
            parse_field(source, 1)
        assert err.value.position == position

    @pytest.mark.parametrize("source,position", [
        ("x^1e-4000000", 2), ("1e-400*x", 0), ("x^(2/1e-400)", 5)])
    def test_underflowing_literal_refused(self, source, position):
        # the exact rational of 1e-4000000 would take seconds to build
        with pytest.raises(FieldSyntaxError, match="underflows") as err:
            parse_field(source, 1)
        assert err.value.position == position

    @pytest.mark.parametrize("source,value", [
        ("x^1e-300", 1.0), ("0e5", 0.0), ("0.0", 0.0), ("x^0e-4000000", 1.0),
        ("1e-320*x", 2e-320)])
    def test_zero_and_tiny_literals_parse(self, source, value):
        assert ev(source, 1, (2.0,))[0] == value

    def test_non_finite_constant_prints(self):
        assert str(const(math.inf)) == "inf"
        assert str(const(-math.inf)) == "(-inf)"
        assert str(const(math.nan)) == "nan"
        with pytest.raises(FieldEvaluationError, match="'inf'"):
            const(math.inf).evaluate([])


class TestNestingLimit:
    # sqrt(x/(2 + x/(2 + ... x))): two tree levels per "x/(2+", and the
    # quotient rule makes its derivatives the deepest per level
    @staticmethod
    def quotients(levels):
        return "sqrt(" + "x/(2+" * levels + "x" + ")" * levels + ")"

    @pytest.mark.parametrize("source", [
        "1 + 0*" + "(" * 2000 + "x" + ")" * 2000,
        "x" + "+x" * 5000,
        "-" * (_MAX_DEPTH + 1) + "x"],
        ids=["parentheses", "long-sum", "unary-minus"])
    def test_too_deep_sources_are_refused(self, source):
        with pytest.raises(FieldSyntaxError, match="nests deeper than"):
            parse_field(source, 2)

    def test_limit_is_exact(self):
        parse_field("x" + "+x" * (_MAX_DEPTH - 1), 2)
        with pytest.raises(FieldSyntaxError, match="nests deeper than"):
            parse_field("x" + "+x" * _MAX_DEPTH, 2)
        parse_field("(" * _MAX_DEPTH + "x" + ")" * _MAX_DEPTH, 2)
        with pytest.raises(FieldSyntaxError, match="nests deeper than"):
            parse_field("(" * (_MAX_DEPTH + 1) + "x" + ")" * (_MAX_DEPTH + 1),
                        2)

    def test_source_at_the_limit_survives_rho(self):
        # Vtilde = V + |grad rho|^2 holds first derivatives of rho, and the
        # phase-space nodes differentiate Vtilde again
        source = self.quotients((_MAX_DEPTH - 2) // 2)
        with pytest.raises(FieldSyntaxError):
            parse_field("sqrt(" + source + ")", 2)
        problem = ProblemSpec(Box((1.0, 1.0)), rho=source, V=source)
        grid = QuadratureGrid(problem.domain, 8)
        vt = problem.effective_potential()
        for axis in range(2):
            assert str(differentiate(vt, axis))
        assert np.isfinite(bound_context(problem, grid).vw_mean)
        assert phase_space_tables(problem, grid).lip_at(np.inf) > 0.0


class TestDifferentiate:
    def grad_check(self, expr, nu, point, axis, tol=1e-6):
        """Central difference vs the symbolic derivative."""
        f = parse_field(expr, nu)
        g = differentiate(f, axis)
        h = 1e-6
        lo = list(point); hi = list(point)
        lo[axis] -= h; hi[axis] += h
        cols_lo = [np.array([v]) for v in lo]
        cols_hi = [np.array([v]) for v in hi]
        num = (f.evaluate(cols_hi)[0] - f.evaluate(cols_lo)[0]) / (2 * h)
        sym = g.evaluate([np.array([v]) for v in point])[0]
        assert sym == pytest.approx(num, abs=tol, rel=1e-5)

    def test_polynomial(self):
        self.grad_check("x^3 + x*y^2", 2, (1.3, 0.7), 0)
        self.grad_check("x^3 + x*y^2", 2, (1.3, 0.7), 1)

    def test_trig_exp(self):
        self.grad_check("sin(2*x)*exp(y)", 2, (0.4, -0.2), 0)
        self.grad_check("sin(2*x)*exp(y)", 2, (0.4, -0.2), 1)

    def test_chain_sqrt(self):
        self.grad_check("sqrt(1 + x^2)", 1, (0.9,), 0)

    def test_abs_one_sided_at_zero(self):
        # derivative of |x| takes the left branch value -1 at x = 0
        g = differentiate(parse_field("abs(x)", 1), 0)
        out = g.evaluate([np.array([-2.0, 0.0, 2.0])])
        assert list(out) == [-1.0, -1.0, 1.0]

    def test_step_derivative_zero(self):
        g = differentiate(parse_field("step(x)", 1), 0)
        out = np.broadcast_to(np.asarray(g.evaluate([np.array([-1.0, 0.0, 1.0])])), (3,))
        assert list(out) == [0.0] * 3

    def test_min_tie_takes_first_branch(self):
        g = differentiate(parse_field("min(x, 2*x)", 1), 0)
        # at x = 0 the arguments tie; the first argument's slope 1 wins
        assert g.evaluate([np.array([0.0])])[0] == 1.0
        g = differentiate(parse_field("max(x, 2*x)", 1), 0)
        assert g.evaluate([np.array([0.0])])[0] == 1.0


@pytest.mark.parametrize("source,constant", [
    ("-0.5", True), ("2*3 + 1", True), ("sin(1)^2", True),
    ("max(1, 2)", True), ("x", False), ("0*y", False),
    ("step(x - 0.5)", False), ("max(1, z)", False)])
def test_is_constant_means_no_coordinate(source, constant):
    # the parse does not fold constants: -0.5 is a negation node
    assert is_constant(parse_field(source, 3)) is constant


# str() of a parsed source, of its derivative along x1 and of that
# derivative along x_nu: every node type and every function's rule, ties
# included.  Error entries in a report carry str() of the field.
PRINTED = [
    ("1", 1, "1",
     "0",
     "0"),
    ("2.5*x", 1, "2.5*x1",
     "2.5",
     "0"),
    ("x^2 + 3*y - 1", 2, "x1^2+3*x2-1",
     "2*x1",
     "0"),
    ("x/4 - -x", 1, "x1/4--x1",
     "1/4-(-1.0)",
     "0"),
    ("(x - y)*(x + y)/(1 + x^2)", 2, "(x1-x2)*(x1+x2)/(1+x1^2)",
     "(x1+x2+(x1-x2))/(1+x1^2)-(x1-x2)*(x1+x2)*(2*x1)/(1+x1^2)^2",
     "-(((-1.0)*(x1+x2)+(x1-x2))*(2*x1)/(1+x1^2)^2)"),
    ("-x^2", 1, "-x1^2",
     "-(2*x1)",
     "(-2.0)"),
    ("x^(1/2) + y^(-2) + x^(-3/2)", 2, "x1^(1/2)+x2^(-2)+x1^(-3/2)",
     "0.5*x1^(-1/2)+(-1.5)*x1^(-5/2)",
     "0"),
    ("2^3^2*x", 1, "(2^3)^2*x1",
     "(2^3)^2",
     "0"),
    ("sin(2*x)*cos(y)", 2, "sin(2*x1)*cos(x2)",
     "cos(2*x1)*2*cos(x2)",
     "cos(2*x1)*2*-sin(x2)"),
    ("exp(-x^2)*log(1 + y^2)", 2, "exp(-x1^2)*log(1+x2^2)",
     "exp(-x1^2)*-(2*x1)*log(1+x2^2)",
     "exp(-x1^2)*-(2*x1)*(2*x2/(1+x2^2))"),
    ("sqrt(1 + x^2)", 1, "sqrt(1+x1^2)",
     "2*x1/(2*sqrt(1+x1^2))",
     "2/(2*sqrt(1+x1^2))-2*x1*(2*(2*x1/(2*sqrt(1+x1^2))))/(2*sqrt(1+x1^2))^2"),
    ("abs(x - y)", 2, "abs(x1-x2)",
     "2*step(x1-x2)-1",
     "0"),
    ("step(x)*x^2", 1, "step(x1)*x1^2",
     "step(x1)*(2*x1)",
     "step(x1)*2"),
    ("min(x, 2*y) + max(y, x^2)", 2, "min(x1,2*x2)+max(x2,x1^2)",
     "1+step(x1-2*x2)*(-1.0)+step(x1^2-x2)*(2*x1)",
     "0"),
    ("min(x, x) - max(y, y)", 2, "min(x1,x1)-max(x2,x2)",
     "1",
     "0"),
    ("pi*x1 + 1e20*y - 0.25", 2, "3.141592653589793*x1+1e+20*x2-0.25",
     "3.141592653589793",
     "0"),
    ("x/(1 - y)^2", 2, "x1/(1-x2)^2",
     "1/(1-x2)^2",
     "-(2*(1-x2)*(-1.0)/((1-x2)^2)^2)"),
    ("-(x - 1)*-y", 2, "-(x1-1)*-x2",
     "(-1.0)*-x2",
     "1"),
    ("x1*x4 - x3/x2", 4, "x1*x4-x3/x2",
     "x4",
     "1"),
    ("0*x + 1*y", 2, "0*x1+1*x2",
     "0",
     "0"),
    ("cos(x)", 1, "cos(x1)",
     "-sin(x1)",
     "-cos(x1)"),
    ("abs(x)", 1, "abs(x1)",
     "2*step(x1)-1",
     "0"),
    ("exp(x)/sqrt(y)", 2, "exp(x1)/sqrt(x2)",
     "exp(x1)/sqrt(x2)",
     "-(exp(x1)*(1/(2*sqrt(x2)))/sqrt(x2)^2)"),
    (".5e1*x^(2/1.5)", 1, "5*x1^(4/3)",
     "5*(1.3333333333333333*x1^(1/3))",
     "5*(1.3333333333333333*(0.3333333333333333*x1^(-2/3)))"),
]


@pytest.mark.parametrize("source,nu,printed,first,second", PRINTED,
                         ids=[row[0] for row in PRINTED])
def test_printed_trees(source, nu, printed, first, second):
    f = parse_field(source, nu)
    d = differentiate(f, 0)
    assert [str(f), str(d), str(differentiate(d, nu - 1))] == [
        printed, first, second]


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.integers(min_value=-9, max_value=9), min_size=1,
                    max_size=5),
    xs=st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False),
                min_size=1, max_size=6),
)
def test_polynomial_matches_polyval(coeffs, xs):
    expr = " + ".join(f"({c})*x^{i}" for i, c in enumerate(coeffs))
    f = parse_field(expr, 1)
    pts = np.array(xs, dtype=float)
    expected = sum(c * pts ** i for i, c in enumerate(coeffs))
    assert f.evaluate([pts]) == pytest.approx(list(expected))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_roundtrip_through_str(a, b):
    f = parse_field("x*y + sin(x) - 0.25*y^2", 2)
    g = parse_field(str(f), 2)
    cols = [np.array([a]), np.array([b])]
    assert f.evaluate(cols)[0] == pytest.approx(g.evaluate(cols)[0], rel=1e-12)
