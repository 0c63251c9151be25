"""Property-based tests (hypothesis) for the staging layer.

The core invariant of the whole reproduction: *staged evaluation followed
by execution of the residual program equals direct evaluation*.  We check
it over randomly generated arithmetic/boolean expression trees.
"""

from __future__ import annotations

import math
import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro.staging import PyProgram, StagingContext, generate_python
from repro.staging import ir
from repro.staging.pygen import render_expr
from repro.staging.rep import RepBool, RepFloat, RepInt


# -- random expression trees ---------------------------------------------------

_INT_OPS = [
    ("+", lambda a, b: a + b),
    ("-", lambda a, b: a - b),
    ("*", lambda a, b: a * b),
]


@st.composite
def int_tree(draw, depth=3):
    """An expression builder: (direct_fn, staged_fn) over two int inputs."""
    if depth == 0 or draw(st.booleans()):
        choice = draw(st.integers(min_value=0, max_value=2))
        if choice == 0:
            return (lambda a, b: a, lambda sa, sb: sa)
        if choice == 1:
            return (lambda a, b: b, lambda sa, sb: sb)
        const = draw(st.integers(min_value=-50, max_value=50))
        return (lambda a, b: const, lambda sa, sb: const)
    op_name, op = draw(st.sampled_from(_INT_OPS))
    left = draw(int_tree(depth=depth - 1))
    right = draw(int_tree(depth=depth - 1))

    def direct(a, b):
        return op(left[0](a, b), right[0](a, b))

    def staged(sa, sb):
        lv = left[1](sa, sb)
        rv = right[1](sa, sb)
        if not isinstance(lv, RepInt) and not isinstance(rv, RepInt):
            return op(lv, rv)  # both constants fold at generation time
        if not isinstance(lv, RepInt):
            # constant op Rep: use reflected operators
            return op(lv, rv)
        return op(lv, rv)

    return (direct, staged)


@given(tree=int_tree(), a=st.integers(-1000, 1000), b=st.integers(-1000, 1000))
@settings(max_examples=150, deadline=None)
def test_staged_int_arithmetic_equals_direct(tree, a, b):
    direct, staged = tree
    ctx = StagingContext()
    with ctx.function("f", ["a", "b"]):
        sa = RepInt(ir.Sym("a"), ctx)
        sb = RepInt(ir.Sym("b"), ctx)
        result = staged(sa, sb)
        if not isinstance(result, RepInt):
            result = ctx.lift(result)
        ctx.return_(result)
    fn = PyProgram(generate_python(ctx.program())).fn("f")
    assert fn(a, b) == direct(a, b)


@given(
    values=st.lists(st.integers(-100, 100), min_size=0, max_size=30),
    threshold=st.integers(-100, 100),
)
@settings(max_examples=80, deadline=None)
def test_staged_filter_sum_equals_python(values, threshold):
    """A staged filter-aggregate loop equals the obvious Python program."""
    ctx = StagingContext()
    with ctx.function("f", ["xs"]):
        xs = ctx.sym("xs", "void*")
        total = ctx.var(ctx.int_(0))
        n = ctx.call("len", [xs], result="long")
        with ctx.for_range(0, n) as i:
            v = RepInt(ctx.bind(ir.Index(xs.expr, i.expr), ctype="long"), ctx)
            with ctx.if_(v > threshold):
                total.set(total.get() + v)
        ctx.return_(total.get())
    fn = PyProgram(generate_python(ctx.program())).fn("f")
    assert fn(values) == sum(v for v in values if v > threshold)


@given(
    a=st.floats(-1e6, 1e6, allow_nan=False),
    b=st.floats(-1e6, 1e6, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_staged_float_ops(a, b):
    ctx = StagingContext()
    with ctx.function("f", ["a", "b"]):
        sa = RepFloat(ir.Sym("a"), ctx)
        sb = RepFloat(ir.Sym("b"), ctx)
        ctx.return_(sa * sb + sa - sb)
    fn = PyProgram(generate_python(ctx.program())).fn("f")
    assert fn(a, b) == pytest.approx(a * b + a - b, nan_ok=True)


@given(
    s=st.text(min_size=0, max_size=12),
    prefix=st.text(min_size=0, max_size=4),
)
@settings(max_examples=80, deadline=None)
def test_staged_string_predicates(s, prefix):
    ctx = StagingContext()
    with ctx.function("f", ["s"]):
        sv = ctx.sym("s", "char*")
        starts = sv.startswith(prefix)
        ends = sv.endswith(prefix)
        has = sv.contains(prefix)
        ctx.return_((starts | ends) | has)
    fn = PyProgram(generate_python(ctx.program())).fn("f")
    expected = s.startswith(prefix) or s.endswith(prefix) or (prefix in s)
    assert fn(s) == expected


@given(st.lists(st.booleans(), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_staged_boolean_chain(bits):
    ctx = StagingContext()
    with ctx.function("f", ["xs"]):
        xs = ctx.sym("xs", "void*")
        acc = None
        for i in range(len(bits)):
            v = RepBool(ctx.bind(ir.Index(xs.expr, ir.Const(i)), ctype="bool"), ctx)
            acc = v if acc is None else (acc & v)
        ctx.return_(acc)
    fn = PyProgram(generate_python(ctx.program())).fn("f")
    assert fn(bits) == all(bits)


@given(st.integers(0, 12))
@settings(max_examples=13, deadline=None)
def test_power_specialization_any_exponent(n):
    """The Section 2 example generalized: specialize power for any n."""
    ctx = StagingContext()
    with ctx.function("p", ["x"]):
        x = RepInt(ir.Sym("x"), ctx)
        r = ctx.int_(1)
        for _ in range(n):
            r = x * r
        ctx.return_(r)
    fn = PyProgram(generate_python(ctx.program())).fn("p")
    assert fn(3) == 3 ** n


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_fresh_names_never_collide_across_many_binds(values):
    ctx = StagingContext()
    with ctx.function("f", []):
        reps = [ctx.lift(v) + 0 for v in values]
        total = reps[0]
        for r in reps[1:]:
            total = total + r
        ctx.return_(total)
    source = generate_python(ctx.program())
    fn = PyProgram(source).fn("f")
    assert fn() == sum(values)
    # every bound name is unique
    names = [line.split(" = ")[0].strip() for line in source.splitlines() if " = " in line]
    assert len(names) == len(set(names))


# -- emitter precedence: render(tree) means the tree ---------------------------

_TREE_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "//": operator.floordiv,
    "%": operator.mod,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_leaves = st.one_of(
    st.integers(-20, 20).map(ir.Const),
    st.booleans().map(ir.Const),
    st.sampled_from([ir.Sym("a"), ir.Sym("b")]),
)


def _grow(children):
    return st.one_of(
        st.builds(
            ir.Bin, st.sampled_from(sorted(_TREE_OPS) + ["and", "or"]), children, children
        ),
        st.builds(ir.Un, st.sampled_from(["not", "-"]), children),
    )


def _evaluate(expr: ir.Expr, env: dict):
    """Direct evaluation of the tree, node by node (Python semantics)."""
    if isinstance(expr, ir.Const):
        return expr.value
    if isinstance(expr, ir.Sym):
        return env[expr.name]
    if isinstance(expr, ir.Un):
        value = _evaluate(expr.operand, env)
        return (not value) if expr.op == "not" else -value
    lhs = _evaluate(expr.lhs, env)
    if expr.op == "and":
        return lhs and _evaluate(expr.rhs, env)
    if expr.op == "or":
        return lhs or _evaluate(expr.rhs, env)
    return _TREE_OPS[expr.op](lhs, _evaluate(expr.rhs, env))


def _outcome(fn):
    try:
        return repr(fn())
    except ArithmeticError as exc:
        return type(exc).__name__


@given(
    tree=st.recursive(_leaves, _grow, max_leaves=12),
    a=st.integers(-9, 9),
    b=st.integers(-9, 9),
)
@settings(max_examples=400, deadline=None)
def test_rendered_expression_means_the_tree(tree, a, b):
    """Nested operands keep the IR's grouping once rendered: ``(x + 1) %
    16`` must not come out as ``x + 1 % 16``, nor ``(a < b) < c`` as a
    chained comparison."""
    env = {"a": a, "b": b}
    source = render_expr(tree)
    assert _outcome(lambda: eval(source, {}, dict(env))) == _outcome(
        lambda: _evaluate(tree, env)
    ), source
