import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlstop.benches import load_bench
from ctrlstop.expressions import (
    EvalError,
    ParseError,
    eval_with_derivatives,
    parse_expression,
    time_derivative,
)


def ev(src, t=0.0, **vals):
    e = parse_expression(src)
    d = max([int(k[1:]) for k in vals if k.startswith("x")] + [e.max_space_index(), 1])
    x = np.zeros(d)
    for k, v in vals.items():
        x[int(k[1:]) - 1] = v
    return float(e(t, x))


def test_basic_arithmetic():
    assert ev("x1^2 + 1", x1=2.0) == 5.0
    assert ev("exp(0)") == 1.0
    assert ev("min(t, x1)", t=0.3, x1=0.7) == 0.3


def test_precedence_and_associativity():
    assert ev("2 + 3 * 4") == 14.0
    assert ev("2 * 3 ^ 2") == 18.0  # ^ binds tighter than *
    assert ev("-3 ^ 2") == -9.0  # ^ binds tighter than unary minus
    assert ev("2 ^ -2") == 0.25
    assert ev("2 ^ 3 ^ 2") == 512.0  # right associative
    assert ev("8 / 4 / 2") == 1.0  # left associative
    assert ev("1 - 2 - 3") == -4.0


def test_syntax_error_carries_offset():
    cases = [
        ("x1 + * 2", "unexpected '*'", 5),
        ("x1 $ 2", "unexpected character '$'", 3),
        ("exp(x1", "expected ')'", 6),
        ("x1 2", "trailing input", 3),
    ]
    for text, message, offset in cases:
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse_expression(text)
        assert err.value.offset == offset


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expression("x1 + y")


def test_arity_mismatch():
    with pytest.raises(ParseError, match="expects 2"):
        parse_expression("min(x1)")
    with pytest.raises(ParseError, match="expects 1"):
        parse_expression("exp(x1, t)")


def test_domain_errors_never_silent_nan():
    with pytest.raises(EvalError):
        ev("1 / x1", x1=0.0)
    with pytest.raises(EvalError):
        ev("log(x1)", x1=-1.0)
    with pytest.raises(EvalError):
        ev("sqrt(x1)", x1=-0.5)


def test_vectorized_evaluation():
    e = parse_expression("x1^2 + x2")
    xs = np.array([[1.0, 2.0, 3.0], [0.5, 0.5, 0.5]])
    np.testing.assert_allclose(e(0.0, xs), [1.5, 4.5, 9.5])


def test_immutability():
    e = parse_expression("x1")
    with pytest.raises(AttributeError):
        e.new_attr = 1


def test_free_variables():
    e = parse_expression("x2 * exp(t)")
    assert e.depends_on_t
    assert e.max_space_index() == 2
    assert not parse_expression("x1 + 1").depends_on_t


def test_derivative_examples():
    val, grad, _ = eval_with_derivatives(parse_expression("x1^2"), (0.0, [3.0]), order=1)
    assert val == 9.0
    assert abs(grad[0] - 6.0) < 1e-6

    val, grad, hess = eval_with_derivatives(parse_expression("1"), (0.5, [0.3]), order=2)
    assert val == 1.0
    assert abs(grad[0]) == 0.0
    assert abs(hess[0, 0]) < 1e-9

    _, _, hess = eval_with_derivatives(parse_expression("exp(-x1^2)"), (0.0, [0.0]), order=2)
    assert abs(hess[0, 0] + 2.0) < 1e-4


def test_hessian_symmetry_mixed():
    e = parse_expression("x1^2 * x2 + sin(x1 * x2)")
    _, _, hess = eval_with_derivatives(e, (0.0, [0.7, -0.4]), order=2)
    assert hess.shape == (2, 2)
    assert hess[0, 1] == hess[1, 0]
    # analytic mixed partial: 2 x1 + cos(x1 x2) - x1 x2 sin(x1 x2)
    x1, x2 = 0.7, -0.4
    exact = 2 * x1 + np.cos(x1 * x2) - x1 * x2 * np.sin(x1 * x2)
    assert abs(hess[0, 1] - exact) < 1e-5


def test_time_derivative():
    e = parse_expression("exp(-2*t) * x1")
    d = time_derivative(e, (0.3, [1.5]))
    assert abs(d + 2 * np.exp(-0.6) * 1.5) < 1e-7


def test_batched_probes_are_the_single_point_probes():
    # 2-D, t-dependent, with a mixed term: column k of every batched result
    # equals the single-point call at point k, bit for bit
    e = parse_expression("exp(-t) * x1^2 * x2 + sin(x1 * x2) + t * x2^3")
    rng = np.random.default_rng(3)
    x = rng.uniform(-2.0, 2.0, (2, 9))
    x[:, 0] = 0.0  # steps of fd_step * 1 below |x| = 1
    t = rng.uniform(0.0, 1.0, 9)
    val, grad, hess = eval_with_derivatives(e, (t, x), order=2)
    dt = time_derivative(e, (t, x))
    assert val.shape == (9,) and grad.shape == (2, 9) and hess.shape == (2, 2, 9)
    assert dt.shape == (9,)
    for k in range(9):
        v1, g1, h1 = eval_with_derivatives(e, (t[k], x[:, k]), order=2)
        assert g1.shape == (2,) and h1.shape == (2, 2)
        assert val[k] == v1
        assert np.array_equal(grad[:, k], g1)
        assert np.array_equal(hess[:, :, k], h1)
        assert dt[k] == time_derivative(e, (t[k], x[:, k]))


def test_constant_expression_returns_the_batch_shape():
    x = np.zeros((2, 7))
    for src in ("1", "2 * t"):
        out = parse_expression(src)(0.5, x)
        assert out.shape == (7,) and out.dtype == float
        assert np.all(out == out[0])
    assert parse_expression("x1 + 1")(np.zeros(7), [2.0]).shape == (7,)
    assert parse_expression("1")(0.0, [0.3, 0.1]).shape == ()


_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=4.0).map(lambda v: ("num", round(v, 3))),
    st.sampled_from([("var", "t"), ("var", "x1"), ("var", "x2")]),
)


def _trees(depth):
    if depth == 0:
        return _leaf
    sub = _trees(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub).map(
            lambda t: ("bin", t[0], t[1], t[2])
        ),
        sub.map(lambda a: ("neg", a)),
        st.tuples(st.sampled_from(["sin", "cos", "tanh", "exp"]), sub).map(
            lambda t: ("call", t[0], (t[1],))
        ),
        st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(
            lambda t: ("call", t[0], (t[1], t[2]))
        ),
    )


def _render(node):
    kind = node[0]
    if kind == "num":
        return repr(node[1])
    if kind == "var":
        return node[1]
    if kind == "neg":
        return f"-({_render(node[1])})"
    if kind == "bin":
        return f"({_render(node[2])}) {node[1]} ({_render(node[3])})"
    return f"{node[1]}({', '.join(_render(a) for a in node[2])})"


@settings(max_examples=200, deadline=None)
@given(_trees(3), st.integers(0, 2**31 - 1))
def test_roundtrip_evaluates_identically(tree, seed):
    src = _render(tree)
    e = parse_expression(src)
    e2 = parse_expression(str(e))
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0, 1, 5)
    xs = rng.uniform(-2, 2, (2, 5))
    for i in range(5):
        a = float(e(ts[i], xs[:, i]))
        b = float(e2(ts[i], xs[:, i]))
        assert a == b or (np.isnan(a) and np.isnan(b))


def test_roundtrip_thousand_points():
    e = parse_expression("exp(-x1^2) * sin(t) + max(x1, 0.5) / (1 + x1^2) - tanh(t * x1)")
    e2 = parse_expression(str(e))
    rng = np.random.default_rng(12345)
    xs = rng.uniform(-5, 5, (1, 1000))
    ts = rng.uniform(0, 2, 1000)
    for i in range(1000):
        assert float(e(ts[i], xs[:, i])) == float(e2(ts[i], xs[:, i]))


def test_equal_expressions_hash_alike():
    a, b = parse_expression("x1+1"), parse_expression("x1 + 1")
    assert a == b and len({a, b}) == 1


def test_overflow_saturates_to_inf_without_a_warning():
    # one overflow rule for every operation; pyproject turns RuntimeWarning
    # into an error, so a warning fails here
    assert ev("exp(exp(exp(2.0)))") == np.inf
    assert ev("exp(exp(exp(x1)))", x1=2.0) == np.inf
    assert ev("1e200 * 1e200") == np.inf
    assert ev("x1 * x1", x1=1e200) == np.inf
    assert ev("x1 * x1 * x1 - 1", x1=-1e200) == -np.inf
    assert ev("2 ^ x1", x1=2000.0) == np.inf
    x = np.array([[1e200, 1.0, -1e300]])
    got = parse_expression("x1 * 1e200 + exp(710 * x1 / 1e200)")(0.0, x)
    assert got[0] == np.inf and got[2] == -np.inf and np.isfinite(got[1])


def test_invalid_power_still_raises():
    with pytest.raises(EvalError):
        ev("(-1)^0.5")
    with pytest.raises(EvalError):
        ev("x1^0.5", x1=-1.0)
    with pytest.raises(EvalError):
        parse_expression("max(0, x1)^3 * x1^0.5")(0.0, np.array([[0.0, 2.0, -1.0]]))


def test_literal_zero_divisor_raises():
    with pytest.raises(EvalError, match="division by zero"):
        ev("x1 / 0", x1=1.0)
    with pytest.raises(EvalError, match="division by zero"):
        parse_expression("x1 / (0.0)")(0.0, np.ones((1, 4)))
    assert ev("x1 / 4", x1=2.0) == 0.5


_BASES = (0.0, -0.0, 0.75, 2.5, -0.75, -3.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324)
_EXPONENTS = (3.0, 2.0, 0.5, 1.0, 2.5, 4000.0, -1.0)


def _reference_power(base, exponent):
    """np.power on the whole array, as the evaluator's ^ with its error state;
    None where that call finds an invalid power."""
    with np.errstate(invalid="raise", divide="ignore", over="ignore"):
        try:
            return np.power(base, exponent, dtype=float)
        except FloatingPointError:
            return None


def _assert_power_rule(base, exponent):
    want = _reference_power(base, exponent)
    e = parse_expression(f"x1 ^ {exponent!r}")
    x = base[None]
    if want is None:
        with pytest.raises(EvalError):
            e(0.0, x)
        return
    got = e(0.0, x)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _among_zeros(values, rng, size=2048):
    """values at random places of an array of size +-0.0 bases, so that the
    ^ of the evaluator takes its zero path (a large, mostly zero base)."""
    base = np.where(rng.random(size) < 0.3, -0.0, 0.0)
    values = np.asarray(values, dtype=float)
    base[rng.choice(size, values.size, replace=False)] = values
    return base


@pytest.mark.parametrize("exponent", _EXPONENTS)
def test_power_of_every_base_kind_is_numpys(exponent):
    # each kind alone, each kind among zeros, and all of them at once
    rng = np.random.default_rng(7)
    for b in _BASES:
        _assert_power_rule(np.array([b]), exponent)
        _assert_power_rule(np.array([0.0, b, -0.0, b, 1.5]), exponent)
        _assert_power_rule(_among_zeros([b, 1.5], rng), exponent)
        _assert_power_rule(_among_zeros(np.full(1000, b), rng), exponent)
    mixed = rng.choice(np.array(_BASES), 2000)
    for base in (mixed, _among_zeros(mixed[:900], rng, 4000)):
        _assert_power_rule(base, exponent)
        _assert_power_rule(base[::-3], exponent)  # strided
        _assert_power_rule(base.reshape(40, -1).T, exponent)  # 2-D, not contiguous
        _assert_power_rule(np.abs(base).reshape(40, -1), exponent)
    _assert_power_rule(np.zeros(2048), exponent)
    _assert_power_rule(-np.zeros(2048), exponent)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(_BASES),
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        ),
        min_size=1,
        max_size=64,
    ),
    st.sampled_from(_EXPONENTS),
    st.integers(0, 2**31 - 1),
)
def test_power_rule_is_numpys_power(bases, exponent, seed):
    _assert_power_rule(np.array(bases, dtype=float), exponent)
    _assert_power_rule(_among_zeros(bases, np.random.default_rng(seed)), exponent)


def test_power_with_many_zero_bases_is_numpys():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 64, 1000, 1023, 1024, 1025, 20000):
        for zero_share in (0.3, 0.5, 0.6, 0.99):
            base = rng.uniform(0.0, 1.0, n)
            base[rng.random(n) < zero_share] = 0.0
            base[rng.random(n) < 0.05] = -0.0
            for exponent in _EXPONENTS:
                _assert_power_rule(base, exponent)
                _assert_power_rule(rng.permutation(base), exponent)


# sha256 of g, h and f of every bundled bench at t = 0 on _bench_batch, as a
# 1-D batch followed by a transposed 2-D one; recorded before ^ skipped the
# power kernel on zero bases
BENCH_DATA_GOLDEN = {
    "const1": {
        "g": "09adb0e26af9503a59cbac4148ebb38901dceefa9e85097c7e01e8d426062f5f",
        "h": "06a45094803e138ec51042c969b5ca8a5c10afc1e951f9a7512b430833d2b9f4",
        "f": "09adb0e26af9503a59cbac4148ebb38901dceefa9e85097c7e01e8d426062f5f",
    },
    "bench_ou": {
        "g": "fbe95d0372edf9976257e734f57d2ba52f4fe0b2d7033e397ce69d77b0ff8d99",
        "h": "b59b4fc41debd0da745e05ffae208e3e0f6561a1f014be28913f16e1bb6a603c",
        "f": "b7e100335e6d31fbcc313bd06b41b756af497e1fc745bb9bad475052078a68a8",
    },
    "bench_ou_purestop": {
        "g": "fbe95d0372edf9976257e734f57d2ba52f4fe0b2d7033e397ce69d77b0ff8d99",
        "h": "b59b4fc41debd0da745e05ffae208e3e0f6561a1f014be28913f16e1bb6a603c",
        "f": "9f7dc0c691b9defa71b8092163a4b26635885bde9df5465cade8100da07b223e",
    },
    "allzero": {
        "g": "06a45094803e138ec51042c969b5ca8a5c10afc1e951f9a7512b430833d2b9f4",
        "h": "06a45094803e138ec51042c969b5ca8a5c10afc1e951f9a7512b430833d2b9f4",
        "f": "09adb0e26af9503a59cbac4148ebb38901dceefa9e85097c7e01e8d426062f5f",
    },
}


def _bench_batch():
    special = [0.0, -0.0, 0.9, -0.9, 2.1, -2.1, 4.5, -4.5, np.nan, np.inf, -np.inf]
    edges = np.array([0.9, 2.1, 4.5])
    near = np.concatenate([np.nextafter(edges, 0.0), np.nextafter(edges, 9.0)])
    rng = np.random.default_rng(2024)
    x1 = np.concatenate(
        [special, near, -near, np.linspace(-6.0, 6.0, 1201), rng.uniform(-7.0, 7.0, 1000)]
    )
    return x1[None, :]


def _bench_data_digests(name):
    spec = load_bench(name, coarse=True).spec
    x = _bench_batch()
    x2 = x[:, : 40 * 55].reshape(1, 40, 55).transpose(0, 2, 1)
    out = {}
    for key in ("g", "h", "f"):
        digest = hashlib.sha256()
        for batch in (x, x2):
            val = np.ascontiguousarray(getattr(spec, key)(0.0, batch))
            assert val.shape == batch.shape[1:] and val.dtype == float
            digest.update(val.tobytes())
        out[key] = digest.hexdigest()
    return out


@pytest.mark.parametrize("name", ["const1", "bench_ou", "bench_ou_purestop", "allzero"])
def test_bench_data_are_golden(name):
    assert _bench_data_digests(name) == BENCH_DATA_GOLDEN[name]


def _walk(node, env):
    """The reference evaluator: a walk over the parsed tree that dispatches on
    each node's kind at every call, with numpy's plain power for ^."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return -_walk(node[1], env)
    if kind == "bin":
        _, op, a, b = node
        va, vb = _walk(a, env), _walk(b, env)
        if op == "+":
            return va + vb
        if op == "-":
            return va - vb
        if op == "*":
            return va * vb
        if op == "/":
            zero = vb == 0 if b[0] == "num" else np.any(vb == 0)
            if zero:
                raise EvalError("division by zero")
            return va / vb
        with np.errstate(invalid="raise", divide="ignore"):
            try:
                return np.power(va, vb, dtype=float)
            except FloatingPointError as exc:
                raise EvalError(f"invalid power: {exc}") from exc
    _, name, args = node
    vals = [_walk(a, env) for a in args]
    if name == "log":
        if np.any(np.asarray(vals[0]) <= 0):
            raise EvalError("log of non-positive argument")
        return np.log(vals[0])
    if name == "sqrt":
        if np.any(np.asarray(vals[0]) < 0):
            raise EvalError("sqrt of negative argument")
        return np.sqrt(vals[0])
    fn = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "abs": np.abs, "tanh": np.tanh,
          "min": np.minimum, "max": np.maximum}[name]
    return fn(*vals)


def _walked_call(e, t, x):
    """What e(t, x) returned when it walked its tree: the root's value with
    overflow saturating, as a float array of the batch shape."""
    env = {"t": t, **{f"x{i + 1}": x[i] for i in range(len(x))}}
    with np.errstate(over="ignore"):
        val = _walk(e._root, env)
    shape = np.shape(x)[1:]
    if getattr(t, "ndim", 0):
        shape = np.broadcast_shapes(t.shape, shape)
    if getattr(val, "shape", None) == shape:
        return np.asarray(val, dtype=float)
    return np.full(shape, val, dtype=float)


def _outcome(fn):
    """('value', dtype, shape, bytes) of fn's result, or ('error', type, message)."""
    try:
        val = fn()
    except EvalError as exc:
        return ("error", type(exc), str(exc))
    return ("value", val.dtype, val.shape, val.tobytes())


_LITERALS = (0.0, 0.5, 1.0, 2.0, 3.0, 2.5, 0.7, 4.5, 710.0, 1e200, 4000.0)
_CALLS = ("exp", "log", "sin", "cos", "sqrt", "abs", "tanh", "min", "max")


def _random_tree(rng, depth):
    """A random parse tree of every node kind: numbers, the variables t, x1
    and x2, negation, the five binary operators and every function."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.4:
            return ("num", float(rng.choice(_LITERALS)))
        return ("var", str(rng.choice(["t", "x1", "x2"])))
    kind = rng.integers(4)
    if kind == 0:
        return ("neg", _random_tree(rng, depth - 1))
    if kind == 1:
        op = str(rng.choice(list("+-*/^")))
        right = _random_tree(rng, depth - 1)
        if op in "/^" and rng.random() < 0.5:  # a literal divisor or exponent, as in x1/4.5 and (.)^3
            right = ("num", float(rng.choice(_LITERALS)))
        return ("bin", op, _random_tree(rng, depth - 1), right)
    name = str(rng.choice(_CALLS))
    arity = 2 if name in ("min", "max") else 1
    return ("call", name, tuple(_random_tree(rng, depth - 1) for _ in range(arity)))


def _kinds(node, out):
    """Add the kind of every node of the tree (operators and functions by name)."""
    kind = node[0]
    if kind in ("num", "var"):
        out.add(kind)
        return out
    if kind == "neg":
        out.add(kind)
        children = node[1:]
    else:
        out.add(node[1])
        children = node[2:] if kind == "bin" else node[2]
    for child in children:
        _kinds(child, out)
    return out


# +-0, inf, NaN, overflow-prone, subnormal and plain values
_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e300, 5e-324, 1.5, -2.0, 0.3, 700.0])


def test_compiled_evaluator_is_the_tree_walk_bit_for_bit():
    rng = np.random.default_rng(2026)
    n = 64
    inputs = [
        (0.25, rng.uniform(0.1, 2.0, (2, n))),  # positive: few domain errors
        (rng.uniform(0.0, 1.0, n), rng.uniform(-3.0, 3.0, (2, n))),  # array t
        (float(rng.choice(_SPECIAL)), rng.choice(_SPECIAL, (2, n))),  # specials everywhere
        (rng.choice(_SPECIAL, n), rng.choice(_SPECIAL, (2, n))),
        (0.5, np.array([1.5, 0.0])),  # one point: scalar coordinates
        (-0.0, np.array([-0.0, 1e200])),
        (np.nan, np.array([np.inf, 0.3])),
    ]
    seen, values, errors = set(), 0, 0
    for _ in range(400):
        tree = _random_tree(rng, 4)
        e = parse_expression(_render(tree))
        _kinds(e._root, seen)
        for t, x in inputs:
            with np.errstate(invalid="ignore"):  # inf - inf and the like: NaN, silently
                got = _outcome(lambda: e(t, x))
                want = _outcome(lambda: _walked_call(e, t, x))
            assert got == want, (str(e), t, x)
            values += got[0] == "value"
            errors += got[0] == "error"
    assert seen == {"num", "var", "neg", "+", "-", "*", "/", "^", *_CALLS}
    assert values > 1000 and errors > 200


@pytest.mark.parametrize(
    "src, x, message",
    [
        ("x1 / 0", [[1.0, 2.0]], "division by zero"),
        ("x1 / (0.0)", [[1.0, 2.0]], "division by zero"),
        ("(x1 + 1) / -0.0", [[1.0, 2.0]], "division by zero"),
        ("x1 / x2", [[1.0, 2.0], [3.0, 0.0]], "division by zero"),
        ("x1 / (x2 - 3)", [[1.0], [3.0]], "division by zero"),
        ("log(x1)", [[1.0, 0.0]], "log of non-positive argument"),
        ("log(x1 - 2)", [[1.0, 3.0]], "log of non-positive argument"),
        ("sqrt(x1)", [[1.0, -0.5]], "sqrt of negative argument"),
        ("sqrt(-x1)", [[1.0]], "sqrt of negative argument"),
        ("x1 ^ 0.5", [[4.0, -1.0]], "invalid power: invalid value encountered in power"),
        ("(-1) ^ 0.5", [[1.0]], "invalid power: invalid value encountered in power"),
        ("max(0, x1)^3 * x1^0.5", [[0.0, 2.0, -1.0]], "invalid power: invalid value encountered in power"),
        ("x1 ^ x2", [[-2.0, 1.0], [0.5, 2.0]], "invalid power: invalid value encountered in power"),
    ],
)
def test_compiled_evaluator_raises_the_tree_walks_errors(src, x, message):
    e = parse_expression(src)
    x = np.array(x)
    want = _outcome(lambda: _walked_call(e, 0.0, x))
    assert want == ("error", EvalError, message)
    assert _outcome(lambda: e(0.0, x)) == want
