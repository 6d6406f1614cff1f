"""Arithmetic expression parser and evaluator for coefficient/payoff formulas.

Expressions are written in the variables t, x1, x2, ... and support
+, -, *, /, ^ (right associative), unary minus and the functions
exp, log, sin, cos, sqrt, abs, min, max, tanh.  Evaluation is vectorized:
variables may be bound to floats or numpy arrays of a common shape.

Each formula is compiled once, when it is parsed, into a tree of closures,
one per node: a call runs numpy's operations on the bound variables with no
per-node dispatch, in the order and on the operands of a walk over the
parsed tree, so its values are the walk's bit for bit.

Domain violations (division by zero, log of a non-positive argument,
sqrt of a negative argument, a power with a NaN result such as (-1)^0.5)
raise EvalError instead of producing NaN.  Overflow is not a domain
violation: every operation saturates to +-inf without a warning.

A large array base of ^ that is mostly exact zeros, with a single-number
exponent other than 0, 1 and 2, runs numpy's power kernel only on its
nonzero elements; its zeros take the kernel's results for +0.0 and -0.0 by
sign, so the result is the plain np.power bit for bit.
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expression",
    "ParseError",
    "EvalError",
    "parse_expression",
    "eval_with_derivatives",
]

_FUNCTIONS = {
    "exp": (1, np.exp),
    "log": (1, None),  # domain checked
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "sqrt": (1, None),  # domain checked
    "abs": (1, np.abs),
    "tanh": (1, np.tanh),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}

_VAR_RE = re.compile(r"^(t|x[1-9][0-9]*)$")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|\+|-|\*|/|\(|\)|,))"
)


class ParseError(ValueError):
    """Syntax/identifier/arity error; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ArithmeticError):
    """Domain violation during evaluation (never a silent NaN)."""


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    offset: int


def _tokenize(src: str) -> list[_Tok]:
    toks, pos = [], 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            # skip leading whitespace before reporting
            stripped = src[pos:].lstrip()
            off = len(src) - len(stripped)
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", off)
        for kind in ("num", "ident", "op"):
            text = m.group(kind)
            if text is not None:
                toks.append(_Tok(kind, text, m.start(kind)))
                break
        pos = m.end()
    toks.append(_Tok("end", "", len(src)))
    return toks


# AST nodes: ("num", v) | ("var", name) | ("neg", a) | ("bin", op, a, b)
#          | ("call", name, (args...))


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.offset)

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = ("bin", op, node, self.term())
        return node

    # term := unary (('*'|'/') unary)*
    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = ("bin", op, node, self.unary())
        return node

    # unary := '-' unary | power
    def unary(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            return ("neg", self.unary())
        return self.power()

    # power := atom ('^' unary)?   (right associative, binds above unary minus)
    def power(self):
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            node = ("bin", "^", node, self.unary())
        return node

    def atom(self):
        tok = self.next()
        if tok.kind == "num":
            return ("num", float(tok.text))
        if tok.kind == "ident":
            if tok.text in _FUNCTIONS:
                arity = _FUNCTIONS[tok.text][0]
                self.expect_op("(")
                args = [self.expr()]
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.next()
                    args.append(self.expr())
                self.expect_op(")")
                if len(args) != arity:
                    raise ParseError(
                        f"{tok.text} expects {arity} argument(s), got {len(args)}", tok.offset
                    )
                return ("call", tok.text, tuple(args))
            if _VAR_RE.match(tok.text):
                return ("var", tok.text)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.offset)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.offset)

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.offset)
        return node


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _compile(node):
    """A closure env -> value of node, with env mapping each variable name to
    its value.  The walk over the tree happens here, once per expression:
    each node becomes a closure over its children's closures, with its kind
    and, for a literal divisor, the zero test decided at compile time.  The
    closures run the operations of the tree walk they replace in the same
    order, on the same operands, so each value is the walk's bit for bit."""
    kind = node[0]
    if kind == "num":
        value = node[1]
        return lambda env: value
    if kind == "var":
        name = node[1]
        return lambda env: env[name]
    if kind == "neg":
        inner = _compile(node[1])
        return lambda env: -inner(env)
    if kind == "bin":
        _, op, a, b = node
        left = _compile(a)
        if op == "/" and b[0] == "num":
            # a literal divisor is one Python float: tested once, here
            divisor = b[1]
            if divisor == 0:
                def divide_by_zero(env):
                    left(env)
                    raise EvalError("division by zero")
                return divide_by_zero
            return lambda env: left(env) / divisor
        right = _compile(b)
        if op == "/":
            def divide(env):
                va, vb = left(env), right(env)
                if np.any(vb == 0):
                    raise EvalError("division by zero")
                return va / vb
            return divide
        if op == "^":
            def power(env):
                va, vb = left(env), right(env)
                # NaN-producing powers are domain errors
                with np.errstate(invalid="raise", divide="ignore"):
                    try:
                        return _power(va, vb)
                    except FloatingPointError as exc:
                        raise EvalError(f"invalid power: {exc}") from exc
            return power
        fn = _ARITHMETIC[op]
        return lambda env: fn(left(env), right(env))
    # call
    _, name, args = node
    if name in ("log", "sqrt"):
        (arg,) = (_compile(a) for a in args)
        if name == "log":
            def log(env):
                v = arg(env)
                if np.any(np.asarray(v) <= 0):
                    raise EvalError("log of non-positive argument")
                return np.log(v)
            return log
        def sqrt(env):
            v = arg(env)
            if np.any(np.asarray(v) < 0):
                raise EvalError("sqrt of negative argument")
            return np.sqrt(v)
        return sqrt
    fn = _FUNCTIONS[name][1]
    if len(args) == 1:
        arg = _compile(args[0])
        return lambda env: fn(arg(env))
    first, second = (_compile(a) for a in args)
    return lambda env: fn(first(env), second(env))


# The zero path of ^ pays off only when numpy's power kernel would spend
# long on zero bases: on an array of at least _ZERO_PATH_MIN_SIZE bases, at
# least half of which are zero.  On smaller arrays the zero scan costs about
# as much as the kernel, and with fewer zeros the take/put bookkeeping costs
# more than the zeros would.
_ZERO_PATH_MIN_SIZE = 1024
# Exponents whose power is exact arithmetic (1, x and x * x): numpy computes
# them by fast loops that are as quick on zero bases, so the zero path would
# only add its scan.
_EXACT_EXPONENTS = (0.0, 1.0, 2.0)


def _power(va, vb):
    """np.power(va, vb, dtype=float), with the kernel run only on the nonzero
    bases when a large array base is mostly exact zeros and the exponent is
    one number other than 0, 1 and 2.

    numpy's SIMD power kernel is several times slower on a zero base than on
    a positive one, and max(0, .)^k data are zero on most of the line.  The
    zero bases take the kernel's own results for +0.0 and -0.0, placed by
    sign, so every element is the bit of the plain call.  NaN, inf and
    negative bases are nonzero and go through the kernel.  A scalar base keeps
    the plain call, since numpy's scalar path uses another pow.
    """
    if (
        isinstance(va, np.ndarray)
        and va.size >= _ZERO_PATH_MIN_SIZE
        and isinstance(vb, float)
        and vb not in _EXACT_EXPONENTS
    ):
        nonzero = va != 0  # flatnonzero scans a bool mask far faster than floats
        n_nonzero = np.count_nonzero(nonzero)
        if 2 * n_nonzero <= va.size:
            at_zero = np.power(np.array([0.0, -0.0]), vb, dtype=float)
            out = np.full(va.shape, at_zero[0])
            np.copyto(out, at_zero[1], where=np.signbit(va))
            if n_nonzero:
                nonzero = np.flatnonzero(nonzero)
                out.put(nonzero, np.power(va.take(nonzero), vb, dtype=float))
            return out
    return np.power(va, vb, dtype=float)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _to_str(node, parent_prec=0):
    kind = node[0]
    if kind == "num":
        return repr(node[1])
    if kind == "var":
        return node[1]
    if kind == "neg":
        inner = _to_str(node[1], _PREC["neg"])
        s = f"-{inner}"
        return f"({s})" if parent_prec > _PREC["neg"] else s
    if kind == "bin":
        _, op, a, b = node
        p = _PREC[op]
        # right-assoc ^, left-assoc others: force parens conservatively
        left = _to_str(a, p if op != "^" else p + 1)
        right = _to_str(b, p + 1 if op != "^" else p)
        s = f"{left} {op} {right}"
        return f"({s})" if parent_prec > p else s
    _, name, args = node
    return f"{name}({', '.join(_to_str(a) for a in args)})"


class Expression:
    """Immutable parsed formula over t, x1..xd.  Evaluation is deterministic.

    The formula is compiled once, when it is built, into one closure per
    node (_compile); a call binds the variables and runs the root's
    closure."""

    __slots__ = ("_root", "_src", "_free", "_eval", "_axes", "_saturate")

    def __init__(self, root, src: str):
        free = frozenset(_collect_vars(root))
        node = root
        while node[0] == "neg":  # negation cannot overflow
            node = node[1]
        object.__setattr__(self, "_root", root)
        object.__setattr__(self, "_src", src)
        object.__setattr__(self, "_free", free)
        object.__setattr__(self, "_eval", _compile(root))
        # (name, axis) of each spatial variable the formula reads
        object.__setattr__(self, "_axes", tuple((v, int(v[1:]) - 1) for v in sorted(free) if v != "t"))
        # a number or a variable has no operation that can overflow
        object.__setattr__(self, "_saturate", node[0] not in ("num", "var"))

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("Expression is immutable")

    @property
    def depends_on_t(self) -> bool:
        return "t" in self._free

    def max_space_index(self) -> int:
        return max((axis + 1 for _, axis in self._axes), default=0)

    def __call__(self, t, x):
        """Evaluate at time t and spatial point(s) x.

        x is indexable by axis: x[i] is coordinate i+1, a scalar for one point
        of shape (d,) or an array for a batch of shape (d, n...); t is a scalar
        or broadcasts against the batch.  Returns a float array of the batch
        shape, also when the formula does not use every variable.
        """
        env = {"t": t}
        for name, axis in self._axes:
            env[name] = x[axis]
        if self._saturate:
            # overflow saturates to inf in every operation (diverging states
            # are the caller's concern)
            with np.errstate(over="ignore"):
                val = self._eval(env)
        else:
            val = self._eval(env)
        shape = np.shape(x)[1:]
        if getattr(t, "ndim", 0):
            shape = np.broadcast_shapes(t.shape, shape)
        if getattr(val, "shape", None) == shape:
            return np.asarray(val, dtype=float)
        return np.full(shape, val, dtype=float)

    def __str__(self) -> str:
        return _to_str(self._root)

    def __repr__(self) -> str:
        return f"Expression({str(self)!r})"

    def __eq__(self, other):
        return isinstance(other, Expression) and self._root == other._root

    def __hash__(self):
        return hash(("Expression", self._root))


def _collect_vars(node, out=None):
    if out is None:
        out = set()
    kind = node[0]
    if kind == "var":
        out.add(node[1])
    elif kind == "neg":
        _collect_vars(node[1], out)
    elif kind == "bin":
        _collect_vars(node[2], out)
        _collect_vars(node[3], out)
    elif kind == "call":
        for a in node[2]:
            _collect_vars(a, out)
    return out


def parse_expression(src: str) -> Expression:
    """Parse a formula with standard precedence (^ > unary minus > */ > +-)."""
    return Expression(_Parser(src).parse(), src)


def eval_with_derivatives(e: Expression, point, order: int = 0, fd_step: float = 1e-5):
    """Value, spatial gradient and Hessian of e at point=(t, x) by central differences.

    x is one point of shape (d,) or a batch of shape (d, n), and t a scalar or
    an array that broadcasts against the batch.  The step for coordinate i is
    fd_step * max(1, |x_i|).  Each difference quotient is evaluated on the
    whole batch at once, so column k of a batched result equals the result
    at point k alone.  Returns (value, grad, hess) of shapes (n,), (d, n) and
    (d, d, n), or (), (d,) and (d, d) for one point; grad/hess are None when
    not requested by order.  The Hessian is symmetric by construction.
    """
    t, x = point
    x = np.asarray(x, dtype=float)
    val = e(t, x)
    if order == 0:
        return val, None, None
    d = x.shape[0]
    steps = fd_step * np.maximum(1.0, np.abs(x))

    def shifted(*moves):
        """e at x with coordinate i moved by sign * steps[i] for each (i, sign)."""
        y = x.copy()
        for i, sign in moves:
            y[i] = x[i] + steps[i] if sign > 0 else x[i] - steps[i]
        return e(t, y)

    plus = [shifted((i, 1)) for i in range(d)]
    minus = [shifted((i, -1)) for i in range(d)]
    grad = np.stack([(plus[i] - minus[i]) / (2 * steps[i]) for i in range(d)])
    if order == 1:
        return val, grad, None
    hess = np.empty((d,) + grad.shape)
    for i in range(d):
        hess[i, i] = (plus[i] - 2 * val + minus[i]) / steps[i] ** 2
        for j in range(i + 1, d):
            hess[i, j] = hess[j, i] = (
                shifted((i, 1), (j, 1))
                - shifted((i, 1), (j, -1))
                - shifted((i, -1), (j, 1))
                + shifted((i, -1), (j, -1))
            ) / (4 * steps[i] * steps[j])
    return val, grad, hess


def time_derivative(e: Expression, point, fd_step: float = 1e-5):
    """Central finite-difference time derivative of e at point=(t, x), with the
    step fd_step * max(1, |t|); batched like eval_with_derivatives."""
    t, x = point
    h = fd_step * np.maximum(1.0, np.abs(t))
    return (e(t + h, x) - e(t - h, x)) / (2 * h)
