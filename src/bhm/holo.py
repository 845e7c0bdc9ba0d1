"""Bicomplex-holomorphic functions of one bicomplex variable.

A function is carried as a Ringleb pair of single-variable complex expression
trees (f1, f2): psi(q) = f1(e)*(1-j)/2 + f2(f)*(1+j)/2 where (e, f) are the
idempotent components of q.  Trees make derivatives exact, which the
congruence solver's second-derivative formulas rely on.

Inside a tree, ``complex`` constants live in the i1-plane (1j means i1).
"""

from __future__ import annotations

import numpy as np

from .core import C_POWI_MAX, BArray, Bicomplex, CArray, _abs
from .errors import (BhmError, ExprSchemaError, InvalidInputError, PoleEncounteredError,
                     RangeOverflowError)

# a division node is a pole when |den| <= POLE_RTOL * max(1, |num|)
POLE_RTOL = 1e-12

# parsed trees may not reach a higher degree, nor hold a larger |exp|:
# coefficient extraction and the companion-matrix roots grow with both
MAX_DEGREE = 64

VAR = "q"


class Expr:
    """Immutable expression tree over named complex variables."""

    __slots__ = ()

    def __add__(self, other):
        return _add(self, _to_expr(other))

    def __radd__(self, other):
        return _add(_to_expr(other), self)

    def __sub__(self, other):
        return _sub(self, _to_expr(other))

    def __rsub__(self, other):
        return _sub(_to_expr(other), self)

    def __mul__(self, other):
        return _mul(self, _to_expr(other))

    def __rmul__(self, other):
        return _mul(_to_expr(other), self)

    def __truediv__(self, other):
        return _div(self, _to_expr(other))

    def __rtruediv__(self, other):
        return _div(_to_expr(other), self)

    def __neg__(self):
        return _mul(Const(-1.0), self)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return _pow(self, n)

    def __call__(self, value=None, **env):
        if value is not None:
            env = {VAR: complex(value)}
        return self.evaluate(env)

    def evaluate(self, env):
        raise NotImplementedError

    def diff(self, var=VAR):
        raise NotImplementedError

    def subs(self, mapping):
        """Substitute expressions for variables; mapping is name -> Expr."""
        raise NotImplementedError

    def variables(self):
        out = set()
        self._collect_vars(out)
        return out

    def _collect_vars(self, out):
        pass


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", complex(value))

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __repr__(self):
        return f"Const({self.value!r})"

    def evaluate(self, env):
        return self.value

    def diff(self, var=VAR):
        return Const(0.0)

    def subs(self, mapping):
        return self


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name=VAR):
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __repr__(self):
        return f"Var({self.name!r})"

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise InvalidInputError(f"no value bound for variable {self.name!r}")

    def diff(self, var=VAR):
        return Const(1.0 if self.name == var else 0.0)

    def subs(self, mapping):
        return mapping.get(self.name, self)

    def _collect_vars(self, out):
        out.add(self.name)


class _Binary(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __repr__(self):
        return f"{type(self).__name__}({self.a!r}, {self.b!r})"

    def _collect_vars(self, out):
        self.a._collect_vars(out)
        self.b._collect_vars(out)


class Add(_Binary):
    __slots__ = ()

    def evaluate(self, env):
        return self.a.evaluate(env) + self.b.evaluate(env)

    def diff(self, var=VAR):
        return _add(self.a.diff(var), self.b.diff(var))

    def subs(self, mapping):
        return _add(self.a.subs(mapping), self.b.subs(mapping))


class Sub(_Binary):
    __slots__ = ()

    def evaluate(self, env):
        return self.a.evaluate(env) - self.b.evaluate(env)

    def diff(self, var=VAR):
        return _sub(self.a.diff(var), self.b.diff(var))

    def subs(self, mapping):
        return _sub(self.a.subs(mapping), self.b.subs(mapping))


class Mul(_Binary):
    __slots__ = ()

    def evaluate(self, env):
        return self.a.evaluate(env) * self.b.evaluate(env)

    def diff(self, var=VAR):
        return _add(
            _mul(self.a.diff(var), self.b),
            _mul(self.a, self.b.diff(var)),
        )

    def subs(self, mapping):
        return _mul(self.a.subs(mapping), self.b.subs(mapping))


class Div(_Binary):
    __slots__ = ()

    def evaluate(self, env):
        num = self.a.evaluate(env)
        den = self.b.evaluate(env)
        if type(env) is Lanes:
            env.flag_quotient(num, den)
        elif _abs(den) <= POLE_RTOL * max(1.0, _abs(num)):
            raise PoleEncounteredError(f"division by {den!r}")
        return num / den

    def diff(self, var=VAR):
        # (u/v)' = (u'v - uv')/v^2
        du = self.a.diff(var)
        try:
            square = _pow(self.b, 2)
        except OverflowError:  # a constant v whose square is folded past the double range
            return _div(du, self.b)  # (u/v)' = u'/v
        return _div(_sub(_mul(du, self.b), _mul(self.a, self.b.diff(var))), square)

    def subs(self, mapping):
        return _div(self.a.subs(mapping), self.b.subs(mapping))


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base, exp):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exp", int(exp))

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __repr__(self):
        return f"Pow({self.base!r}, {self.exp})"

    def evaluate(self, env):
        b = self.base.evaluate(env)
        if type(env) is Lanes:
            return env.power(b, self.exp)
        if self.exp < 0 and abs(b) <= POLE_RTOL:
            raise PoleEncounteredError(f"negative power of {b!r}")
        return b ** self.exp

    def diff(self, var=VAR):
        if self.exp == 0:
            return Const(0.0)
        return _mul(
            _mul(Const(self.exp), _pow(self.base, self.exp - 1)),
            self.base.diff(var),
        )

    def subs(self, mapping):
        return _pow(self.base.subs(mapping), self.exp)

    def _collect_vars(self, out):
        self.base._collect_vars(out)


class Lanes(dict):
    """The environment of a tree evaluated at many points at once: the
    variable bound to ``CArray`` lanes.

    Where the scalar evaluation raises at a lane -- a ``Div`` or ``Pow``
    node at a pole, an ``abs`` past the double range in its pole check, a
    power that overflows -- the ``Div`` and ``Pow`` nodes flag the lane in
    ``poles`` and go on; a flagged lane's value means nothing.  A power
    past ``C_POWI_MAX`` flags every lane.  A subtree
    with no lane in it is evaluated as a scalar, and raises as one.
    """

    def __init__(self, value: CArray):
        super().__init__({VAR: value})
        self.poles = np.zeros(np.shape(value.re), dtype=bool)

    def flag_quotient(self, num, den):
        a_den, a_num = _abs(den), _abs(num)
        self.poles |= (_abs_overflows(den, a_den) | _abs_overflows(num, a_num)
                       | (a_den <= POLE_RTOL * np.fmax(1.0, a_num)))

    def power(self, base, n):
        """``base ** n``, with the lanes flagged where the scalar power raises."""
        if isinstance(base, CArray) and abs(n) > C_POWI_MAX:
            # CPython takes another algorithm past c_powi, which the lanes do
            # not copy: every lane is flagged
            self.poles[...] = True
            return base
        out = base ** n
        # CPython raises on an infinite part of a power, and on 1 / 0 when a
        # negative power's x**|n| underflows: a NaN or infinite lane
        bad = ~out.isfinite() if isinstance(out, CArray) else False
        if n < 0:
            a = abs(base)
            bad = bad | _abs_overflows(base, a) | (a <= POLE_RTOL)
        self.poles |= bad
        return out


def _abs_overflows(value, magnitude):
    """The lanes where CPython's ``abs`` raises OverflowError: finite parts
    whose hypot is infinite.  (A scalar's ``abs`` has raised already.)"""
    if isinstance(value, CArray):
        return np.isinf(magnitude) & value.isfinite()
    return False


def _evaluate(fn: HoloFn, e: CArray, f: CArray):
    """``fn(q)`` at lanes with ``q.ringleb() == (e, f)``, as
    ``HoloFn.__call__`` computes it: (value, flagged lanes)."""
    n = len(e.re)
    env_e, env_f = Lanes(e), Lanes(f)
    try:
        parts = [fn.f1.evaluate(env_e), fn.f2.evaluate(env_f)]
    except (BhmError, ArithmeticError):
        nan = np.full(n, np.nan)
        return BArray(CArray(nan, nan), CArray(nan, nan)), np.ones(n, dtype=bool)
    for k, v in enumerate(parts):
        if not isinstance(v, CArray):  # a constant tree
            parts[k] = CArray(np.full(n, v.real), np.full(n, v.imag))
    value = BArray.from_ringleb(*parts)
    return value, env_e.poles | env_f.poles | ~value.isfinite()


def _to_expr(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, complex)):
        return Const(value)
    raise TypeError(f"cannot use {type(value).__name__} in an expression")


def _is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


# smart constructors: fold constants so derivative trees stay small
def _add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def _sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0):
        return a
    return Sub(a, b)


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return Const(0.0)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Mul(a, b)


def _div(a, b):
    if _is_const(b, 1):
        return a
    if _is_const(a, 0) and not _is_const(b, 0):
        return Const(0.0)
    return Div(a, b)


def _pow(base, exp):
    if exp == 0:
        return Const(1.0)
    if exp == 1:
        return base
    if _is_const(base):
        try:
            return Const(base.value ** exp)
        except ZeroDivisionError:  # x**|exp| is 0: a zero or underflowing base
            raise PoleEncounteredError(f"negative power {exp} of {base.value!r}") from None
        except OverflowError:  # x**exp past the double range
            raise RangeOverflowError(f"the power {exp} of the constant {base.value!r} "
                                     f"overflows") from None
    return Pow(base, exp)


# ---------------------------------------------------------------------------
# JSON grammar:
#   {"op": "const", "value": [re, im]}
#   {"op": "var"}
#   {"op": "add"|"sub"|"mul"|"div", "args": [expr, expr]}
#   {"op": "pow", "args": [expr], "exp": int}

_BINOPS = {"add": _add, "sub": _sub, "mul": _mul, "div": _div}


def is_number(value) -> bool:
    """A JSON number: an int or a float, never a boolean (a Python int)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def expr_from_json(obj) -> Expr:
    if not isinstance(obj, dict):
        raise ExprSchemaError(f"expression node must be an object, got {type(obj).__name__}")
    op = obj.get("op")
    if not isinstance(op, str):  # a list or an object is no op, and unhashable
        raise ExprSchemaError(f"unknown expression op {op!r}")
    if op == "const":
        value = obj.get("value")
        if is_number(value):
            return Const(complex(value))
        if (isinstance(value, (list, tuple)) and len(value) == 2
                and all(is_number(v) for v in value)):
            return Const(complex(value[0], value[1]))
        raise ExprSchemaError(f"const node needs 'value': [re, im], got {value!r}")
    if op == "var":
        return Var()
    if op in _BINOPS:
        args = obj.get("args")
        if not isinstance(args, list) or len(args) < 2:
            raise ExprSchemaError(f"{op} node needs 'args' with at least 2 entries")
        out = expr_from_json(args[0])
        for a in args[1:]:
            out = _BINOPS[op](out, expr_from_json(a))
        return out
    if op == "pow":
        args = obj.get("args")
        if not isinstance(args, list) or len(args) != 1:
            raise ExprSchemaError("pow node needs 'args' with exactly 1 entry")
        exp = obj.get("exp")
        if not isinstance(exp, int) or isinstance(exp, bool):
            raise ExprSchemaError(f"pow node needs integer 'exp', got {exp!r}")
        if abs(exp) > MAX_DEGREE:
            raise ExprSchemaError(f"pow exponent {exp} exceeds {MAX_DEGREE} in absolute value")
        return _pow(expr_from_json(args[0]), exp)
    raise ExprSchemaError(f"unknown expression op {op!r}")


def degree_bound(e: Expr) -> int:
    """Upper bound on the degree of a tree in its variable; a quotient counts
    the degrees of numerator and denominator, a negative power that of its
    base."""
    if isinstance(e, Const):
        return 0
    if isinstance(e, Var):
        return 1
    if isinstance(e, (Add, Sub)):
        return max(degree_bound(e.a), degree_bound(e.b))
    if isinstance(e, (Mul, Div)):
        return degree_bound(e.a) + degree_bound(e.b)
    if isinstance(e, Pow):
        return abs(e.exp) * degree_bound(e.base)
    raise TypeError(f"cannot bound the degree of {type(e).__name__}")


def _bounded(e: Expr) -> Expr:
    degree = degree_bound(e)
    if degree > MAX_DEGREE:
        raise ExprSchemaError(f"expression degree can reach {degree}, "
                              f"more than {MAX_DEGREE}")
    return e


def expr_to_json(e: Expr):
    if isinstance(e, Const):
        return {"op": "const", "value": [e.value.real, e.value.imag]}
    if isinstance(e, Var):
        return {"op": "var"}
    if isinstance(e, Pow):
        return {"op": "pow", "args": [expr_to_json(e.base)], "exp": e.exp}
    for name, cls in (("add", Add), ("sub", Sub), ("mul", Mul), ("div", Div)):
        if isinstance(e, cls):
            return {"op": name, "args": [expr_to_json(e.a), expr_to_json(e.b)]}
    raise TypeError(f"cannot serialize {type(e).__name__}")


# ---------------------------------------------------------------------------


def poly_coefficients(e: Expr, var=VAR):
    """Ascending coefficient list of a polynomial expression.

    Raises InvalidInputError for non-polynomial trees (division by a
    non-constant, negative powers).
    """
    if isinstance(e, Const):
        return [e.value]
    if isinstance(e, Var):
        if e.name != var:
            raise InvalidInputError(f"unexpected variable {e.name!r}")
        return [0j, 1 + 0j]
    if isinstance(e, Add):
        return poly_add(poly_coefficients(e.a, var), poly_coefficients(e.b, var))
    if isinstance(e, Sub):
        return poly_add(poly_coefficients(e.a, var),
                        [-c for c in poly_coefficients(e.b, var)])
    if isinstance(e, Mul):
        return poly_mul(poly_coefficients(e.a, var), poly_coefficients(e.b, var))
    if isinstance(e, Div):
        den = poly_coefficients(e.b, var)
        if len(den) != 1:
            raise InvalidInputError("division by a non-constant is not polynomial")
        if den[0] == 0:
            raise PoleEncounteredError("constant zero denominator")
        return [c / den[0] for c in poly_coefficients(e.a, var)]
    if isinstance(e, Pow):
        if e.exp < 0:
            raise InvalidInputError("negative power is not polynomial")
        out = [1 + 0j]
        base = poly_coefficients(e.base, var)
        for _ in range(e.exp):
            out = poly_mul(out, base)
        return out
    raise TypeError(f"cannot extract coefficients from {type(e).__name__}")


def poly_add(p, q):
    """Sum of two ascending coefficient lists."""
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for k, c in enumerate(q):
        out[k] += c
    return out


def poly_mul(p, q):
    """Product of two ascending coefficient lists."""
    out = [0j] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for k, b in enumerate(q):
            out[i + k] += a * b
    return out


# ---------------------------------------------------------------------------


class HoloFn:
    """Bicomplex-holomorphic function as a Ringleb pair of expression trees."""

    __slots__ = ("f1", "f2")

    def __init__(self, f1: Expr, f2: Expr | None = None):
        self.f1 = _to_expr(f1)
        self.f2 = self.f1 if f2 is None else _to_expr(f2)

    def __repr__(self):
        return f"HoloFn({self.f1!r}, {self.f2!r})"

    @classmethod
    def identity(cls):
        return cls(Var(), Var())

    @classmethod
    def const(cls, value):
        if isinstance(value, Bicomplex):
            e, f = value.ringleb()
            return cls(Const(e), Const(f))
        return cls(Const(value), Const(value))

    def __call__(self, q) -> Bicomplex:
        if not isinstance(q, Bicomplex):
            q = Bicomplex(complex(q), 0.0)
        e, f = q.ringleb()
        return Bicomplex.from_ringleb(
            self.f1.evaluate({VAR: e}), self.f2.evaluate({VAR: f})
        )

    def derivative(self) -> "HoloFn":
        return HoloFn(self.f1.diff(), self.f2.diff())

    def compose(self, inner: "HoloFn") -> "HoloFn":
        """self after inner, as exact tree substitution."""
        return HoloFn(
            self.f1.subs({VAR: inner.f1}),
            self.f2.subs({VAR: inner.f2}),
        )

    def i2_components(self):
        """The pair (psi1, psi2) with psi = psi1 + psi2*i2, as trees in q1, q2."""
        z = Var("q1") + Const(1j) * Var("q2")
        w = Var("q1") - Const(1j) * Var("q2")
        fz = self.f1.subs({VAR: z})
        fw = self.f2.subs({VAR: w})
        psi1 = Const(0.5) * (fz + fw)
        psi2 = Const(0.5j) * (fw - fz)
        return psi1, psi2

    def _binary(self, other, op):
        if isinstance(other, HoloFn):
            return HoloFn(op(self.f1, other.f1), op(self.f2, other.f2))
        if isinstance(other, Bicomplex):
            return self._binary(HoloFn.const(other), op)
        if isinstance(other, (int, float, complex)):
            return HoloFn(op(self.f1, Const(other)), op(self.f2, Const(other)))
        return NotImplemented

    def __add__(self, other):
        return self._binary(other, _add)

    def __radd__(self, other):
        return self._binary(other, lambda a, b: _add(b, a))

    def __sub__(self, other):
        return self._binary(other, _sub)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: _sub(b, a))

    def __mul__(self, other):
        return self._binary(other, _mul)

    def __rmul__(self, other):
        return self._binary(other, lambda a, b: _mul(b, a))

    def __truediv__(self, other):
        return self._binary(other, _div)

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b: _div(b, a))

    def __neg__(self):
        return HoloFn(-self.f1, -self.f2)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return HoloFn(_pow(self.f1, n), _pow(self.f2, n))


def holofn_from_json(obj) -> HoloFn:
    if not isinstance(obj, dict):
        raise ExprSchemaError("holomorphic function must be an object")
    if "f" in obj:
        f = _bounded(expr_from_json(obj["f"]))
        return HoloFn(f, f)
    if "f1" in obj and "f2" in obj:
        return HoloFn(_bounded(expr_from_json(obj["f1"])),
                      _bounded(expr_from_json(obj["f2"])))
    raise ExprSchemaError("expected keys 'f' or 'f1'/'f2'")


def holofn_to_json(fn: HoloFn):
    return {"f1": expr_to_json(fn.f1), "f2": expr_to_json(fn.f2)}


def cr_residual(psi1: Expr, psi2: Expr, q: Bicomplex) -> float:
    """Max residual of the bicomplex Cauchy-Riemann pair at q.

    The checker takes a general i2-component pair (psi1, psi2) as trees in the
    variables q1, q2, so violating pairs can be probed alongside pairs induced
    by a HoloFn (for those use ``HoloFn.i2_components``).
    """
    env = {"q1": q.z1, "q2": q.z2}
    r1 = psi1.diff("q1").evaluate(env) - psi2.diff("q2").evaluate(env)
    r2 = psi1.diff("q2").evaluate(env) + psi2.diff("q1").evaluate(env)
    return max(abs(r1), abs(r2))
