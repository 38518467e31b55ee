"""Host data-expression language.

HipHop.js delegates all data computation to JavaScript expressions embedded
in temporal statements, with signals accessed through ``S.now``, ``S.pre``,
``S.nowval`` and ``S.preval``.  We reproduce that design with a small,
self-contained expression language whose AST is defined here.  Expressions
are either parsed from the surface syntax (``repro.syntax``) or built
programmatically through the DSL (``repro.lang.dsl``).

Having our own expression AST (rather than opaque Python lambdas) is what
lets the compiler *extract signal dependencies* automatically — the paper's
"data dependencies to other augmented nets" (section 5.1) — so that the
microscheduler can order every emitter of a signal before every reader of
its value within an instant.

Python callables can still be embedded via :class:`HostCall`; their signal
dependencies must then be declared explicitly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.errors import HipHopError, SourceLocation

# Signal access kinds -------------------------------------------------------

NOW = "now"          # presence status in the current instant (bool)
PRE = "pre"          # presence status in the previous instant (bool)
NOWVAL = "nowval"    # value in the current instant
PREVAL = "preval"    # value in the previous instant
SIGNAME = "signame"  # the signal's bound name (a string, statically known)

ACCESS_KINDS = (NOW, PRE, NOWVAL, PREVAL, SIGNAME)

#: Access kinds whose evaluation requires the *current* instant's resolution
#: of the signal, and therefore create intra-instant data dependencies.
CURRENT_INSTANT_KINDS = frozenset({NOW, NOWVAL})


class EvalEnv:
    """Evaluation environment protocol for expressions.

    The runtime supplies a concrete implementation; tests may use
    :class:`DictEnv`.
    """

    def signal_now(self, name: str) -> bool:
        raise NotImplementedError

    def signal_pre(self, name: str) -> bool:
        raise NotImplementedError

    def signal_nowval(self, name: str) -> Any:
        raise NotImplementedError

    def signal_preval(self, name: str) -> Any:
        raise NotImplementedError

    def signal_name(self, name: str) -> str:
        """The externally visible name a (possibly renamed) signal is bound
        to; mirrors HipHop's ``S.signame``."""
        return name

    def lookup(self, name: str) -> Any:
        """Resolve a free identifier (module ``var``, ``let`` binding, or a
        host-environment binding)."""
        raise NotImplementedError

    def assign(self, name: str, value: Any) -> None:
        raise NotImplementedError


class DictEnv(EvalEnv):
    """Simple dictionary-backed environment, mainly for tests.

    ``signals`` maps a signal name to a ``(now, pre, nowval, preval)``
    tuple; ``bindings`` holds free identifiers.
    """

    def __init__(
        self,
        signals: Optional[Dict[str, Tuple[bool, bool, Any, Any]]] = None,
        bindings: Optional[Dict[str, Any]] = None,
    ):
        self.signals = dict(signals or {})
        self.bindings = dict(bindings or {})

    def signal_now(self, name: str) -> bool:
        return self.signals[name][0]

    def signal_pre(self, name: str) -> bool:
        return self.signals[name][1]

    def signal_nowval(self, name: str) -> Any:
        return self.signals[name][2]

    def signal_preval(self, name: str) -> Any:
        return self.signals[name][3]

    def lookup(self, name: str) -> Any:
        return self.bindings[name]

    def assign(self, name: str, value: Any) -> None:
        self.bindings[name] = value


class EvalError(HipHopError):
    """Raised when a host expression fails to evaluate."""


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------


class Expr:
    """Base class for host expressions."""

    __slots__ = ("loc",)

    def __init__(self, loc: Optional[SourceLocation] = None):
        self.loc = loc

    # -- analysis ----------------------------------------------------------

    def signal_deps(self) -> FrozenSet[Tuple[str, str]]:
        """All ``(signal_name, access_kind)`` pairs this expression reads."""
        acc: set = set()
        self._collect_deps(acc)
        return frozenset(acc)

    def current_signal_deps(self) -> FrozenSet[str]:
        """Names of signals whose *current-instant* status or value is read.

        These are the dependencies that constrain microscheduling.
        """
        return frozenset(
            name for name, kind in self.signal_deps() if kind in CURRENT_INSTANT_KINDS
        )

    def free_vars(self) -> FrozenSet[str]:
        acc: set = set()
        self._collect_vars(acc)
        return frozenset(acc)

    def _collect_deps(self, acc: set) -> None:
        for child in self.children():
            child._collect_deps(acc)

    def _collect_vars(self, acc: set) -> None:
        for child in self.children():
            child._collect_vars(acc)

    def children(self) -> Iterable["Expr"]:
        return ()

    # -- renaming (used when inlining `run M(...)` with `as` bindings) -----

    def rename_signals(self, mapping: Dict[str, str]) -> "Expr":
        """Return a copy with signal references renamed per ``mapping``.

        Names absent from the mapping are kept unchanged.
        """
        raise NotImplementedError

    # -- evaluation ---------------------------------------------------------

    def eval(self, env: EvalEnv) -> Any:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> tuple:
        raise NotImplementedError


class Lit(Expr):
    """A literal constant (number, string, bool, ``None``)."""

    __slots__ = ("value",)

    def __init__(self, value: Any, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.value = value

    def rename_signals(self, mapping: Dict[str, str]) -> "Expr":
        return self

    def eval(self, env: EvalEnv) -> Any:
        return self.value

    def _key(self) -> tuple:
        return (self.value,)

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


class Var(Expr):
    """A free identifier resolved in the evaluation environment."""

    __slots__ = ("name",)

    def __init__(self, name: str, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.name = name

    def _collect_vars(self, acc: set) -> None:
        acc.add(self.name)

    def rename_signals(self, mapping: Dict[str, str]) -> "Expr":
        return self

    def eval(self, env: EvalEnv) -> Any:
        try:
            return env.lookup(self.name)
        except KeyError:
            raise EvalError(f"unbound identifier {self.name!r}") from None

    def _key(self) -> tuple:
        return (self.name,)

    def __repr__(self) -> str:
        return f"Var({self.name})"


class SigRef(Expr):
    """A signal access: ``S.now``, ``S.pre``, ``S.nowval``, ``S.preval`` or
    ``S.signame``."""

    __slots__ = ("signal", "kind")

    def __init__(self, signal: str, kind: str, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        if kind not in ACCESS_KINDS:
            raise ValueError(f"bad signal access kind: {kind!r}")
        self.signal = signal
        self.kind = kind

    def _collect_deps(self, acc: set) -> None:
        acc.add((self.signal, self.kind))

    def rename_signals(self, mapping: Dict[str, str]) -> "Expr":
        new = mapping.get(self.signal, self.signal)
        if new == self.signal:
            return self
        return SigRef(new, self.kind, self.loc)

    def eval(self, env: EvalEnv) -> Any:
        if self.kind == NOW:
            return env.signal_now(self.signal)
        if self.kind == PRE:
            return env.signal_pre(self.signal)
        if self.kind == NOWVAL:
            return env.signal_nowval(self.signal)
        if self.kind == PREVAL:
            return env.signal_preval(self.signal)
        return env.signal_name(self.signal)

    def _key(self) -> tuple:
        return (self.signal, self.kind)

    def __repr__(self) -> str:
        return f"SigRef({self.signal}.{self.kind})"


_BINOPS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "===": lambda a, b: type(a) is type(b) and a == b,
    "!==": lambda a, b: not (type(a) is type(b) and a == b),
}

_SHORT_CIRCUIT = ("&&", "||")


class BinOp(Expr):
    """A binary operation.  ``&&`` and ``||`` short-circuit like in
    JavaScript (returning one of the operands, not a coerced boolean)."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        if op not in _BINOPS and op not in _SHORT_CIRCUIT:
            raise ValueError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Iterable[Expr]:
        return (self.left, self.right)

    def rename_signals(self, mapping: Dict[str, str]) -> "Expr":
        return BinOp(
            self.op,
            self.left.rename_signals(mapping),
            self.right.rename_signals(mapping),
            self.loc,
        )

    def eval(self, env: EvalEnv) -> Any:
        if self.op == "&&":
            left = self.left.eval(env)
            return self.right.eval(env) if truthy(left) else left
        if self.op == "||":
            left = self.left.eval(env)
            return left if truthy(left) else self.right.eval(env)
        try:
            return _BINOPS[self.op](self.left.eval(env), self.right.eval(env))
        except EvalError:
            raise
        except Exception as exc:  # noqa: BLE001 - host data errors surface uniformly
            raise EvalError(f"error evaluating {self.op!r}: {exc}") from exc

    def _key(self) -> tuple:
        return (self.op, self.left, self.right)

    def __repr__(self) -> str:
        return f"BinOp({self.left!r} {self.op} {self.right!r})"


class UnOp(Expr):
    """Unary ``!`` or ``-`` or ``+``."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        if op not in ("!", "-", "+"):
            raise ValueError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    def children(self) -> Iterable[Expr]:
        return (self.operand,)

    def rename_signals(self, mapping: Dict[str, str]) -> "Expr":
        return UnOp(self.op, self.operand.rename_signals(mapping), self.loc)

    def eval(self, env: EvalEnv) -> Any:
        value = self.operand.eval(env)
        if self.op == "!":
            return not truthy(value)
        if self.op == "-":
            return -value
        return +value

    def _key(self) -> tuple:
        return (self.op, self.operand)

    def __repr__(self) -> str:
        return f"UnOp({self.op}{self.operand!r})"


class Cond(Expr):
    """The ternary conditional ``test ? then : else``."""

    __slots__ = ("test", "then", "orelse")

    def __init__(self, test: Expr, then: Expr, orelse: Expr, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.test = test
        self.then = then
        self.orelse = orelse

    def children(self) -> Iterable[Expr]:
        return (self.test, self.then, self.orelse)

    def rename_signals(self, mapping: Dict[str, str]) -> "Expr":
        return Cond(
            self.test.rename_signals(mapping),
            self.then.rename_signals(mapping),
            self.orelse.rename_signals(mapping),
            self.loc,
        )

    def eval(self, env: EvalEnv) -> Any:
        return self.then.eval(env) if truthy(self.test.eval(env)) else self.orelse.eval(env)

    def _key(self) -> tuple:
        return (self.test, self.then, self.orelse)


class Attr(Expr):
    """Attribute access ``obj.name`` on a host value."""

    __slots__ = ("obj", "name")

    def __init__(self, obj: Expr, name: str, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.obj = obj
        self.name = name

    def children(self) -> Iterable[Expr]:
        return (self.obj,)

    def rename_signals(self, mapping: Dict[str, str]) -> "Expr":
        return Attr(self.obj.rename_signals(mapping), self.name, self.loc)

    def eval(self, env: EvalEnv) -> Any:
        obj = self.obj.eval(env)
        # JavaScript-style convenience: `.length` works on strings/sequences.
        if self.name == "length" and not hasattr(obj, "length"):
            try:
                return len(obj)
            except TypeError as exc:
                raise EvalError(f"no .length on {obj!r}") from exc
        if isinstance(obj, dict):
            try:
                return obj[self.name]
            except KeyError:
                raise EvalError(f"no property {self.name!r} on {obj!r}") from None
        try:
            return getattr(obj, self.name)
        except AttributeError as exc:
            raise EvalError(str(exc)) from exc

    def _key(self) -> tuple:
        return (self.obj, self.name)


class Index(Expr):
    """Subscript access ``obj[key]``."""

    __slots__ = ("obj", "key")

    def __init__(self, obj: Expr, key: Expr, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.obj = obj
        self.key = key

    def children(self) -> Iterable[Expr]:
        return (self.obj, self.key)

    def rename_signals(self, mapping: Dict[str, str]) -> "Expr":
        return Index(self.obj.rename_signals(mapping), self.key.rename_signals(mapping), self.loc)

    def eval(self, env: EvalEnv) -> Any:
        try:
            return self.obj.eval(env)[self.key.eval(env)]
        except EvalError:
            raise
        except Exception as exc:  # noqa: BLE001
            raise EvalError(f"index error: {exc}") from exc

    def _key(self) -> tuple:
        return (self.obj, self.key)


class Call(Expr):
    """A call ``fn(args...)`` where ``fn`` is any expression evaluating to a
    Python callable (typically a :class:`Var` bound in the host frame)."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: Expr, args: List[Expr], loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.fn = fn
        self.args = list(args)

    def children(self) -> Iterable[Expr]:
        return (self.fn, *self.args)

    def rename_signals(self, mapping: Dict[str, str]) -> "Expr":
        return Call(
            self.fn.rename_signals(mapping),
            [a.rename_signals(mapping) for a in self.args],
            self.loc,
        )

    def eval(self, env: EvalEnv) -> Any:
        fn = self.fn.eval(env)
        args = [a.eval(env) for a in self.args]
        try:
            return fn(*args)
        except EvalError:
            raise
        except Exception as exc:  # noqa: BLE001
            raise EvalError(f"host call failed: {exc}") from exc

    def _key(self) -> tuple:
        return (self.fn, tuple(self.args))


class ArrayLit(Expr):
    """An array literal ``[a, b, c]`` (evaluates to a Python list)."""

    __slots__ = ("items",)

    def __init__(self, items: List[Expr], loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.items = list(items)

    def children(self) -> Iterable[Expr]:
        return tuple(self.items)

    def rename_signals(self, mapping: Dict[str, str]) -> "Expr":
        return ArrayLit([i.rename_signals(mapping) for i in self.items], self.loc)

    def eval(self, env: EvalEnv) -> Any:
        return [i.eval(env) for i in self.items]

    def _key(self) -> tuple:
        return (tuple(self.items),)


class ObjectLit(Expr):
    """An object literal ``{a: 1, b: x}`` (evaluates to a Python dict).

    Keys may be plain strings or expressions for JavaScript computed keys:
    ``{[time.signame]: this.sec}`` (paper's Timer module).
    """

    __slots__ = ("fields",)

    def __init__(
        self,
        fields: List[Tuple[Union[str, "Expr"], Expr]],
        loc: Optional[SourceLocation] = None,
    ):
        super().__init__(loc)
        self.fields = list(fields)

    def children(self) -> Iterable[Expr]:
        out: List[Expr] = []
        for key, value in self.fields:
            if isinstance(key, Expr):
                out.append(key)
            out.append(value)
        return tuple(out)

    def rename_signals(self, mapping: Dict[str, str]) -> "Expr":
        return ObjectLit(
            [
                (k.rename_signals(mapping) if isinstance(k, Expr) else k,
                 v.rename_signals(mapping))
                for k, v in self.fields
            ],
            self.loc,
        )

    def eval(self, env: EvalEnv) -> Any:
        result = {}
        for key, value in self.fields:
            name = key.eval(env) if isinstance(key, Expr) else key
            result[name] = value.eval(env)
        return result

    def _key(self) -> tuple:
        return (tuple(self.fields),)


class Lambda(Expr):
    """An arrow function ``(a, b) => expr`` — evaluates to a Python
    closure over the current environment (used for promise callbacks such
    as ``.then(v => this.notify(v))``)."""

    __slots__ = ("params", "body")

    def __init__(self, params: List[str], body: Expr, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        self.params = list(params)
        self.body = body

    def children(self) -> Iterable[Expr]:
        return (self.body,)

    def _collect_vars(self, acc: set) -> None:
        inner: set = set()
        self.body._collect_vars(inner)
        acc.update(inner - set(self.params))

    def rename_signals(self, mapping: Dict[str, str]) -> "Expr":
        return Lambda(self.params, self.body.rename_signals(mapping), self.loc)

    def eval(self, env: EvalEnv) -> Any:
        params, body = self.params, self.body

        def closure(*args: Any) -> Any:
            return body.eval(ScopedEnv(env, dict(zip(params, args))))

        closure.__name__ = "lambda_" + "_".join(params or ("void",))
        return closure

    def _key(self) -> tuple:
        return (tuple(self.params), self.body)


class IncDec(Expr):
    """Prefix ``++x`` / ``--x`` on a variable or attribute target; mutates
    the target and returns the new value (the paper's ``++this.sec``)."""

    __slots__ = ("op", "target")

    def __init__(self, op: str, target: Expr, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        if op not in ("++", "--"):
            raise ValueError(f"bad inc/dec operator {op!r}")
        if not isinstance(target, (Var, Attr, Index)):
            raise ValueError("++/-- requires a variable, attribute or index target")
        self.op = op
        self.target = target

    def children(self) -> Iterable[Expr]:
        return (self.target,)

    def rename_signals(self, mapping: Dict[str, str]) -> "Expr":
        return IncDec(self.op, self.target.rename_signals(mapping), self.loc)

    def eval(self, env: EvalEnv) -> Any:
        delta = 1 if self.op == "++" else -1
        new = self.target.eval(env) + delta
        assign_target(self.target, new, env)
        return new

    def _key(self) -> tuple:
        return (self.op, self.target)


class AssignExpr(Expr):
    """A JavaScript assignment expression ``target = value``; assigns and
    returns the value (``this.sec = 0`` inside a call argument)."""

    __slots__ = ("target", "value")

    def __init__(self, target: Expr, value: Expr, loc: Optional[SourceLocation] = None):
        super().__init__(loc)
        if not isinstance(target, (Var, Attr, Index)):
            raise ValueError("invalid assignment target")
        self.target = target
        self.value = value

    def children(self) -> Iterable[Expr]:
        return (self.target, self.value)

    def rename_signals(self, mapping: Dict[str, str]) -> "Expr":
        return AssignExpr(
            self.target.rename_signals(mapping), self.value.rename_signals(mapping), self.loc
        )

    def eval(self, env: EvalEnv) -> Any:
        value = self.value.eval(env)
        assign_target(self.target, value, env)
        return value

    def _key(self) -> tuple:
        return (self.target, self.value)


def assign_target(target: Expr, value: Any, env: EvalEnv) -> None:
    """Store ``value`` into an lvalue expression (Var, Attr or Index)."""
    if isinstance(target, Var):
        env.assign(target.name, value)
    elif isinstance(target, Attr):
        obj = target.obj.eval(env)
        if isinstance(obj, dict):
            obj[target.name] = value
        else:
            setattr(obj, target.name, value)
    elif isinstance(target, Index):
        target.obj.eval(env)[target.key.eval(env)] = value
    else:
        raise EvalError(f"not an assignable target: {target!r}")


class ScopedEnv(EvalEnv):
    """An environment layering local bindings over a base environment
    (lambda parameters, ``this`` inside async bodies...)."""

    def __init__(self, base: EvalEnv, bindings: Dict[str, Any]):
        self.base = base
        self.bindings = bindings

    def signal_now(self, name: str) -> bool:
        return self.base.signal_now(name)

    def signal_pre(self, name: str) -> bool:
        return self.base.signal_pre(name)

    def signal_nowval(self, name: str) -> Any:
        return self.base.signal_nowval(name)

    def signal_preval(self, name: str) -> Any:
        return self.base.signal_preval(name)

    def signal_name(self, name: str) -> str:
        return self.base.signal_name(name)

    def lookup(self, name: str) -> Any:
        if name in self.bindings:
            return self.bindings[name]
        return self.base.lookup(name)

    def assign(self, name: str, value: Any) -> None:
        if name in self.bindings:
            self.bindings[name] = value
        else:
            self.base.assign(name, value)


class HostCall(Expr):
    """Escape hatch: an opaque Python callable with *declared* signal
    dependencies.

    ``fn`` receives the :class:`EvalEnv` and returns the expression value.
    ``deps`` lists the signals whose current-instant resolution ``fn``
    reads; forgetting one breaks the microscheduling guarantee, so prefer
    structured expressions when possible.
    """

    __slots__ = ("fn", "deps", "label")

    def __init__(
        self,
        fn: Callable[[EvalEnv], Any],
        deps: Iterable[str] = (),
        label: str = "<hostcall>",
        loc: Optional[SourceLocation] = None,
    ):
        super().__init__(loc)
        self.fn = fn
        self.deps = tuple(deps)
        self.label = label

    def _collect_deps(self, acc: set) -> None:
        for name in self.deps:
            acc.add((name, NOWVAL))
            acc.add((name, NOW))

    def rename_signals(self, mapping: Dict[str, str]) -> "Expr":
        if not any(d in mapping for d in self.deps):
            return self
        renamed = tuple(mapping.get(d, d) for d in self.deps)
        inverse = {mapping.get(d, d): d for d in self.deps}
        fn = self.fn

        def wrapped(env: EvalEnv, _fn=fn, _inv=inverse) -> Any:
            return _fn(_RenamingEnv(env, _inv))

        return HostCall(wrapped, renamed, self.label, self.loc)

    def eval(self, env: EvalEnv) -> Any:
        try:
            return self.fn(env)
        except EvalError:
            raise
        except Exception as exc:  # noqa: BLE001
            raise EvalError(f"{self.label} failed: {exc}") from exc

    def _key(self) -> tuple:
        return (id(self.fn), self.deps, self.label)


class _RenamingEnv(EvalEnv):
    """Presents renamed signals under their original names to a HostCall."""

    def __init__(self, base: EvalEnv, inner_to_outer: Dict[str, str]):
        self._base = base
        # inner_to_outer maps the *new* outer name back to nothing; we need
        # original -> outer, so invert.
        self._map = {orig: outer for outer, orig in inner_to_outer.items()}

    def _resolve(self, name: str) -> str:
        return self._map.get(name, name)

    def signal_now(self, name: str) -> bool:
        return self._base.signal_now(self._resolve(name))

    def signal_pre(self, name: str) -> bool:
        return self._base.signal_pre(self._resolve(name))

    def signal_nowval(self, name: str) -> Any:
        return self._base.signal_nowval(self._resolve(name))

    def signal_preval(self, name: str) -> Any:
        return self._base.signal_preval(self._resolve(name))

    def signal_name(self, name: str) -> str:
        return self._base.signal_name(self._resolve(name))

    def lookup(self, name: str) -> Any:
        return self._base.lookup(name)

    def assign(self, name: str, value: Any) -> None:
        self._base.assign(name, value)


def truthy(value: Any) -> bool:
    """JavaScript-flavoured truthiness (``0``, ``""``, ``None``, ``False``
    and ``NaN`` are false; everything else true — including empty lists,
    matching JS arrays)."""
    if value is None or value is False:
        return False
    if value is True:
        return True
    if isinstance(value, (int, float)):
        return value != 0 and value == value  # NaN is falsy
    if isinstance(value, str):
        return value != ""
    return True


TRUE = Lit(True)
FALSE = Lit(False)
NULL = Lit(None)
