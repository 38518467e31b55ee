"""Signal and variable interface declarations.

A HipHop module declares its interface signals as ``in``, ``out`` or
``inout``; bodies can additionally declare ``local`` signals with the
``signal`` statement.  A signal always has a presence *status* per instant
(reset to absent at every reaction) and, if used with values, a *value*
that persists across instants (paper section 2.2.1).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SourceLocation
from repro.lang import expr as E

IN = "in"
OUT = "out"
INOUT = "inout"
LOCAL = "local"

DIRECTIONS = (IN, OUT, INOUT, LOCAL)


class SignalDecl:
    """Declaration of one signal.

    :param name: the signal's name in its scope.
    :param direction: ``in``/``out``/``inout``/``local``.
    :param init: optional :class:`~repro.lang.expr.Expr` giving the initial
        value (the ``=`` form of the paper's interfaces).  Evaluated once,
        when the reactive machine (or the local scope) boots.
    :param combine: optional binary Python callable used to combine multiple
        same-instant emissions; without it, double emission is an error.
    """

    __slots__ = ("name", "direction", "init", "combine", "loc")

    def __init__(
        self,
        name: str,
        direction: str = LOCAL,
        init: Optional[E.Expr] = None,
        combine: Optional[Callable[[Any, Any], Any]] = None,
        loc: Optional[SourceLocation] = None,
    ):
        if direction not in DIRECTIONS:
            raise ValueError(f"bad signal direction {direction!r}")
        self.name = name
        self.direction = direction
        self.init = init
        self.combine = combine
        self.loc = loc

    @property
    def is_input(self) -> bool:
        return self.direction in (IN, INOUT)

    @property
    def is_output(self) -> bool:
        return self.direction in (OUT, INOUT)

    def renamed(self, name: str) -> "SignalDecl":
        return SignalDecl(name, self.direction, self.init, self.combine, self.loc)

    def __repr__(self) -> str:
        init = "" if self.init is None else f"={self.init!r}"
        return f"SignalDecl({self.direction} {self.name}{init})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SignalDecl)
            and self.name == other.name
            and self.direction == other.direction
            and self.init == other.init
            # string combine names compare by value; callables by identity
            and self.combine == other.combine
        )

    def __hash__(self) -> int:
        return hash((self.name, self.direction, self.init))


class VarDecl:
    """A module ``var`` parameter (paper section 3: ``Freeze(var max, ...)``).

    Vars are host-level values bound at ``run`` time and readable from the
    module's embedded expressions.  They must not be shared between
    parallel branches (read in one, written in another).
    """

    __slots__ = ("name", "init", "loc")

    def __init__(self, name: str, init: Optional[E.Expr] = None, loc: Optional[SourceLocation] = None):
        self.name = name
        self.init = init
        self.loc = loc

    def __repr__(self) -> str:
        init = "" if self.init is None else f"={self.init!r}"
        return f"VarDecl({self.name}{init})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarDecl) and self.name == other.name and self.init == other.init

    def __hash__(self) -> int:
        return hash((self.name, self.init))
