"""Token definitions for the HipHop surface syntax."""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import SourceLocation

# token kinds
NAME = "NAME"
NUMBER = "NUMBER"
STRING = "STRING"
PUNCT = "PUNCT"
EOF = "EOF"

#: Reserved words.  They are lexed as NAME tokens; the parser decides
#: contextually (``count``, ``immediate`` and ``as`` are contextual and may
#: still appear as identifiers in expressions).
KEYWORDS = frozenset(
    """
    module implements in out inout var signal emit sustain nothing pause
    yield halt fork par loop if else abort weakabort suspend await every do
    count immediate break run as async kill resume atom hop let true false
    null
    """.split()
)

#: Words that can never be a statement-leading identifier label.
STATEMENT_KEYWORDS = KEYWORDS - {"count", "immediate", "as", "in", "out", "inout"}

#: Multi-character punctuation, longest first (the lexer tries in order).
PUNCTUATIONS = (
    "...",
    "===",
    "!==",
    "=>",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "++",
    "--",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ",",
    ";",
    ":",
    ".",
    "?",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
)


class Token:
    __slots__ = ("kind", "value", "loc")

    def __init__(self, kind: str, value: Any, loc: SourceLocation):
        self.kind = kind
        self.value = value
        self.loc = loc

    def is_punct(self, value: str) -> bool:
        return self.kind == PUNCT and self.value == value

    def is_name(self, value: Optional[str] = None) -> bool:
        if self.kind != NAME:
            return False
        return value is None or self.value == value

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.loc})"
