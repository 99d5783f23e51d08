"""Concrete syntax: lexing, parsing and printing.

A source file has three parts, in order: `sessions` headers declaring
the free session channels, `env` declarations giving sorts to service
names and value variables, and one process.

    sessions k, k2;
    env shop : <?[int].end>;
    env budget : int;
    shop<k>.k!(budget).0

The parser resolves every identifier to its declaration site, so the
usual pi-calculus name classes (session channels, service names,
expression variables) are kept apart here rather than in the checker,
and misuse (a session channel inside an expression, a value variable
where a service is expected) is reported with a position.  Names
starting with '#' are reserved for machine-generated services and are
rejected in every binding position except `env`.

Comments run from `//` to end of line.  Prefixes bind tighter than `|`,
so `new k . P | Q` is `(new k . P) | Q`; parenthesise for wider scope.

Tokens.  `_lex` finds every token with one `findall` of one pattern,
whose only group is the token, with the blanks, newlines and comments
in front of it taken into the same match.  It returns two parallel
lists: tags and texts.  A symbol's or keyword's tag is its own text,
looked up in a dict; identifiers, ints, strings and the end of input
are tagged `IDENT`, `INT`, `STRING` and `EOF`, which start with a
blank, so no token text equals them.  A second pass visits only the
tokens the dict does not tag, to tell identifiers, ints and strings
(whose escapes it applies) from a lexical error.  Offsets and lines
are not tracked: `_offsets` finds the tokens again when a
`ParseError` is built, and only then, and `position` turns an offset
into a line and a column.  `tokenize` gives all three lists.  The
parser reads the lists by index, and reads a chain of prefixes in a
loop, so a long chain needs no recursion.
"""
from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import is_
from typing import Callable, TypeVar

from . import syntax as sx
from .syntax import Expr, Name, Process, SessionType, Sort

_T = TypeVar("_T")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# --------------------------------------------------------------------- lexer

_KEYWORDS = {
    "sessions", "env", "new", "if", "then", "else", "true", "false",
    "not", "and", "or", "end", "int", "bool", "string",
}
_BASIC = ("int", "bool", "string")

# longest first so '<<' wins over '<'
_SYMBOLS = [
    "<<", ">>", "!=", "<=", ">=",
    "(", ")", "[", "]", "{", "}", "<", ">", "?", "!", ".", ",", ":", ";",
    "|", "*", "&", "+", "-", "=", "/",
]

IDENT, INT, STRING, EOF = " ident", " int", " string", " eof"

# Each match is layout, then one token, the only group.  `\d` is
# `str.isdecimal` and `\w` is `str.isalnum` plus '_', so a digit such
# as '²' starts a word, not an int; `_lex` rejects a word that does not
# start with a letter, '_' or '#'.  Any other character is a token of
# its own, and a bad one.  The layout takes every blank, newline and
# comment, and the end of input (an empty token) or a single character
# always matches right after it, so a match never backtracks into the
# layout, and the matches cover the text with no gap.
_STRING = r'"(?:[^"\\\n]|\\[nt"\\])*'
_TOKEN = re.compile(r"(?:[ \t\r\n]+|//[^\n]*)*(" + "|".join([
    r"\d+", r"[\w#]\w*", f'{_STRING}"',
    *map(re.escape, _SYMBOLS), r"\Z", r".",
]) + ")")
_STRING_PREFIX = re.compile(_STRING)
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
# the tags a token's text alone decides
_TAGS = {**{w: w for w in [*_SYMBOLS, *_KEYWORDS]}, "": EOF}


def position(text: str, off: int) -> tuple[int, int]:
    """The line and column, both counted from 1, of offset `off`."""
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


def _offsets(text: str) -> list[int]:
    """The offsets of text's tokens, the last one `EOF`.  The parser
    needs them only to place a `ParseError`."""
    offs = []
    for m in _TOKEN.finditer(text):
        offs.append(m.start(1))
        if not m[1]:
            break
    # a trailing comment does not count towards the end-of-input column:
    # on the layout's last line, blanks can only precede one comment
    line = max(m.start(), text.rfind("\n", m.start()) + 1)
    comment = text.find("//", line)
    if comment >= 0:
        offs[-1] = comment
    return offs


def _lex_error(text: str, off: int) -> ParseError:
    """Why no token starts at text[off]."""
    c = text[off]
    if c == "#":
        return ParseError("'#' must start a name", *position(text, off))
    if c == '"':
        j = _STRING_PREFIX.match(text, off).end()
        if j + 1 < len(text) and text[j] == "\\" and text[j + 1] != "\n":
            return ParseError(f"bad escape '\\{text[j + 1]}'",
                              *position(text, j))
        return ParseError("unterminated string", *position(text, off))
    return ParseError(f"unexpected character {c!r}", *position(text, off))


def _lex(text: str) -> tuple[list[str], list[str]]:
    """The tags and texts of text's tokens, the last one `EOF` (with
    text ""): one `findall`, the symbols, keywords and end tagged by
    their text, then one pass over the other tokens."""
    texts = _TOKEN.findall(text)
    # after layout at the very end, the end of input matches twice
    del texts[texts.index("") + 1:]
    tags = list(map(_TAGS.get, texts))
    for i in compress(count(), map(is_, tags, repeat(None))):
        word = texts[i]
        c = word[0]
        if c.isalpha() or c in "_#" and word != "#":
            tags[i] = IDENT
        elif c.isdecimal():
            tags[i] = INT
        elif c == '"' and word != '"':
            tags[i], word = STRING, word[1:-1]
            texts[i] = (re.sub(r"\\(.)", lambda e: _ESCAPES[e[1]], word)
                        if "\\" in word else word)
        else:
            raise _lex_error(text, _offsets(text)[i])
    return tags, texts


def tokenize(text: str) -> tuple[list[str], list[str], list[int]]:
    """The tags, texts and offsets of text's tokens, the last one `EOF`
    (with text "")."""
    tags, texts = _lex(text)
    return tags, texts, _offsets(text)


# -------------------------------------------------------------------- parser

@dataclass
class Source:
    """A parsed file: declared free channels, sort environment, process."""
    sessions: tuple[Name, ...]
    gamma: dict[str, Sort]
    process: Process


# A prefix read but not yet put around its continuation: the node's
# constructor, its arguments before the continuation, and the name it
# binds in the continuation (None if it binds none).
_Head = tuple[Callable[..., Process], tuple, "str | None"]


class _Parser:
    """Reads the token lists by index; `pos` is the next token, and
    never moves past the `EOF` token."""

    def __init__(self, text: str):
        self.text = text
        self.tags, self.texts = _lex(text)
        self.pos = 0
        self.sessions: dict[str, Name] = {}
        self.gamma: dict[str, Sort] = {}
        self.chans: dict[str, Name] = {}  # bound session channels in scope
        self.vars: set[str] = set()       # bound expression variables

    # -- token helpers

    def error(self, message: str, i: int | None = None) -> ParseError:
        """A ParseError at token i, by default the next one."""
        off = _offsets(self.text)[self.pos if i is None else i]
        return ParseError(message, *position(self.text, off))

    def show(self, i: int) -> str:
        return "end of input" if self.tags[i] == EOF else repr(self.texts[i])

    def expect(self, text: str) -> None:
        """Step over the symbol or keyword `text`."""
        if self.tags[self.pos] != text:
            raise self.error(f"expected '{text}', found {self.show(self.pos)}")
        self.pos += 1

    def expect_ident(self, what: str = "name") -> int:
        """Step over an identifier and return its token index."""
        i = self.pos
        if self.tags[i] != IDENT:
            raise self.error(f"expected {what}, found {self.show(i)}")
        self.pos += 1
        return i

    def finish(self, out: _T, what: str) -> _T:
        if self.tags[self.pos] != EOF:
            raise self.error(
                f"unexpected {self.show(self.pos)} after {what}")
        return out

    def commas(self, item: Callable[[], _T]) -> list[_T]:
        out = [item()]
        while self.tags[self.pos] == ",":
            self.pos += 1
            out.append(item())
        return out

    def arms(self, body: Callable[[], _T]) -> list[tuple[str, _T]]:
        """`{l: body, ...}` with distinct labels."""
        seen: set[str] = set()

        def arm() -> tuple[str, _T]:
            i = self.expect_ident("label")
            label = self.texts[i]
            if label in seen:
                raise self.error(f"duplicate label {label!r}", i)
            seen.add(label)
            self.expect(":")
            return label, body()

        self.expect("{")
        out = self.commas(arm)
        self.expect("}")
        return out

    # -- scope helpers

    def _visible(self, name: str) -> bool:
        return (name in self.sessions or name in self.gamma
                or name in self.chans or name in self.vars)

    def _check_binder(self, i: int) -> None:
        name = self.texts[i]
        if name.startswith("#"):
            raise self.error(f"name {name!r} is reserved", i)
        if self._visible(name):
            raise self.error(f"{name!r} is already in scope", i)

    def bind(self) -> Name:
        """Bring a fresh bound channel into scope; the caller pops it."""
        i = self.expect_ident("channel name")
        self._check_binder(i)
        name = self.chans[self.texts[i]] = sx.bound_chan(self.texts[i])
        return name

    def bound_head(self, heads: list[_Head], make: Callable[..., Process],
                   first: Name, close: str) -> None:
        """`k` close `.`: push a head binding k in its continuation;
        close is one or two closing symbols, one character each."""
        name = self.bind()
        for text in close:
            self.expect(text)
        self.expect(".")
        heads.append((make, (first, name), name.base))

    def declare_session(self) -> None:
        i = self.expect_ident("session channel name")
        self._check_binder(i)
        self.sessions[self.texts[i]] = sx.chan(self.texts[i])

    def session_name(self, i: int) -> Name:
        name = self.texts[i]
        if name in self.chans:
            return self.chans[name]
        if name in self.sessions:
            return self.sessions[name]
        if name in self.gamma or name in self.vars:
            raise self.error(f"{name!r} is not a session channel", i)
        raise self.error(f"undeclared session channel {name!r}", i)

    def service_name(self, i: int) -> Name:
        name = self.texts[i]
        sort = self.gamma.get(name)
        if isinstance(sort, sx.ServiceSort):
            return sx.svc(name)
        if name in self.gamma:
            raise self.error(f"{name!r} is not a service", i)
        if name in self.sessions or name in self.chans:
            raise self.error(
                f"{name!r} is a session channel, not a service", i)
        raise self.error(f"undeclared service {name!r}", i)

    # -- declarations

    def parse_source(self) -> Source:
        while (tag := self.tags[self.pos]) in ("sessions", "env"):
            self.pos += 1
            if tag == "sessions":
                self.commas(self.declare_session)
            else:
                i = self.expect_ident("name")
                if self._visible(self.texts[i]):
                    raise self.error(
                        f"{self.texts[i]!r} is already declared", i)
                self.expect(":")
                self.gamma[self.texts[i]] = self.parse_sort()
            self.expect(";")
        p = self.finish(self.parse_par(), "process")
        return Source(tuple(self.sessions.values()), dict(self.gamma), p)

    # -- types

    def parse_sort(self) -> Sort:
        if self.tags[self.pos] not in (*_BASIC, "<"):
            raise self.error(
                f"expected a sort, found {self.show(self.pos)}")
        return self.parse_payload()

    def parse_type(self) -> SessionType:
        """A chain of `?[…].` and `![…].` heads, read in a loop, and the
        type that ends it; only payloads and label options recurse."""
        heads = []
        while (tag := self.tags[self.pos]) == "?" or tag == "!":
            self.pos += 1
            self.expect("[")
            payload = self.parse_payload()
            self.expect("]")
            self.expect(".")
            heads.append((sx.In if tag == "?" else sx.Out, payload))
        if tag == "end":
            self.pos += 1
            t = sx.End()
        elif tag == "&" or tag == "+":
            self.pos += 1
            arms = self.arms(self.parse_type)
            t = sx.branch(arms) if tag == "&" else sx.select(arms)
        else:
            raise self.error(
                f"expected a session type, found {self.show(self.pos)}")
        for make, payload in reversed(heads):
            t = make(payload, t)
        return t

    def parse_payload(self) -> Sort | SessionType:
        tag = self.tags[self.pos]
        if tag in _BASIC:
            self.pos += 1
            return sx.Basic(tag)
        if tag == "<":
            self.pos += 1
            s = self.parse_type()
            self.expect(">")
            return sx.ServiceSort(s)
        return self.parse_type()

    # -- processes

    def parse_par(self) -> Process:
        p = self.parse_unit()
        while self.tags[self.pos] == "|":
            self.pos += 1
            p = sx.Par(p, self.parse_unit())
        return p

    def parse_unit(self) -> Process:
        """A chain of prefixes and the process that ends it.

        Each prefix is pushed as a head, and the heads are put around
        the end from the innermost out, so a long chain needs no
        recursion.  The names the heads bind stay in scope until the
        end is read, and are popped in reverse."""
        heads: list[_Head] = []
        end = self.link(heads)
        while end is None:
            end = self.link(heads)
        for make, args, bound in reversed(heads):
            end = make(*args, end)
            if bound in self.chans:
                del self.chans[bound]
            elif bound is not None:
                self.vars.remove(bound)
        return end

    def link(self, heads: list[_Head]) -> Process | None:
        """Push the next prefix of a chain onto heads and return None,
        or return the process that ends the chain."""
        i = self.pos
        tag = self.tags[i]
        if tag == IDENT:
            return self.prefix(heads)
        if tag == "new":
            self.pos += 1
            names = self.commas(self.bind)
            self.expect(".")
            heads += [(sx.New, (name,), name.base) for name in names]
            return None
        if tag == "*":
            self.pos += 1
            service = self.service_name(self.expect_ident("service name"))
            self.expect("(")
            self.bound_head(heads, sx.Serve, service, ")")
            return None
        if tag == INT:
            if self.texts[i] == "0":
                self.pos += 1
                return sx.Stop()
            raise self.error("expected a process")
        if tag == "(":
            self.pos += 1
            p = self.parse_par()
            self.expect(")")
            return p
        if tag == "if":
            self.pos += 1
            test = self.parse_expr()
            self.expect("then")
            then = self.parse_unit()
            self.expect("else")
            return sx.If(test, then, self.parse_unit())
        raise self.error(f"expected a process, found {self.show(i)}")

    def prefix(self, heads: list[_Head]) -> Process | None:
        """`link` at an identifier: an accept, a request, a session
        prefix, or an offer, which ends the chain."""
        tags, texts = self.tags, self.texts
        i = self.pos
        j = self.pos = i + 1
        op = tags[j]
        if op == "(":  # accept: a(k).P
            service = self.service_name(i)
            self.pos += 1
            self.bound_head(heads, sx.Accept, service, ")")
            return None
        if op == "<":  # request: a<k>.P
            service = self.service_name(i)
            self.pos += 1
            self.bound_head(heads, sx.Request, service, ">")
            return None
        if op not in ("?", "!", ">>", "<<"):
            name = texts[i]
            if name in self.chans or name in self.sessions:
                raise self.error(
                    f"expected '?', '!', '>>' or '<<' after session channel"
                    f" {name!r}", j)
            raise self.error(f"expected a process, found {name!r}", i)
        chan = self.session_name(i)
        self.pos += 1
        if op == "?":
            self.expect("(")
            if tags[self.pos] == "(":  # session reception: k?((k2)).P
                self.pos += 1
                self.bound_head(heads, sx.ReceiveSession, chan, "))")
                return None
            x = self.expect_ident("variable name")
            self._check_binder(x)
            self.expect(")")
            self.expect(".")
            self.vars.add(texts[x])
            heads.append((sx.Receive, (chan, texts[x]), texts[x]))
            return None
        if op == "!":
            self.expect("(")
            # k!((k2)).P delegates k2 when the double parens wrap one
            # session channel; anything else is a parenthesised expression
            k = self.pos
            if (tags[k] == "(" and tags[k + 1] == IDENT
                    and tags[k + 2] == ")" and tags[k + 3] == ")"
                    and (texts[k + 1] in self.chans
                         or texts[k + 1] in self.sessions)):
                self.pos = k + 4
                self.expect(".")
                heads.append((sx.SendSession, (chan, self.session_name(k + 1)),
                              None))
                return None
            e = self.parse_expr()
            self.expect(")")
            self.expect(".")
            heads.append((sx.Send, (chan, e), None))
            return None
        if op == ">>":
            return sx.Offer(chan, tuple(self.arms(self.parse_par)))
        label = self.expect_ident("label")
        self.expect(".")
        heads.append((sx.Choose, (chan, texts[label]), None))
        return None

    # -- expressions

    def parse_expr(self, level: int = 1) -> Expr:
        """An expression whose operators are all at `level` or above.

        Precedence climbing over `_LEVELS`: after an operator at level
        lv only operators below lv + 1 may follow (left association),
        and only operators below lv after a comparison, since
        comparisons do not chain.
        """
        tags = self.tags
        if level <= _NOT and tags[self.pos] == "not":
            self.pos += 1
            e: Expr = sx.Unop("not", self.parse_expr(_NOT))
            below = _NOT
        else:
            e, below = self.parse_atom(), _ATOM
        while True:
            tag = tags[self.pos]
            lv = _LEVELS.get(tag, 0)
            if not level <= lv < below:
                return e
            self.pos += 1
            e = sx.Binop(tag, e, self.parse_expr(lv + 1))
            below = lv if lv == _CMP else lv + 1

    def parse_atom(self) -> Expr:
        i = self.pos
        tag, text = self.tags[i], self.texts[i]
        if tag == INT:
            self.pos += 1
            return sx.IntLit(int(text))
        if tag == STRING:
            self.pos += 1
            return sx.StrLit(text)
        if tag == "true" or tag == "false":
            self.pos += 1
            return sx.BoolLit(tag == "true")
        if tag == "-":
            self.pos += 1
            return sx.Unop("-", self.parse_atom())
        if tag == "(":
            self.pos += 1
            e = self.parse_expr()
            self.expect(")")
            return e
        if tag == IDENT:
            self.pos += 1
            if text in self.vars:
                return sx.Var(text)
            sort = self.gamma.get(text)
            if isinstance(sort, sx.ServiceSort):
                return sx.SvcRef(text)
            if sort is not None:
                return sx.Var(text)
            if text in self.chans or text in self.sessions:
                raise self.error(
                    f"session channel {text!r} cannot appear in an expression",
                    i)
            raise self.error(f"undeclared name {text!r}", i)
        raise self.error(f"expected an expression, found {self.show(i)}")


def parse_source(text: str) -> Source:
    return _Parser(text).parse_source()


def parse_process(text: str, sessions: tuple[str, ...] = (),
                  gamma: dict[str, Sort] | None = None) -> Process:
    """Parse a bare process under the given declarations."""
    p = _Parser(text)
    p.sessions = {s: sx.chan(s) for s in sessions}
    p.gamma = dict(gamma or {})
    return p.finish(p.parse_par(), "process")


def parse_type(text: str) -> SessionType:
    p = _Parser(text)
    return p.finish(p.parse_type(), "type")


# ------------------------------------------------------------------ printing

def binder_order(n: Name) -> tuple[int, str]:
    """The order in which `choose_names` spells binders: binder id,
    then spelling (only binders made without an id can tie)."""
    return n.uid or 0, n.base


_SUFFIXES = re.compile(r"(?:_\d+)+\Z")


def family(spelling: str) -> str:
    """The spelling with every trailing `_<digits>` removed.
    `choose_names` only appends such suffixes, so the spellings it
    tries for a binder all lie in the family of the binder's own, and
    two spellings can only collide within one family."""
    return _SUFFIXES.sub("", spelling) if "_" in spelling else spelling


def choose_names(binders: Iterable[Name], taken: set[str]) -> dict[Name, str]:
    """The one naming rule: free channels and services keep their
    spelling, and `taken` starts as those spellings; binders, in
    `binder_order`, get a numeric suffix when their spelling is already
    taken, by a free channel, a service or an earlier binder.  Returns
    the binders' spellings, each also added to `taken`.

    The taken spellings only grow, so the smallest free suffix of a
    spelling never falls: each spelling keeps the next suffix to try,
    and each suffix is probed once.
    """
    names: dict[Name, str] = {}
    suffix: dict[str, int] = {}
    for n in sorted(binders, key=binder_order):
        s = n.base
        if s in taken:
            i = suffix.get(s, 1)
            while f"{s}_{i}" in taken:
                i += 1
            suffix[s] = i + 1
            s = f"{s}_{i}"
        names[n] = s
        taken.add(s)
    return names


def display_names(p: Process) -> dict[Name, str]:
    """Choose a distinct spelling for every channel in p (see
    `choose_names`).  As in `syntax.Facts.free`, the free channels are
    the mentioned ones minus the binders, since binder ids are globally
    unique."""
    f = sx.facts(p)
    free = f.free
    names = {n: n.base for n in free}
    names.update(choose_names(f.binders,
                              {n.base for n in chain(free, f.services)}))
    return names


# Expression precedence, loosest first, for both `_Parser.parse_expr`
# and `print_expr`: `not` binds between `and` and the comparisons, and
# unary '-' binds tightest.
_NOT, _CMP, _ATOM = 3, 4, 7
_LEVELS = {
    "or": 1, "and": 2,
    "=": _CMP, "!=": _CMP, "<": _CMP, "<=": _CMP, ">": _CMP, ">=": _CMP,
    "+": 5, "-": 5, "*": 6,
}


def print_expr(e: Expr, level: int = 0) -> str:
    match e:
        case sx.IntLit(v):
            return str(v)
        case sx.BoolLit(v):
            return "true" if v else "false"
        case sx.StrLit(v):
            body = (v.replace("\\", "\\\\").replace('"', '\\"')
                     .replace("\n", "\\n").replace("\t", "\\t"))
            return f'"{body}"'
        case sx.Var(n) | sx.SvcRef(n):
            return n
        case sx.Unop("-", a):
            return f"-{print_expr(a, _ATOM)}"
        case sx.Unop("not", a):
            s = f"not {print_expr(a, _CMP)}"
            return f"({s})" if level > _NOT else s
        case sx.Binop(op, l, r):
            lv = _LEVELS[op]
            # left-associative, but comparisons do not chain
            left = print_expr(l, lv + 1 if lv == _CMP else lv)
            s = f"{left} {op} {print_expr(r, lv + 1)}"
            return f"({s})" if level > lv else s
    raise TypeError(f"not an expression: {e!r}")


def print_type(t: SessionType | Sort) -> str:
    out = []  # the heads along t's continuations, in a loop
    while type(t) is sx.In or type(t) is sx.Out:
        out += ("?[" if type(t) is sx.In else "![", print_type(t.payload),
                "].")
        t = t.then
    match t:
        case sx.End():
            out.append("end")
        case sx.Bot():
            out.append("bot")
        case sx.BranchT(opts) | sx.SelectT(opts):
            inner = ", ".join(f"{l}: {print_type(a)}" for l, a in opts)
            out += ("&{" if type(t) is sx.BranchT else "+{", inner, "}")
        case sx.Basic(n):
            out.append(n)
        case sx.ServiceSort(s):
            out.append(f"<{print_type(s)}>")
        case _:
            raise TypeError(f"not a type: {t!r}")
    return "".join(out)


# what each prefix prints before its continuation: text and names
_HEADS: dict[type, Callable[..., tuple[str | Name, ...]]] = {
    sx.Serve: lambda q: (f"*{q.service.base}(", q.chan, ")."),
    sx.Accept: lambda q: (f"{q.service.base}(", q.chan, ")."),
    sx.Request: lambda q: (f"{q.service.base}<", q.chan, ">."),
    sx.Receive: lambda q: (q.chan, f"?({q.var})."),
    sx.Send: lambda q: (q.chan, f"!({print_expr(q.expr)})."),
    sx.ReceiveSession: lambda q: (q.chan, "?((", q.bound, "))."),
    sx.SendSession: lambda q: (q.chan, "!((", q.sent, "))."),
    sx.Choose: lambda q: (q.chan, f" << {q.label}."),
}


def pieces(p: Process) -> list[str | Name]:
    """p's text as literal strings with its channel names between them,
    laid out on an explicit stack: `new a, b .` chains, and parentheses
    around a `|` that is a prefix's continuation or a branch of `if`."""
    out: list[str | Name] = []
    todo: list[Process | str] = [p]  # names go straight to `out`
    while todo:
        q = todo.pop()
        if type(q) is str:
            out.append(q)
        elif type(q) is sx.Stop:
            out.append("0")
        elif type(q) is sx.Par:
            todo += (q.right, " | ", q.left)
        elif type(q) is sx.Offer:
            out += (q.chan, " >> {")
            todo.append("}")
            for i, (label, arm) in reversed(list(enumerate(q.arms))):
                todo += (arm, f", {label}: " if i else f"{label}: ")
        else:
            if type(q) is sx.New:
                out += ("new ", q.chan)
                body = q.body
                while type(body) is sx.New:
                    out += (", ", body.chan)
                    body = body.body
                out.append(" . ")
            elif type(q) is sx.If:
                out.append(f"if {print_expr(q.test)} then ")
                els = q.els
                todo += (")", els, "(") if isinstance(els, sx.Par) else (els,)
                todo.append(" else ")
                body = q.then
            else:  # a prefix; anything else raises KeyError
                out += _HEADS[type(q)](q)
                body = q.body
            todo += (")", body, "(") if isinstance(body, sx.Par) else (body,)
    return out


def print_process(p: Process, names: dict[Name, str] | None = None) -> str:
    """p's `pieces`, each name spelled by `names` (by default p's
    `display_names`), else by its own spelling."""
    if names is None:
        names = display_names(p)
    return "".join([x if type(x) is str else names.get(x, x.base)
                     for x in pieces(p)])


def print_delta(delta: dict[Name, SessionType],
                 names: dict[Name, str] | None = None) -> str:
    def nm(n: Name) -> str:
        if names and n in names:
            return names[n]
        return n.base

    items = sorted(((nm(k), t) for k, t in delta.items()), key=lambda kv: kv[0])
    return ", ".join(f"{k} : {print_type(t)}" for k, t in items)
