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
"""
from __future__ import annotations

import re
from collections.abc import Collection, Sequence, Set as AbstractSet
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Callable, NamedTuple, TypeVar

from . import syntax as sx
from .syntax import Expr, Name, Process, SessionType, Sort

if TYPE_CHECKING:
    from .congruence import NormalForm

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

# `\d` is `str.isdecimal` and `\w` is `str.isalnum` plus '_', so a
# digit such as '²' starts a word, not an int; `tokenize` rejects a word
# that does not start with a letter, '_' or '#'.  Any other character
# is `bad`.
_STRING = r'"(?:[^"\\\n]|\\[nt"\\])*'
_TOKEN = re.compile("|".join([
    r"(?P<nl>\n)", r"(?P<blank>[ \t\r]+)", r"(?P<comment>//[^\n]*)",
    r"(?P<int>\d+)", r"(?P<word>[\w#]\w*)", f'(?P<string>{_STRING}")',
    "(?P<sym>" + "|".join(map(re.escape, _SYMBOLS)) + ")", r"(?P<bad>.)",
]))
_STRING_PREFIX = re.compile(_STRING)
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


class Token(NamedTuple):
    kind: str  # "ident", "int", "string", "kw", "sym", "eof"
    text: str
    line: int
    col: int


def _string_error(text: str, i: int, line: int, col: int) -> ParseError:
    """Why the string starting at text[i] (line, col) does not lex."""
    j = _STRING_PREFIX.match(text, i).end()
    if j + 1 < len(text) and text[j] == "\\" and text[j + 1] != "\n":
        return ParseError(f"bad escape '\\{text[j + 1]}'", line, col + j - i)
    return ParseError("unterminated string", line, col)


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    m = None
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "nl":
            line, line_start = line + 1, m.end()
            continue
        if kind == "blank" or kind == "comment":
            continue
        word, col = m.group(), m.start() - line_start + 1
        if kind == "word":
            if word == "#":
                raise ParseError("'#' must start a name", line, col)
            if not (word[0].isalpha() or word[0] in "_#"):
                kind, word = "bad", word[0]
            else:
                kind = "kw" if word in _KEYWORDS else "ident"
        elif kind == "string":
            word = word[1:-1]
            if "\\" in word:
                word = re.sub(r"\\(.)", lambda e: _ESCAPES[e[1]], word)
        if kind == "bad":
            if word == '"':
                raise _string_error(text, m.start(), line, col)
            raise ParseError(f"unexpected character {word!r}", line, col)
        toks.append(Token(kind, word, line, col))
    # a trailing comment does not count towards the end-of-input column
    end = m.start() if m and m.lastgroup == "comment" else len(text)
    toks.append(Token("eof", "", line, end - line_start + 1))
    return toks


# -------------------------------------------------------------------- parser

@dataclass
class Source:
    """A parsed file: declared free channels, sort environment, process."""
    sessions: tuple[Name, ...]
    gamma: dict[str, Sort]
    process: Process


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.sessions: dict[str, Name] = {}
        self.gamma: dict[str, Sort] = {}
        self.chans: dict[str, Name] = {}  # bound session channels in scope
        self.vars: set[str] = set()       # bound expression variables

    # -- token helpers

    def peek(self) -> Token:
        return self.toks[self.pos]  # `next` never moves past the eof token

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at_sym(self, *texts: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text in texts

    def at_kw(self, *words: str) -> bool:
        t = self.peek()
        return t.kind == "kw" and t.text in words

    def expect(self, kind: str, text: str) -> Token:
        t = self.next()
        if t.kind != kind or t.text != text:
            raise ParseError(f"expected '{text}', found {self._show(t)}", t.line, t.col)
        return t

    def expect_sym(self, *texts: str) -> None:
        for text in texts:
            self.expect("sym", text)

    def expect_ident(self, what: str = "name") -> Token:
        t = self.next()
        if t.kind != "ident":
            raise ParseError(f"expected {what}, found {self._show(t)}", t.line, t.col)
        return t

    @staticmethod
    def _show(t: Token) -> str:
        return "end of input" if t.kind == "eof" else repr(t.text)

    def finish(self, out: _T, what: str) -> _T:
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"unexpected {self._show(t)} after {what}", t.line, t.col)
        return out

    def commas(self, item: Callable[[], _T]) -> list[_T]:
        out = [item()]
        while self.at_sym(","):
            self.next()
            out.append(item())
        return out

    def arms(self, body: Callable[[], _T]) -> list[tuple[str, _T]]:
        """`{l: body, ...}` with distinct labels."""
        seen: set[str] = set()

        def arm() -> tuple[str, _T]:
            lt = self.expect_ident("label")
            if lt.text in seen:
                raise ParseError(f"duplicate label {lt.text!r}", lt.line, lt.col)
            seen.add(lt.text)
            self.expect_sym(":")
            return lt.text, body()

        self.expect_sym("{")
        out = self.commas(arm)
        self.expect_sym("}")
        return out

    # -- scope helpers

    def _visible(self, name: str) -> bool:
        return (name in self.sessions or name in self.gamma
                or name in self.chans or name in self.vars)

    def _check_binder(self, t: Token) -> None:
        if t.text.startswith("#"):
            raise ParseError(f"name {t.text!r} is reserved", t.line, t.col)
        if self._visible(t.text):
            raise ParseError(f"{t.text!r} is already in scope", t.line, t.col)

    def bind(self) -> Name:
        """Bring a fresh bound channel into scope; the caller pops it."""
        t = self.expect_ident("channel name")
        self._check_binder(t)
        name = self.chans[t.text] = sx.bound_chan(t.text)
        return name

    def bound_body(self, *close: str) -> tuple[Name, Process]:
        """`k` close... `.` P, with k bound in P."""
        name = self.bind()
        self.expect_sym(*close, ".")
        body = self.parse_unit()
        del self.chans[name.base]
        return name, body

    def declare_session(self) -> None:
        t = self.expect_ident("session channel name")
        self._check_binder(t)
        self.sessions[t.text] = sx.chan(t.text)

    def session_name(self, t: Token) -> Name:
        if t.text in self.chans:
            return self.chans[t.text]
        if t.text in self.sessions:
            return self.sessions[t.text]
        if t.text in self.gamma or t.text in self.vars:
            raise ParseError(f"{t.text!r} is not a session channel", t.line, t.col)
        raise ParseError(f"undeclared session channel {t.text!r}", t.line, t.col)

    def service_name(self, t: Token) -> Name:
        sort = self.gamma.get(t.text)
        if isinstance(sort, sx.ServiceSort):
            return sx.svc(t.text)
        if t.text in self.gamma:
            raise ParseError(f"{t.text!r} is not a service", t.line, t.col)
        if t.text in self.sessions or t.text in self.chans:
            raise ParseError(f"{t.text!r} is a session channel, not a service",
                             t.line, t.col)
        raise ParseError(f"undeclared service {t.text!r}", t.line, t.col)

    # -- declarations

    def parse_source(self) -> Source:
        while self.at_kw("sessions", "env"):
            if self.next().text == "sessions":
                self.commas(self.declare_session)
            else:
                t = self.expect_ident("name")
                if self._visible(t.text):
                    raise ParseError(f"{t.text!r} is already declared", t.line, t.col)
                self.expect_sym(":")
                self.gamma[t.text] = self.parse_sort()
            self.expect_sym(";")
        p = self.finish(self.parse_par(), "process")
        return Source(tuple(self.sessions.values()), dict(self.gamma), p)

    # -- types

    def parse_sort(self) -> Sort:
        t = self.peek()
        if not (self.at_kw(*_BASIC) or self.at_sym("<")):
            raise ParseError(f"expected a sort, found {self._show(t)}", t.line, t.col)
        return self.parse_payload()

    def parse_type(self) -> SessionType:
        t = self.next()
        if t.kind == "kw" and t.text == "end":
            return sx.End()
        if t.kind == "sym" and t.text in ("?", "!"):
            self.expect_sym("[")
            payload = self.parse_payload()
            self.expect_sym("]", ".")
            then = self.parse_type()
            return sx.In(payload, then) if t.text == "?" else sx.Out(payload, then)
        if t.kind == "sym" and t.text in ("&", "+"):
            arms = self.arms(self.parse_type)
            return sx.branch(arms) if t.text == "&" else sx.select(arms)
        raise ParseError(f"expected a session type, found {self._show(t)}",
                         t.line, t.col)

    def parse_payload(self) -> Sort | SessionType:
        if self.at_kw(*_BASIC):
            return sx.Basic(self.next().text)
        if self.at_sym("<"):
            self.next()
            s = self.parse_type()
            self.expect_sym(">")
            return sx.ServiceSort(s)
        return self.parse_type()

    # -- processes

    def parse_par(self) -> Process:
        p = self.parse_unit()
        while self.at_sym("|"):
            self.next()
            p = sx.Par(p, self.parse_unit())
        return p

    def parse_unit(self) -> Process:
        t = self.peek()
        if t.kind == "int":
            if t.text == "0":
                self.next()
                return sx.Stop()
            raise ParseError("expected a process", t.line, t.col)
        if self.at_sym("("):
            self.next()
            p = self.parse_par()
            self.expect_sym(")")
            return p
        if self.at_kw("new"):
            self.next()
            names = self.commas(self.bind)
            self.expect_sym(".")
            body = self.parse_unit()
            for name in reversed(names):
                del self.chans[name.base]
                body = sx.New(name, body)
            return body
        if self.at_kw("if"):
            self.next()
            test = self.parse_expr()
            self.expect("kw", "then")
            then = self.parse_unit()
            self.expect("kw", "else")
            return sx.If(test, then, self.parse_unit())
        if self.at_sym("*"):
            self.next()
            service = self.service_name(self.expect_ident("service name"))
            self.expect_sym("(")
            return sx.Serve(service, *self.bound_body(")"))
        if t.kind == "ident":
            return self.parse_prefix()
        raise ParseError(f"expected a process, found {self._show(t)}", t.line, t.col)

    def parse_prefix(self) -> Process:
        t = self.next()
        nxt = self.peek()
        if self.at_sym("("):  # accept: a(k).P
            service = self.service_name(t)
            self.next()
            return sx.Accept(service, *self.bound_body(")"))
        if self.at_sym("<"):  # request: a<k>.P
            service = self.service_name(t)
            self.next()
            return sx.Request(service, *self.bound_body(">"))
        if not self.at_sym("?", "!", ">>", "<<"):
            if t.text in self.chans or t.text in self.sessions:
                raise ParseError(
                    f"expected '?', '!', '>>' or '<<' after session channel {t.text!r}",
                    nxt.line, nxt.col)
            raise ParseError(f"expected a process, found {t.text!r}", t.line, t.col)
        chan = self.session_name(t)
        self.next()
        if nxt.text == "?":
            self.expect_sym("(")
            if self.at_sym("("):  # session reception: k?((k2)).P
                self.next()
                return sx.ReceiveSession(chan, *self.bound_body(")", ")"))
            xt = self.expect_ident("variable name")
            self._check_binder(xt)
            self.expect_sym(")", ".")
            self.vars.add(xt.text)
            body = self.parse_unit()
            self.vars.remove(xt.text)
            return sx.Receive(chan, xt.text, body)
        if nxt.text == "!":
            self.expect_sym("(")
            # k!((k2)).P delegates k2 when the double parens wrap one
            # session channel; anything else is a parenthesised expression
            match self.toks[self.pos:self.pos + 4]:
                case [("sym", "(", *_), ("ident", name, *_) as sent,
                      ("sym", ")", *_), ("sym", ")", *_)] \
                        if name in self.chans or name in self.sessions:
                    self.pos += 4
                    self.expect_sym(".")
                    return sx.SendSession(chan, self.session_name(sent),
                                          self.parse_unit())
            e = self.parse_expr()
            self.expect_sym(")", ".")
            return sx.Send(chan, e, self.parse_unit())
        if nxt.text == ">>":
            return sx.Offer(chan, tuple(self.arms(self.parse_par)))
        lt = self.expect_ident("label")
        self.expect_sym(".")
        return sx.Choose(chan, lt.text, self.parse_unit())

    # -- expressions

    def parse_expr(self, level: int = 1) -> Expr:
        """An expression whose operators are all at `level` or above.

        Precedence climbing over `_LEVELS`: after an operator at level
        lv only operators below lv + 1 may follow (left association),
        and only operators below lv after a comparison, since
        comparisons do not chain.
        """
        if level <= _NOT and self.at_kw("not"):
            self.next()
            e: Expr = sx.Unop("not", self.parse_expr(_NOT))
            below = _NOT
        else:
            e, below = self.parse_atom(), _ATOM
        while True:
            t = self.peek()
            lv = _LEVELS.get(t.text, 0) if t.kind in ("sym", "kw") else 0
            if not level <= lv < below:
                return e
            self.next()
            e = sx.Binop(t.text, e, self.parse_expr(lv + 1))
            below = lv if lv == _CMP else lv + 1

    def parse_atom(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return sx.IntLit(int(t.text))
        if t.kind == "string":
            self.next()
            return sx.StrLit(t.text)
        if self.at_kw("true", "false"):
            self.next()
            return sx.BoolLit(t.text == "true")
        if self.at_sym("-"):
            self.next()
            return sx.Unop("-", self.parse_atom())
        if self.at_sym("("):
            self.next()
            e = self.parse_expr()
            self.expect_sym(")")
            return e
        if t.kind == "ident":
            self.next()
            if t.text in self.vars:
                return sx.Var(t.text)
            sort = self.gamma.get(t.text)
            if isinstance(sort, sx.ServiceSort):
                return sx.SvcRef(t.text)
            if sort is not None:
                return sx.Var(t.text)
            if t.text in self.chans or t.text in self.sessions:
                raise ParseError(
                    f"session channel {t.text!r} cannot appear in an expression",
                    t.line, t.col)
            raise ParseError(f"undeclared name {t.text!r}", t.line, t.col)
        raise ParseError(f"expected an expression, found {self._show(t)}",
                         t.line, t.col)


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

def _choose_names(binders: Collection[Name], mentioned: AbstractSet[Name],
                  services: AbstractSet[Name]) -> dict[Name, str]:
    """The one naming rule: free channels keep their spelling; binders,
    in binder id order, get a numeric suffix when their spelling is
    already taken, by a free channel, a service or an earlier binder.

    As in `syntax.Facts.free`, the free channels are the mentioned ones
    minus the binders, since binder ids are globally unique.  The taken
    spellings only grow, so the smallest free suffix of a spelling
    never falls: each spelling keeps the next suffix to try, and each
    suffix is probed once.
    """
    free = mentioned.difference(binders)
    taken = {n.base for n in chain(free, services)}
    names: dict[Name, str] = {n: n.base for n in free}
    suffix: dict[str, int] = {}
    for n in sorted(binders, key=lambda n: n.uid or 0):
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
    `_choose_names`)."""
    f = sx.facts(p)
    return _choose_names(f.binders, f.mentions, f.services)


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
    match t:
        case sx.End():
            return "end"
        case sx.Bot():
            return "bot"
        case sx.In(p, then):
            return f"?[{print_type(p)}].{print_type(then)}"
        case sx.Out(p, then):
            return f"![{print_type(p)}].{print_type(then)}"
        case sx.BranchT(opts):
            inner = ", ".join(f"{l}: {print_type(a)}" for l, a in opts)
            return "&{" + inner + "}"
        case sx.SelectT(opts):
            inner = ", ".join(f"{l}: {print_type(a)}" for l, a in opts)
            return "+{" + inner + "}"
        case sx.Basic(n):
            return n
        case sx.ServiceSort(s):
            return f"<{print_type(s)}>"
    raise TypeError(f"not a type: {t!r}")


def print_process(p: Process, names: dict[Name, str] | None = None) -> str:
    if names is None:
        names = display_names(p)

    def nm(n: Name) -> str:
        return names.get(n, n.base)

    def unit(p: Process) -> str:
        s = go(p)
        return f"({s})" if isinstance(p, sx.Par) else s

    def go(p: Process) -> str:
        match p:
            case sx.Stop():
                return "0"
            case sx.Par(_, _):
                return " | ".join(unit(x) for x in sx.par_leaves(p))
            case sx.New(c, body):
                chain = [c]
                while isinstance(body, sx.New):
                    chain.append(body.chan)
                    body = body.body
                return f"new {', '.join(nm(c) for c in chain)} . {unit(body)}"
            case sx.Serve(a, c, body):
                return f"*{a.base}({nm(c)}).{unit(body)}"
            case sx.Accept(a, c, body):
                return f"{a.base}({nm(c)}).{unit(body)}"
            case sx.Request(a, c, body):
                return f"{a.base}<{nm(c)}>.{unit(body)}"
            case sx.Receive(c, x, body):
                return f"{nm(c)}?({x}).{unit(body)}"
            case sx.Send(c, e, body):
                return f"{nm(c)}!({print_expr(e)}).{unit(body)}"
            case sx.ReceiveSession(c, n, body):
                return f"{nm(c)}?(({nm(n)})).{unit(body)}"
            case sx.SendSession(c, n, body):
                return f"{nm(c)}!(({nm(n)})).{unit(body)}"
            case sx.Offer(c, arms):
                inner = ", ".join(f"{l}: {go(a)}" for l, a in arms)
                return f"{nm(c)} >> {{{inner}}}"
            case sx.Choose(c, l, body):
                return f"{nm(c)} << {l}.{unit(body)}"
            case sx.If(e, t, els):
                return f"if {print_expr(e)} then {unit(t)} else {unit(els)}"
        raise TypeError(f"not a process: {p!r}")

    return go(p)


def print_states(states: Sequence[NormalForm]) -> list[str]:
    """`print_process(q.process())` for each normal form q, with each
    thread summarised once per call.

    `semantics.step` keeps untouched threads as the same objects, so a
    table local to the call, keyed by thread identity, holds each
    thread's `syntax.facts` and its last text.  A state's names come
    from its restrictions and its threads' facts, with no walk of the
    state.  A thread is printed again only when the spellings of the
    names it uses change: a binder that disappears can turn a later
    `k_2` into `k_1`, so this is checked on every state.  The table
    holds each thread, so no id is reused while it is in use.
    """
    facts: dict[int, tuple[Process, sx.Facts, tuple[Name, ...]]] = {}
    shown: dict[int, tuple[list[str], str]] = {}
    out: list[str] = []
    for q in states:
        rows = []
        for t in q.threads:
            row = facts.get(id(t))
            if row is None:
                f = sx.facts(t)
                row = facts[id(t)] = (t, f, f.binders + tuple(f.mentions))
            rows.append(row)
        fs = [f for _, f, _ in rows]
        names = _choose_names(
            dict.fromkeys(chain(q.binders, *(f.binders for f in fs))),
            set().union(*(f.mentions for f in fs)),
            set().union(*(f.services for f in fs)))
        texts = []
        for t, _, used in rows:
            spelled = [names[n] for n in used]
            last = shown.get(id(t))
            if last is None or last[0] != spelled:
                last = shown[id(t)] = (spelled, print_process(t, names))
            texts.append(last[1])
        text = " | ".join(texts) or "0"
        if q.binders and texts:
            body = f"({text})" if len(texts) > 1 else text
            text = f"new {', '.join(names[c] for c in q.binders)} . {body}"
        out.append(text)
    return out


def print_delta(delta: dict[Name, SessionType],
                 names: dict[Name, str] | None = None) -> str:
    def nm(n: Name) -> str:
        if names and n in names:
            return names[n]
        return n.base

    items = sorted(((nm(k), t) for k, t in delta.items()), key=lambda kv: kv[0])
    return ", ".join(f"{k} : {print_type(t)}" for k, t in items)
