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

from dataclasses import dataclass

from . import syntax as sx
from .syntax import Expr, Name, Process, SessionType, Sort


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

# longest first so '<<' wins over '<'
_SYMBOLS = [
    "<<", ">>", "!=", "<=", ">=",
    "(", ")", "[", "]", "{", "}", "<", ">", "?", "!", ".", ",", ":", ";",
    "|", "*", "&", "+", "-", "=", "/",
]


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", "string", "kw", "sym", "eof"
    text: str
    line: int
    col: int


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_" or ch == "#"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if _is_ident_start(ch):
            j = i + 1
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            if word == "#":
                raise ParseError("'#' must start a name", start_line, start_col)
            kind = "kw" if word in _KEYWORDS else "ident"
            toks.append(Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            out = []
            while True:
                if j >= n or text[j] == "\n":
                    raise ParseError("unterminated string", start_line, start_col)
                c = text[j]
                if c == '"':
                    j += 1
                    break
                if c == "\\":
                    if j + 1 >= n:
                        raise ParseError("unterminated string", start_line, start_col)
                    esc = text[j + 1]
                    mapped = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc)
                    if mapped is None:
                        raise ParseError(f"bad escape '\\{esc}'", line, col + j - i)
                    out.append(mapped)
                    j += 2
                    continue
                out.append(c)
                j += 1
            toks.append(Token("string", "".join(out), start_line, start_col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token("sym", sym, start_line, start_col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    toks.append(Token("eof", "", line, col))
    return toks


# -------------------------------------------------------------------- parser

@dataclass
class Source:
    """A parsed file: declared free channels, sort environment, process."""
    sessions: tuple[Name, ...]
    gamma: dict[str, Sort]
    process: Process


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        self.sessions: dict[str, Name] = {}
        self.gamma: dict[str, Sort] = {}
        self.chans: dict[str, Name] = {}  # bound session channels in scope
        self.vars: set[str] = set()       # bound expression variables

    # -- token helpers

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

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

    def expect_sym(self, text: str) -> Token:
        t = self.next()
        if t.kind != "sym" or t.text != text:
            raise ParseError(f"expected '{text}', found {self._show(t)}", t.line, t.col)
        return t

    def expect_kw(self, word: str) -> Token:
        t = self.next()
        if t.kind != "kw" or t.text != word:
            raise ParseError(f"expected '{word}', found {self._show(t)}", t.line, t.col)
        return t

    def expect_ident(self, what: str = "name") -> Token:
        t = self.next()
        if t.kind != "ident":
            raise ParseError(f"expected {what}, found {self._show(t)}", t.line, t.col)
        return t

    @staticmethod
    def _show(t: Token) -> str:
        return "end of input" if t.kind == "eof" else repr(t.text)

    # -- scope helpers

    def _visible(self, name: str) -> bool:
        return (name in self.sessions or name in self.gamma
                or name in self.chans or name in self.vars)

    def _check_binder(self, t: Token) -> None:
        if t.text.startswith("#"):
            raise ParseError(f"name {t.text!r} is reserved", t.line, t.col)
        if self._visible(t.text):
            raise ParseError(f"{t.text!r} is already in scope", t.line, t.col)

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
            if self.peek().text == "sessions":
                self.next()
                while True:
                    t = self.expect_ident("session channel name")
                    self._check_binder(t)
                    self.sessions[t.text] = sx.chan(t.text)
                    if self.at_sym(","):
                        self.next()
                        continue
                    break
                self.expect_sym(";")
            else:
                self.next()
                t = self.expect_ident("name")
                if self._visible(t.text):
                    raise ParseError(f"{t.text!r} is already declared", t.line, t.col)
                self.expect_sym(":")
                self.gamma[t.text] = self.parse_sort()
                self.expect_sym(";")
        p = self.parse_par()
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"unexpected {self._show(t)} after process", t.line, t.col)
        return Source(tuple(self.sessions.values()), dict(self.gamma), p)

    # -- types

    def parse_sort(self) -> Sort:
        t = self.peek()
        if t.kind == "kw" and t.text in ("int", "bool", "string"):
            self.next()
            return sx.Basic(t.text)
        if self.at_sym("<"):
            self.next()
            s = self.parse_type()
            self.expect_sym(">")
            return sx.ServiceSort(s)
        raise ParseError(f"expected a sort, found {self._show(t)}", t.line, t.col)

    def parse_type(self) -> SessionType:
        t = self.peek()
        if t.kind == "kw" and t.text == "end":
            self.next()
            return sx.End()
        if self.at_sym("?", "!"):
            op = self.next().text
            self.expect_sym("[")
            payload = self.parse_payload()
            self.expect_sym("]")
            self.expect_sym(".")
            then = self.parse_type()
            return sx.In(payload, then) if op == "?" else sx.Out(payload, then)
        if self.at_sym("&", "+"):
            op = self.next().text
            self.expect_sym("{")
            arms: list[tuple[str, SessionType]] = []
            seen: set[str] = set()
            while True:
                lt = self.expect_ident("label")
                if lt.text in seen:
                    raise ParseError(f"duplicate label {lt.text!r}", lt.line, lt.col)
                seen.add(lt.text)
                self.expect_sym(":")
                arms.append((lt.text, self.parse_type()))
                if self.at_sym(","):
                    self.next()
                    continue
                break
            self.expect_sym("}")
            return sx.branch(arms) if op == "&" else sx.select(arms)
        raise ParseError(f"expected a session type, found {self._show(t)}",
                         t.line, t.col)

    def parse_payload(self) -> Sort | SessionType:
        t = self.peek()
        if t.kind == "kw" and t.text in ("int", "bool", "string"):
            self.next()
            return sx.Basic(t.text)
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

    def _bind_chan(self, t: Token):
        """Register a fresh bound channel; returns (name, restore thunk)."""
        self._check_binder(t)
        name = sx.bound_chan(t.text)
        self.chans[t.text] = name

        def restore():
            del self.chans[t.text]

        return name, restore

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
            binders = []
            while True:
                nt = self.expect_ident("channel name")
                binders.append(self._bind_chan(nt))
                if self.at_sym(","):
                    self.next()
                    continue
                break
            self.expect_sym(".")
            body = self.parse_unit()
            for name, restore in reversed(binders):
                restore()
                body = sx.New(name, body)
            return body
        if self.at_kw("if"):
            self.next()
            test = self.parse_expr()
            self.expect_kw("then")
            then = self.parse_unit()
            self.expect_kw("else")
            els = self.parse_unit()
            return sx.If(test, then, els)
        if self.at_sym("*"):
            self.next()
            at = self.expect_ident("service name")
            service = self.service_name(at)
            self.expect_sym("(")
            kt = self.expect_ident("channel name")
            name, restore = self._bind_chan(kt)
            self.expect_sym(")")
            self.expect_sym(".")
            body = self.parse_unit()
            restore()
            return sx.Serve(service, name, body)
        if t.kind == "ident":
            return self.parse_prefix()
        raise ParseError(f"expected a process, found {self._show(t)}", t.line, t.col)

    def parse_prefix(self) -> Process:
        t = self.next()
        nxt = self.peek()
        if self.at_sym("("):  # accept: a(k).P
            service = self.service_name(t)
            self.next()
            kt = self.expect_ident("channel name")
            name, restore = self._bind_chan(kt)
            self.expect_sym(")")
            self.expect_sym(".")
            body = self.parse_unit()
            restore()
            return sx.Accept(service, name, body)
        if self.at_sym("<"):  # request: a<k>.P
            service = self.service_name(t)
            self.next()
            kt = self.expect_ident("channel name")
            name, restore = self._bind_chan(kt)
            self.expect_sym(">")
            self.expect_sym(".")
            body = self.parse_unit()
            restore()
            return sx.Request(service, name, body)
        if self.at_sym("?"):
            chan = self.session_name(t)
            self.next()
            self.expect_sym("(")
            if self.at_sym("("):  # session reception: k?((k2)).P
                self.next()
                kt = self.expect_ident("channel name")
                name, restore = self._bind_chan(kt)
                self.expect_sym(")")
                self.expect_sym(")")
                self.expect_sym(".")
                body = self.parse_unit()
                restore()
                return sx.ReceiveSession(chan, name, body)
            xt = self.expect_ident("variable name")
            self._check_binder(xt)
            self.expect_sym(")")
            self.expect_sym(".")
            self.vars.add(xt.text)
            body = self.parse_unit()
            self.vars.remove(xt.text)
            return sx.Receive(chan, xt.text, body)
        if self.at_sym("!"):
            chan = self.session_name(t)
            self.next()
            self.expect_sym("(")
            # k!((k2)).P delegates k2 when the double parens wrap one
            # session channel; anything else is a parenthesised expression
            if (self.at_sym("(") and self.peek(1).kind == "ident"
                    and self.peek(2).kind == "sym" and self.peek(2).text == ")"
                    and self.peek(3).kind == "sym" and self.peek(3).text == ")"
                    and (self.peek(1).text in self.chans
                         or self.peek(1).text in self.sessions)):
                self.next()
                kt = self.expect_ident("channel name")
                sent = self.session_name(kt)
                self.expect_sym(")")
                self.expect_sym(")")
                self.expect_sym(".")
                return sx.SendSession(chan, sent, self.parse_unit())
            e = self.parse_expr()
            self.expect_sym(")")
            self.expect_sym(".")
            return sx.Send(chan, e, self.parse_unit())
        if self.at_sym(">>"):
            chan = self.session_name(t)
            self.next()
            self.expect_sym("{")
            arms: list[tuple[str, Process]] = []
            seen: set[str] = set()
            while True:
                lt = self.expect_ident("label")
                if lt.text in seen:
                    raise ParseError(f"duplicate label {lt.text!r}", lt.line, lt.col)
                seen.add(lt.text)
                self.expect_sym(":")
                arms.append((lt.text, self.parse_par()))
                if self.at_sym(","):
                    self.next()
                    continue
                break
            self.expect_sym("}")
            return sx.Offer(chan, tuple(arms))
        if self.at_sym("<<"):
            chan = self.session_name(t)
            self.next()
            lt = self.expect_ident("label")
            self.expect_sym(".")
            return sx.Choose(chan, lt.text, self.parse_unit())
        if t.text in self.chans or t.text in self.sessions:
            raise ParseError(
                f"expected '?', '!', '>>' or '<<' after session channel {t.text!r}",
                nxt.line, nxt.col)
        raise ParseError(f"expected a process, found {t.text!r}", t.line, t.col)

    # -- expressions

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        e = self.parse_and()
        while self.at_kw("or"):
            self.next()
            e = sx.Binop("or", e, self.parse_and())
        return e

    def parse_and(self) -> Expr:
        e = self.parse_not()
        while self.at_kw("and"):
            self.next()
            e = sx.Binop("and", e, self.parse_not())
        return e

    def parse_not(self) -> Expr:
        if self.at_kw("not"):
            self.next()
            return sx.Unop("not", self.parse_not())
        return self.parse_cmp()

    def parse_cmp(self) -> Expr:
        e = self.parse_add()
        if self.at_sym("=", "!=", "<", "<=", ">", ">="):
            op = self.next().text
            return sx.Binop(op, e, self.parse_add())
        return e

    def parse_add(self) -> Expr:
        e = self.parse_mul()
        while self.at_sym("+", "-"):
            op = self.next().text
            e = sx.Binop(op, e, self.parse_mul())
        return e

    def parse_mul(self) -> Expr:
        e = self.parse_atom()
        while self.at_sym("*"):
            self.next()
            e = sx.Binop("*", e, self.parse_atom())
        return e

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
    return _Parser(tokenize(text)).parse_source()


def parse_process(text: str, sessions: tuple[str, ...] = (),
                  gamma: dict[str, Sort] | None = None) -> Process:
    """Parse a bare process under the given declarations."""
    p = _Parser(tokenize(text))
    p.sessions = {s: sx.chan(s) for s in sessions}
    p.gamma = dict(gamma or {})
    out = p.parse_par()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"unexpected {_Parser._show(t)} after process",
                         t.line, t.col)
    return out


def parse_type(text: str) -> SessionType:
    p = _Parser(tokenize(text))
    out = p.parse_type()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"unexpected {_Parser._show(t)} after type",
                         t.line, t.col)
    return out


# ------------------------------------------------------------------ printing

def display_names(p: Process) -> dict[Name, str]:
    """Choose a distinct spelling for every channel in p.

    Free channels keep their spelling; bound channels get a numeric
    suffix when their spelling is already taken.  One sweep collects the
    binders, the services and the occurring channels; as in
    `syntax.free_session_channels`, the free ones are the occurring
    names minus the bound ones, since binder ids are globally unique.
    """
    occurring: set[Name] = set()
    bound: list[Name] = []
    seen: set[Name] = set()
    services: set[str] = set()
    todo = [p]
    while todo:
        q = todo.pop()
        b = sx.binder(q)
        if b is not None and b[0] not in seen:
            seen.add(b[0])
            bound.append(b[0])
        match q:
            case sx.Serve(a, _, _) | sx.Accept(a, _, _) | sx.Request(a, _, _):
                services.add(a.base)
            case sx.SendSession(c, n, _):
                occurring.add(c)
                occurring.add(n)
            case sx.Receive(c, _, _) | sx.Send(c, _, _) | sx.Choose(c, _, _) \
                    | sx.ReceiveSession(c, _, _) | sx.Offer(c, _):
                occurring.add(c)
        todo.extend(reversed(sx.children(q)))
    free = occurring - seen
    taken = {n.base for n in free} | services
    names: dict[Name, str] = {n: n.base for n in free}
    for n in sorted(bound, key=lambda n: n.uid or 0):
        if n.base not in taken:
            names[n] = n.base
            taken.add(n.base)
            continue
        i = 1
        while f"{n.base}_{i}" in taken:
            i += 1
        names[n] = f"{n.base}_{i}"
        taken.add(names[n])
    return names


_LEVELS = {
    "or": 1, "and": 2,
    "=": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
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
            return f"-{print_expr(a, 7)}"
        case sx.Unop("not", a):
            s = f"not {print_expr(a, 4)}"
            return f"({s})" if level > 3 else s
        case sx.Binop(op, l, r):
            lv = _LEVELS[op]
            right_level = lv + 1  # left-assoc; comparisons are non-assoc
            s = f"{print_expr(l, lv)} {op} {print_expr(r, right_level)}"
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
                leaves: list[Process] = []
                todo = [p]
                while todo:
                    q = todo.pop()
                    if isinstance(q, sx.Par):
                        todo.append(q.right)
                        todo.append(q.left)
                    else:
                        leaves.append(q)
                return " | ".join(unit(x) for x in leaves)
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


def print_delta(delta: dict[Name, SessionType],
                 names: dict[Name, str] | None = None) -> str:
    def nm(n: Name) -> str:
        if names and n in names:
            return names[n]
        return n.base

    items = sorted(((nm(k), t) for k, t in delta.items()), key=lambda kv: kv[0])
    return ", ".join(f"{k} : {print_type(t)}" for k, t in items)
