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

Tokens.  The token texts are those that one `findall` of one pattern
finds, whose only group is the token, with the blanks, newlines and
comments in front of it taken into the same match.  `_lex` finds them
faster with `_split`, which cuts strings and comments out whole and
splits the rest at blanks after putting blanks around the symbols and
around each `"` left, which starts no string and is a token of its
own.  A text between blanks and symbols that is not one int or word,
as in `12ab` or `a@b`, is cut by the pattern, each distinct text once.
`_lex` returns two parallel lists: tags and texts.  A symbol's or
keyword's tag is its own text, looked up in a dict; identifiers, ints, strings and the end of input
are tagged `IDENT`, `INT`, `STRING` and `EOF`, which start with a
blank, so no token text equals them.  Each distinct text the dict does
not tag is looked at once, to tell identifiers, ints and strings
(whose escapes it applies) from a lexical error.  Offsets and lines
are not tracked: `_offsets` finds the tokens again when a
`ParseError` is built, and only then, and `position` turns an offset
into a line and a column.  `tokenize` gives all three lists.

Parser.  `_Parser` reads the lists by index.  `parse_proc` reads a
whole process in one loop on an explicit stack of the constructs still
open (`( … )`, the branches of an `if`, the arms of an offer), so
neither a long chain of prefixes nor deep nesting recurses.  It tells
each prefix head by comparing a slice of the tags with the head's
shape, and goes through a head's tokens one at a time only to raise the
error of the first that does not fit.  Expressions, payloads and the
options of branch and select types still recurse, once per level of
nesting.
"""
from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from itertools import chain
from typing import Callable, NamedTuple, NoReturn, TypeVar

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
_BASICS = {"int": sx.INT, "bool": sx.BOOL, "string": sx.STRING}

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
# layout, and the matches cover the text with no gap.  The symbols are
# most of the tokens, so they come first, in the order that `findall`
# runs fastest: those that start no longer symbol, then the longer ones,
# then '<', '>' and '!'.  They are `_SYMBOLS` again, and no symbol starts
# like an int, a word or a string, so the order does not change which
# token matches.
_STRING = r'"(?:[^"\\\n]|\\[nt"\\])*'
_TOKEN = re.compile(r"(?:[ \t\r\n]+|//[^\n]*)*(" + "|".join([
    r"[()\[\]{}?.,:;|*&+\-=/]", "<<|>>|!=|<=|>=|[<>!]",
    r"\d+", r"[\w#]\w*", f'{_STRING}"', r"\Z", r".",
]) + ")")
_STRING_PREFIX = re.compile(_STRING)
# `_split`: strings and comments, each cut out whole; the blanks that
# each symbol gets on both sides, and so does a `"` that starts no
# string, a token of its own; the two halves of a longer symbol,
# joined again where they touched, in the pattern's order, so '<<='
# is '<<' and '='; and what the pattern would match between blanks and
# symbols as one int or word
_PIECES = re.compile(f'({_STRING}"|//[^\\n]*)')
_SPACED = [(s, f" {s} ") for s in [*_SYMBOLS, '"'] if len(s) == 1]
_JOINED = [(f" {s[0]}  {s[1]} ", f" {s} ") for s in _SYMBOLS
           if len(s) == 2]
_ONE_TOKEN = re.compile(r"\d+|(?!\d)[\w#]\w*")
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


def _split(text: str) -> list[str]:
    """The texts of text's tokens, the last one "" for the end.  Between
    the strings and comments, a text may still hold what the pattern
    matches as several tokens."""
    pieces = _PIECES.split(text)
    texts: list[str] = []
    for k in range(0, len(pieces), 2):
        part = pieces[k]
        for a, b in _SPACED:
            if a in part:
                part = part.replace(a, b)
        for a, b in _JOINED:
            if a in part:
                part = part.replace(a, b)
        for a in "\t\r\n":
            if a in part:
                part = part.replace(a, " ")
        texts += filter(None, part.split(" "))
        if k + 1 < len(pieces) and pieces[k + 1][0] == '"':
            texts.append(pieces[k + 1])
    texts.append("")
    return texts


def _lex(text: str) -> tuple[list[str], list[str]]:
    """The tags and texts of text's tokens, the last one `EOF` (with
    text ""): `_split`, with each distinct text that is not one token
    cut by the pattern, then each distinct text tagged once, in the
    order of first use, so the first bad one raises; symbols, keywords
    and the end are tagged by their text."""
    texts = _split(text)
    kinds = dict.fromkeys(texts)
    # a text holds no layout, so the pattern's last match is the end
    cut = {word: _TOKEN.findall(word)[:-1] for word in kinds
           if not (word in _TAGS or word[0] == '"'
                   or _ONE_TOKEN.fullmatch(word))}
    if cut:
        texts = [t for word in texts for t in cut.get(word, (word,))]
        kinds = dict.fromkeys(texts)
    strings = {}  # each string's text, unquoted and unescaped
    for word in kinds:
        tag = _TAGS.get(word)
        if tag is None:
            c = word[0]
            if c.isalpha() or c in "_#" and word != "#":
                tag = IDENT
            elif c.isdecimal():
                tag = INT
            elif c == '"' and word != '"':
                tag, body = STRING, word[1:-1]
                strings[word] = (re.sub(r"\\(.)", lambda e: _ESCAPES[e[1]],
                                        body) if "\\" in body else body)
            else:
                raise _lex_error(text, _offsets(text)[texts.index(word)])
        kinds[word] = tag
    tags = list(map(kinds.__getitem__, texts))
    i = 0
    for _ in range(tags.count(STRING) if strings else 0):
        i = tags.index(STRING, i)
        texts[i] = strings[texts[i]]
        i += 1
    return tags, texts


def tokenize(text: str) -> tuple[list[str], list[str], list[int]]:
    """The tags, texts and offsets of text's tokens, the last one `EOF`
    (with text "")."""
    tags, texts = _lex(text)
    return tags, texts, _offsets(text)


# -------------------------------------------------------------------- parser

class Source(NamedTuple):
    """A parsed file: declared free channels, sort environment, process."""
    sessions: tuple[Name, ...]
    gamma: dict[str, Sort]
    process: Process


# A prefix read but not yet put around its continuation: the node's
# constructor, its one or two arguments before the continuation (the
# second None for `New`, which takes one), and the name it binds in the
# continuation (None if it binds none).
_Head = tuple[Callable[..., Process], object, object, "str | None"]

# The tags of a prefix head from the token after its first, compared
# with a slice of the tag list in one step; the identifiers among them
# are what `_Parser.fail` is told to read on a mismatch.
_RECEIVE = ["?", "(", IDENT, ")", "."]                    # k?(x).
_RECEIVE_SESSION = ["?", "(", "(", IDENT, ")", ")", "."]  # k?((k2)).
_DELEGATE = ["(", IDENT, ")", ")"]                        # k!((k2))
_CHOOSE = ["<<", IDENT, "."]                              # k << l.
_OFFER = [">>", "{", IDENT, ":"]                          # k >> {l:
_ACCEPT = ["(", IDENT, ")", "."]                          # a(k).
_REQUEST = ["<", IDENT, ">", "."]                         # a<k>.
_SERVE = [IDENT, "(", IDENT, ")", "."]                    # *a(k).
_PAYLOAD_END = ["]", "."]                                 # ?[int].
_CLOSE_SEND = [")", "."]                                  # k!(e).


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

    def fail(self, i: int, shape: list[str], *whats: str) -> NoReturn:
        """Raise the error of the first of shape's tags that the tokens
        from i on do not fit; runs only when a head's shape does not fit
        them.  The tokens are checked one at a time in order: a symbol
        or keyword through `expect`, an identifier through
        `expect_ident`, told what it is by the next of whats.  A name
        read before the mismatch can be the first error: a "service
        name" must name a service (`service_name`), and a "channel
        name" or "variable name" must be a name a binder may take
        (`_check_binder`)."""
        self.pos = i
        whats_left = iter(whats)
        for tag in shape:
            if tag != IDENT:
                self.expect(tag)
                continue
            what = next(whats_left)
            j = self.expect_ident(what)
            if what == "service name":
                self.service_name(j)
            elif what != "label":
                self._check_binder(j)
        raise AssertionError(f"the tokens at {i} fit {shape}")

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

    def arm_label(self, seen: dict[str, _T | None]) -> str:
        """`l:` in `{l: …, …}`, l not yet a key of seen, which it
        becomes (with the value None)."""
        i = self.expect_ident("label")
        label = self.texts[i]
        if label in seen:
            raise self.error(f"duplicate label {label!r}", i)
        seen[label] = None
        self.expect(":")
        return label

    def arms(self, body: Callable[[], _T]) -> list[tuple[str, _T]]:
        """`{l: body, ...}` with distinct labels."""
        out: dict[str, _T | None] = {}
        self.expect("{")
        while True:
            label = self.arm_label(out)
            out[label] = body()
            if self.tags[self.pos] != ",":
                break
            self.pos += 1
        self.expect("}")
        return list(out.items())

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
        p = self.finish(self.parse_proc(), "process")
        return Source(tuple(self.sessions.values()), dict(self.gamma), p)

    # -- types

    def parse_sort(self) -> Sort:
        if self.tags[self.pos] not in (*_BASICS, "<"):
            raise self.error(
                f"expected a sort, found {self.show(self.pos)}")
        return self.parse_payload()

    def parse_type(self) -> SessionType:
        """A chain of `?[…].` and `![…].` heads, read in a loop, and the
        type that ends it; only payloads and label options recurse.  A
        head with a basic payload is read by index."""
        tags = self.tags
        heads = []
        while (tag := tags[i := self.pos]) == "?" or tag == "!":
            make = sx.In if tag == "?" else sx.Out
            if (tags[i + 1] == "[" and tags[i + 2] in _BASICS
                    and tags[i + 3:i + 5] == _PAYLOAD_END):
                heads.append((make, _BASICS[tags[i + 2]]))
                self.pos = i + 5
                continue
            self.pos = i + 1
            self.expect("[")
            payload = self.parse_payload()
            self.expect("]")
            self.expect(".")
            heads.append((make, payload))
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
        if tag in _BASICS:
            self.pos += 1
            return _BASICS[tag]
        if tag == "<":
            self.pos += 1
            s = self.parse_type()
            self.expect(">")
            return sx.ServiceSort(s)
        return self.parse_type()

    # -- processes

    def parse_proc(self) -> Process:
        """Threads under `|`, each a chain of prefixes ended by `0`, a
        parenthesised process, an `if` or an offer.

        One loop on an explicit stack, so neither a long chain nor deep
        nesting recurses; only expressions do.  `heads` holds the
        prefixes read of the chain being read, and `left` the threads
        already read of the `|` it is in.  A `(`, an `if` or an offer
        pushes both, with what it needs of its own, and its end pops
        them.  A prefix head is told by comparing a slice of the tags
        with its shape, and only on a mismatch does `fail` check the
        tokens one at a time, to raise the error of the first that does
        not fit; once a shape fits, its binder goes through
        `_check_binder`.  The names a chain binds stay in scope until
        its end is read, and are popped in reverse; the chain is then
        put around its end from the innermost head out."""
        tags, texts = self.tags, self.texts
        chans, vars_ = self.chans, self.vars
        sessions, gamma = self.sessions, self.gamma
        services = {name: sx.svc(name) for name, sort in gamma.items()
                    if isinstance(sort, sx.ServiceSort)}
        # open constructs: ["(", heads, left], ["then", heads, left,
        # test] (then ["else", …, test, then]) and ["{", heads, left,
        # chan, arms, label], arms a dict from label to body
        stack: list[list] = []
        heads: list[_Head] = []
        left: Process | None = None
        i = self.pos
        # the loop ends: each pass reads at least one token, as every
        # `continue` and `break` below follows a step of i, and i never
        # passes `EOF`, which no pass accepts.  The inner loop that
        # closes constructs pops a frame of `stack` on each pass it does
        # not leave, and `stack` holds one frame per token read.
        while True:
            tag = tags[i]
            if tag == IDENT:
                name = texts[i]
                op = tags[i + 1]
                if op == "?" or op == "!" or op == "<<" or op == ">>":
                    chan = (chans.get(name) or sessions.get(name)
                            or self.session_name(i))
                    if op == "?":
                        if tags[i + 1:i + 6] == _RECEIVE:
                            self._check_binder(i + 3)
                            vars_.add(x := texts[i + 3])
                            heads.append((sx.Receive, chan, x, x))
                            i += 6
                        elif tags[i + 1:i + 8] == _RECEIVE_SESSION:
                            self._check_binder(i + 4)
                            bound = chans[b] = sx.bound_chan(b := texts[i + 4])
                            heads.append(
                                (sx.ReceiveSession, chan, bound, b))
                            i += 8
                        elif tags[i + 2:i + 4] == ["(", "("]:
                            self.fail(i + 1, _RECEIVE_SESSION, "channel name")
                        else:
                            self.fail(i + 1, _RECEIVE, "variable name")
                    elif op == "!":
                        if tags[i + 2] != "(":
                            self.fail(i + 2, ["("])
                        # k!((k2)).P delegates k2 when the double parens
                        # wrap one session channel; anything else is a
                        # parenthesised expression
                        if tags[i + 3:i + 7] == _DELEGATE and (
                                sent := chans.get(texts[i + 4])
                                or sessions.get(texts[i + 4])):
                            if tags[i + 7] != ".":
                                self.fail(i + 7, ["."])
                            heads.append((sx.SendSession, chan, sent, None))
                            i += 8
                        else:
                            # an atom before `).` is the whole expression,
                            # unless it is `not`, which `parse_atom` rejects
                            self.pos = i + 3
                            e = (self.parse_atom() if tags[i + 3] != "not"
                                 and tags[i + 4:i + 6] == _CLOSE_SEND
                                 else self.parse_expr())
                            i = self.pos
                            if tags[i:i + 2] != _CLOSE_SEND:
                                self.fail(i, _CLOSE_SEND)
                            heads.append((sx.Send, chan, e, None))
                            i += 2
                    elif op == "<<":
                        if tags[i + 1:i + 4] != _CHOOSE:
                            self.fail(i + 1, _CHOOSE, "label")
                        heads.append((sx.Choose, chan, texts[i + 2], None))
                        i += 4
                    else:
                        if tags[i + 1:i + 5] != _OFFER:
                            self.fail(i + 1, _OFFER, "label")
                        stack.append(["{", heads, left, chan,
                                      {texts[i + 3]: None}, texts[i + 3]])
                        heads, left = [], None
                        i += 5
                    continue
                if op == "(" or op == "<":  # accept a(k).P, request a<k>.P
                    service = services.get(name) or self.service_name(i)
                    shape = _ACCEPT if op == "(" else _REQUEST
                    if tags[i + 1:i + 5] != shape:
                        self.fail(i + 1, shape, "channel name")
                    self._check_binder(i + 2)
                    bound = chans[b] = sx.bound_chan(b := texts[i + 2])
                    heads.append((sx.Accept if op == "(" else sx.Request,
                                  service, bound, b))
                    i += 5
                    continue
                if name in chans or name in sessions:
                    raise self.error(
                        f"expected '?', '!', '>>' or '<<' after session"
                        f" channel {name!r}", i + 1)
                raise self.error(f"expected a process, found {name!r}", i)
            if tag == "new":
                while True:
                    if tags[i + 1] != IDENT:
                        self.fail(i + 1, [IDENT], "channel name")
                    self._check_binder(i + 1)
                    bound = chans[b] = sx.bound_chan(b := texts[i + 1])
                    heads.append((sx.New, bound, None, b))
                    i += 2
                    if tags[i] != ",":
                        break
                if tags[i] != ".":
                    self.fail(i, ["."])
                i += 1
                continue
            if tag == "*":
                if tags[i + 1:i + 6] != _SERVE:
                    self.fail(i + 1, _SERVE, "service name", "channel name")
                service = (services.get(texts[i + 1])
                           or self.service_name(i + 1))
                self._check_binder(i + 3)
                bound = chans[b] = sx.bound_chan(b := texts[i + 3])
                heads.append((sx.Serve, service, bound, b))
                i += 6
                continue
            if tag == "(":
                stack.append(["(", heads, left])
                heads, left = [], None
                i += 1
                continue
            if tag == "if":
                self.pos = i + 1
                test = self.parse_expr()
                i = self.pos
                if tags[i] != "then":
                    self.fail(i, ["then"])
                stack.append(["then", heads, left, test])
                heads = []
                i += 1
                continue
            if tag != INT:
                raise self.error(f"expected a process, found {self.show(i)}",
                                 i)
            if texts[i] != "0":
                raise self.error("expected a process", i)
            p: Process = sx.Stop()
            i += 1
            # p ends the chain in `heads`: put the chain around it, then
            # close what that ends, until a new chain starts
            while True:
                for make, first, second, binds in reversed(heads):
                    p = (make(first, second, p) if second is not None
                         else make(first, p))
                    if binds in chans:
                        del chans[binds]
                    elif binds is not None:
                        vars_.remove(binds)
                frame = stack[-1] if stack else None
                if frame is not None and frame[0] == "then":
                    if tags[i] != "else":
                        self.fail(i, ["else"])
                    frame[0] = "else"
                    frame.append(p)
                    heads = []
                    i += 1
                    break
                if frame is not None and frame[0] == "else":
                    _, heads, left, test, then = stack.pop()
                    p = sx.If(test, then, p)
                    continue
                # p is a thread of the `|` that `left` begins
                if tags[i] == "|":
                    left = p if left is None else sx.Par(left, p)
                    heads = []
                    i += 1
                    break
                if left is not None:
                    p = sx.Par(left, p)
                if frame is None:
                    self.pos = i
                    return p
                if frame[0] == "(":
                    if tags[i] != ")":
                        self.fail(i, [")"])
                else:  # the arm of an offer
                    arms = frame[4]
                    arms[frame[5]] = p
                    if tags[i] == ",":
                        self.pos = i + 1
                        frame[5] = self.arm_label(arms)
                        heads, left = [], None
                        i = self.pos
                        break
                    if tags[i] != "}":
                        self.fail(i, ["}"])
                    p = sx.Offer(frame[3], tuple(arms.items()))
                i += 1
                stack.pop()
                heads, left = frame[1], frame[2]

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
    return p.finish(p.parse_proc(), "process")


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
    # the loop ends: each pass pops one entry, a string pushes nothing,
    # and a term pushes strings and its own subterms, of the finite p
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
                while type(body) is sx.New:  # ends: down a finite chain
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


def spell(parts: Iterable[str | Name], names: dict[Name, str]) -> str:
    """The text of `pieces`, each name spelled by `names`, else by its
    own spelling: the one join of a thread's or a process's pieces."""
    return "".join([x if type(x) is str else names.get(x, x.base)
                    for x in parts])


def lay_out(binders: Sequence[str], threads: Sequence[str]) -> str:
    """The text of a normal form's process, as `pieces` lays it out,
    from its restrictions' spellings and its threads' texts: `0`, or
    `new a, b . (t1 | t2)`, parenthesised for two or more threads."""
    if not threads:
        return "0"
    body = " | ".join(threads)
    if not binders:
        return body
    if len(threads) > 1:
        body = f"({body})"
    return f"new {', '.join(binders)} . {body}"


def print_process(p: Process, names: dict[Name, str] | None = None) -> str:
    """p's `pieces`, spelled by `names` (by default p's `display_names`)."""
    return spell(pieces(p), display_names(p) if names is None else names)


def print_delta(delta: dict[Name, SessionType]) -> str:
    """A typing, by channel spelling: its keys are free channels, each
    spelled as itself."""
    items = sorted(((k.base, t) for k, t in delta.items()),
                   key=lambda kv: kv[0])
    return ", ".join(f"{k} : {print_type(t)}" for k, t in items)
