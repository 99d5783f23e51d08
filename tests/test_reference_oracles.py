"""Five functions as they read before `syntax.subject`, `syntax.facts`
and `congruence.occurrences` took over their node-name matches, their
sweeps for names and their occurrence scans, kept as oracles for the
rewritten ones.  `reference_binder`, `reference_subject`,
`reference_mentions`, `reference_children` and `reference_facts` are
the node readers and the sweep as they read before `syntax.SHAPES`
took over their `match` and `isinstance` chains (`reference_mentions`
is now read only by `reference_facts`, and `reference_binder`, with
`syntax.binder` gone, only by the other oracles).  `reference_display_names`
also keeps the suffix search that probes every suffix from 1 for each
binder.
`reference_tokenize` is the lexer as it read before tokens became
parallel lists of tags, texts and offsets: one match per blank, newline
or comment, and a line and column tracked for every token.
`reference_parse_source` parses with the process parser as it read
before one loop on an explicit stack took over: it recurses once per
`(`, `if` branch and offer arm, and reads each prefix head one token at
a time.
`reference_find_cycle` walks a dependency graph's edges, as
`depgraph.find_cycle` did before it read the occurrence index, and
`alpha_equivalent` compares two terms up to their bound names.
`reference_check` types a process by the rules `typecheck.check`
applies on its one explicit-stack walk, but with `reference_infer`,
which recurses once per prefix and builds every dual it unifies with:
of a service's session, afresh for every request, and of a thread's
type for a channel it shares with another."""
import bisect
import contextlib
import functools
import importlib.util
import itertools
import random
import re
import signal
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

import sessionpi.cli as cli
import sessionpi.congruence as cg
import sessionpi.depgraph as dg
import sessionpi.progress as pg
import sessionpi.semantics as sm
import sessionpi.surface as sf
import sessionpi.syntax as sx
import sessionpi.typecheck as tc
import strategies as S
from sessionpi.examples import SOURCES, load


def reference_binder(p):
    match p:
        case sx.New(c, body) | sx.ReceiveSession(_, c, body):
            return c, body
        case sx.Serve(_, c, body) | sx.Accept(_, c, body) \
                | sx.Request(_, c, body):
            return c, body
    return None


def reference_children(p):
    match p:
        case sx.Par(l, r):
            return (l, r)
        case sx.Offer(_, arms):
            return tuple(a for _, a in arms)
        case sx.If(_, t, e):
            return (t, e)
        case sx.Stop():
            return ()
        case sx.Process():
            return (p.body,)
    raise TypeError(f"not a process: {p!r}")


_SESSION_PREFIXES = (sx.Receive, sx.Send, sx.ReceiveSession, sx.SendSession,
                     sx.Offer, sx.Choose)
_SERVICE_PREFIXES = (sx.Serve, sx.Accept, sx.Request)


def reference_subject(p):
    if isinstance(p, _SERVICE_PREFIXES):
        return p.service
    if isinstance(p, _SESSION_PREFIXES):
        return p.chan
    return None


def reference_mentions(p):
    if isinstance(p, sx.SendSession):
        return (p.chan, p.sent)
    if isinstance(p, _SESSION_PREFIXES):
        return (p.chan,)
    return ()


def reference_facts(p):
    bound, services, mentioned = {}, set(), set()
    todo = [p]
    while todo:
        q = todo.pop()
        b = reference_binder(q)
        if b is not None:
            bound.setdefault(b[0])
        a = reference_subject(q)
        if a is not None and a.kind == sx.SERVICE:
            services.add(a)
        mentioned.update(reference_mentions(q))
        todo.extend(reversed(reference_children(q)))
    return sx.Facts(tuple(bound), frozenset(services), frozenset(mentioned))


def of_each_node(fn):
    """fn on every node of the term, in pre-order."""
    def each(p):
        out, todo = [], [p]
        while todo:
            q = todo.pop()
            out.append(fn(q))
            todo.extend(reversed(reference_children(q)))
        return out
    return each


def reference_free_session_channels(p):
    occurring, bound = set(), set()
    todo = [p]
    while todo:
        q = todo.pop()
        b = reference_binder(q)
        if b is not None:
            bound.add(b[0])
        match q:
            case sx.Receive(c, _, _) | sx.Send(c, _, _) | sx.Choose(c, _, _) \
                    | sx.ReceiveSession(c, _, _) | sx.Offer(c, _):
                occurring.add(c)
            case sx.SendSession(c, s, _):
                occurring.add(c)
                occurring.add(s)
        todo.extend(sx.children(q))
    return occurring - bound


def reference_display_names(p):
    occurring, bound, seen, services = set(), [], set(), set()
    todo = [p]
    while todo:
        q = todo.pop()
        b = reference_binder(q)
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
    names = {n: n.base for n in free}
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


def reference_ties(t):
    """The names that can tie thread t to another thread: its free
    session channels, and every service it serves, accepts or requests
    anywhere below its head."""
    names = reference_free_session_channels(t)
    todo = [t]
    while todo:
        q = todo.pop()
        match q:
            case sx.Serve(a, _, _) | sx.Accept(a, _, _) | sx.Request(a, _, _):
                names.add(a)
        todo.extend(sx.children(q))
    return names


def reference_redexes(p):
    threads = cg.normal_form(p).threads
    outputs = {}
    for j, tj in enumerate(threads):
        if isinstance(tj, sx.Request):
            outputs.setdefault(tj.service, []).append(j)
        elif isinstance(tj, (sx.Send, sx.SendSession, sx.Choose)):
            outputs.setdefault(tj.chan, []).append(j)
    out = []
    for i, ti in enumerate(threads):
        if isinstance(ti, (sx.Serve, sx.Accept)):
            subject = ti.service
        elif isinstance(ti, (sx.Receive, sx.ReceiveSession, sx.Offer)):
            subject = ti.chan
        else:
            r = sm._if_redex(i, ti)
            if r is not None:
                out.append(r)
            continue
        for j in outputs.get(subject, ()):
            r = sm._pair_redex(i, ti, j, threads[j])
            if r is not None:
                out.append(r)
    return out


def reference_canonical_key(p):
    nf = cg.normal_form(p)
    threads = nf.threads
    free = ([reference_free_session_channels(t) for t in threads]
            if nf.binders else [])
    occurring = set().union(*free)
    binders = [c for c in nf.binders if c in occurring]

    def collect(t, names, tag):
        todo = [t]
        while todo:
            q = todo.pop()
            b = reference_binder(q)
            if b is not None and b[0] not in names:
                names[b[0]] = tag(len(names))
            todo.extend(reversed(sx.children(q)))

    blind = {}
    for t in threads:
        start = len(blind)
        collect(t, blind, lambda i: f"#{i - start}")
    for c in binders:
        blind[c] = "#r"

    shown = [sf.print_process(t, blind) for t in threads]
    colours = min(1, len(binders))
    while len(set(shown)) < len(shown) and any(
            n > 1 and "#r" in s for s, n in Counter(shown).items()):
        sig = {c: (blind[c], *sorted(s for s, f in zip(shown, free)
                                     if c in f))
               for c in binders}
        ranks = {s: f"#r{i}" for i, s in enumerate(sorted(set(sig.values())))}
        if len(ranks) == colours:
            break
        colours = len(ranks)
        for c in binders:
            blind[c] = ranks[sig[c]]
        shown = [sf.print_process(t, blind) for t in threads]
    order = [threads[i] for i in sorted(range(len(threads)),
                                        key=shown.__getitem__)]

    numbered = {}
    for t in order:
        collect(t, numbered, lambda i: f"b{i}")
    for c in binders:
        numbered.setdefault(c, f"b{len(numbered)}")

    used = sorted({numbered[c] for c in binders})
    head = f"new {', '.join(used)} . " if used else ""
    return head + " | ".join(sf.print_process(t, numbered) for t in order)


def reference_find_cycle(g):
    """A cycle of the graph g as a `depgraph.Cycle`, or None: the edges
    are walked in order, and the first that closes a loop in the forest
    of the earlier ones gives the forest path between its ends."""
    root = {}

    def find(x):
        while root.setdefault(x, x) != x:
            x = root[x]
        return x

    forest = {}
    for u, v, c in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
            forest.setdefault(u, []).append((v, c))
            forest.setdefault(v, []).append((u, c))
            continue
        back = {u: None}  # breadth first from u, each node's way back
        queue = [u]
        for x in queue:
            for y, d in forest.get(x, ()):
                if y not in back:
                    back[y] = (x, d)
                    queue.append(y)
        nodes, chans = [v], []
        while nodes[-1] != u:
            x, d = back[nodes[-1]]
            nodes.append(x)
            chans.append(d)
        return dg.Cycle(tuple(reversed(nodes)), (*reversed(chans), c))
    return None


def alpha_equivalent(p, q):
    """Structural equality up to renaming of bound channels."""
    def names_eq(n, m, env):
        if n in env:
            return env[n] == m
        return n == m and m not in env.values()

    def go(p, q, env):
        match p, q:
            case sx.Stop(), sx.Stop():
                return True
            case sx.Par(a, b), sx.Par(c, d):
                return go(a, c, env) and go(b, d, env)
            case sx.New(n, b1), sx.New(m, b2):
                return go(b1, b2, env | {n: m})
            case (sx.Serve(a1, n, b1), sx.Serve(a2, m, b2)) | \
                    (sx.Accept(a1, n, b1), sx.Accept(a2, m, b2)) | \
                    (sx.Request(a1, n, b1), sx.Request(a2, m, b2)):
                return a1 == a2 and go(b1, b2, env | {n: m})
            case sx.Receive(c1, x1, b1), sx.Receive(c2, x2, b2):
                # expression variables are not renamed; require equality
                return names_eq(c1, c2, env) and x1 == x2 and go(b1, b2, env)
            case sx.Send(c1, e1, b1), sx.Send(c2, e2, b2):
                return names_eq(c1, c2, env) and e1 == e2 and go(b1, b2, env)
            case sx.ReceiveSession(c1, n, b1), sx.ReceiveSession(c2, m, b2):
                return names_eq(c1, c2, env) and go(b1, b2, env | {n: m})
            case sx.SendSession(c1, n1, b1), sx.SendSession(c2, n2, b2):
                return (names_eq(c1, c2, env) and names_eq(n1, n2, env)
                        and go(b1, b2, env))
            case sx.Offer(c1, arms1), sx.Offer(c2, arms2):
                if not names_eq(c1, c2, env) or len(arms1) != len(arms2):
                    return False
                return all(l1 == l2 and go(a1, a2, env)
                           for (l1, a1), (l2, a2) in zip(arms1, arms2))
            case sx.Choose(c1, l1, b1), sx.Choose(c2, l2, b2):
                return names_eq(c1, c2, env) and l1 == l2 and go(b1, b2, env)
            case sx.If(e1, t1, el1), sx.If(e2, t2, el2):
                return e1 == e2 and go(t1, t2, env) and go(el1, el2, env)
        return False

    return go(p, q, {})


def test_alpha_equivalent_ignores_binder_identity():
    k1, k2 = sx.bound_chan("k"), sx.bound_chan("j")
    p = sx.New(k1, sx.Send(k1, sx.IntLit(1), sx.Stop()))
    q = sx.New(k2, sx.Send(k2, sx.IntLit(1), sx.Stop()))
    assert alpha_equivalent(p, q)
    r = sx.New(k2, sx.Send(k2, sx.IntLit(2), sx.Stop()))
    assert not alpha_equivalent(p, r)


def test_alpha_equivalent_distinguishes_free_names():
    p = sx.Send(sx.chan("k"), sx.IntLit(1), sx.Stop())
    q = sx.Send(sx.chan("k2"), sx.IntLit(1), sx.Stop())
    assert not alpha_equivalent(p, q)


class Token(NamedTuple):
    kind: str  # "ident", "int", "string", "kw", "sym", "eof"
    text: str
    line: int
    col: int


_REFERENCE_STRING = r'"(?:[^"\\\n]|\\[nt"\\])*'
_REFERENCE_TOKEN = re.compile("|".join([
    r"(?P<nl>\n)", r"(?P<blank>[ \t\r]+)", r"(?P<comment>//[^\n]*)",
    r"(?P<int>\d+)", r"(?P<word>[\w#]\w*)",
    f'(?P<string>{_REFERENCE_STRING}")',
    "(?P<sym>" + "|".join(map(re.escape, sf._SYMBOLS)) + ")", r"(?P<bad>.)",
]))
_REFERENCE_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _reference_string_error(text, i, line, col):
    j = re.compile(_REFERENCE_STRING).match(text, i).end()
    if j + 1 < len(text) and text[j] == "\\" and text[j + 1] != "\n":
        return sf.ParseError(f"bad escape '\\{text[j + 1]}'", line,
                             col + j - i)
    return sf.ParseError("unterminated string", line, col)


def reference_tokenize(text):
    toks = []
    line, line_start = 1, 0
    m = None
    for m in _REFERENCE_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "nl":
            line, line_start = line + 1, m.end()
            continue
        if kind == "blank" or kind == "comment":
            continue
        word, col = m.group(), m.start() - line_start + 1
        if kind == "word":
            if word == "#":
                raise sf.ParseError("'#' must start a name", line, col)
            if not (word[0].isalpha() or word[0] in "_#"):
                kind, word = "bad", word[0]
            else:
                kind = "kw" if word in sf._KEYWORDS else "ident"
        elif kind == "string":
            word = word[1:-1]
            if "\\" in word:
                word = re.sub(r"\\(.)", lambda e: _REFERENCE_ESCAPES[e[1]],
                              word)
        if kind == "bad":
            if word == '"':
                raise _reference_string_error(text, m.start(), line, col)
            raise sf.ParseError(f"unexpected character {word!r}", line, col)
        toks.append(Token(kind, word, line, col))
    # a trailing comment does not count towards the end-of-input column
    end = m.start() if m and m.lastgroup == "comment" else len(text)
    toks.append(Token("eof", "", line, end - line_start + 1))
    return toks


_KINDS = {sf.IDENT: "ident", sf.INT: "int", sf.STRING: "string",
          sf.EOF: "eof"}


def lexed(text):
    """The tokens of text as (kind, text, line, col), or the lexer's
    error as (message, line, col)."""
    try:
        tags, texts, offs = sf.tokenize(text)
    except sf.ParseError as e:
        return (e.message, e.line, e.col)
    return [(_KINDS.get(tag) or ("kw" if tag in sf._KEYWORDS else "sym"),
             word, *sf.position(text, off))
            for tag, word, off in zip(tags, texts, offs)]


def reference_lexed(text):
    try:
        return [tuple(t) for t in reference_tokenize(text)]
    except sf.ParseError as e:
        return (e.message, e.line, e.col)


# Pieces that meet at the lexer's edge cases: comments, strings and
# escapes, line ends, blanks, '#', digits that are not decimal, words
# that are keywords, and symbols that are prefixes of longer ones.
_FRAGMENTS = st.sampled_from([
    "//", "/", '"', "\\", "\\n", "\\q", "\n", "\r", "\r\n", "\t", " ",
    "²", "½", "#", "#a", "@", "0", "12", "k", "_x", "k2", "end", "new",
    "sessions", "env", "if", "<", "<<", "<=", ">", ">>", ">=", "!", "!=",
    "?", "(", ")", "[", "]", ".", ",", ";", ":", "|", "*", "&", "+", "{",
    "}", "-", "=", "\x0c", "\xa0", "é",
])


@given(st.lists(_FRAGMENTS, max_size=12).map("".join))
@settings(max_examples=400)
# longer symbols that overlap, where the pattern takes the leftmost
# and, at one place, the first of `_SYMBOLS`
@example("k<<=>>=!==<<<!=<=<>=")
# texts between blanks and symbols that are several tokens, and a `"`
# that starts no string, before one that does
@example("12ab")
@example("a@b")
@example('"a\\q" + "ok"')
def test_tokenize_agrees_with_the_reference_on_fragments(text):
    assert lexed(text) == reference_lexed(text)


def test_split_finds_the_patterns_texts_on_files():
    # on these files every text `_split` gives is one token, so `_lex`
    # cuts none of them with the pattern
    texts = list(SOURCES.values())
    for text in bench_sources((1, 2)):
        texts += [text, text.replace(" ", "\t").replace("\n", "\r\n")]
    for text in texts:
        want = sf._TOKEN.findall(text)
        assert sf._split(text) == want[:want.index("") + 1]


def test_tokenize_agrees_with_the_reference_on_files():
    gen = S.bench_gen()
    texts = list(SOURCES.values())
    for seed in (1, 2):
        for workload in (gen.certify, gen.simulate, gen.refute):
            texts += [case.text for case in workload(seed)]
    for text in texts:
        assert lexed(text) == reference_lexed(text)


class ReferenceParser(sf._Parser):
    """The process parser as it read before one loop on an explicit
    stack took over: `parse_par`, `parse_unit`, `link` and `prefix`
    recurse once per `(`, `if` branch and offer arm, and read each head
    one token at a time through `expect` and `expect_ident`.  Session
    types and payloads are read as they were then, each payload a new
    `Basic`."""

    def arms(self, body):
        seen = set()

        def arm():
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

    def bind(self):
        i = self.expect_ident("channel name")
        self._check_binder(i)
        name = self.chans[self.texts[i]] = sx.bound_chan(self.texts[i])
        return name

    def bound_head(self, heads, make, first, close):
        name = self.bind()
        for text in close:
            self.expect(text)
        self.expect(".")
        heads.append((make, (first, name), name.base))

    def parse_type(self):
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

    def parse_payload(self):
        tag = self.tags[self.pos]
        if tag in ("int", "bool", "string"):
            self.pos += 1
            return sx.Basic(tag)
        if tag == "<":
            self.pos += 1
            s = self.parse_type()
            self.expect(">")
            return sx.ServiceSort(s)
        return self.parse_type()

    def parse_par(self):
        p = self.parse_unit()
        while self.tags[self.pos] == "|":
            self.pos += 1
            p = sx.Par(p, self.parse_unit())
        return p

    parse_proc = parse_par  # what `parse_source` calls

    def parse_unit(self):
        heads = []
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

    def link(self, heads):
        i = self.pos
        tag = self.tags[i]
        if tag == sf.IDENT:
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
        if tag == sf.INT:
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

    def prefix(self, heads):
        tags, texts = self.tags, self.texts
        i = self.pos
        j = self.pos = i + 1
        op = tags[j]
        if op == "(":
            service = self.service_name(i)
            self.pos += 1
            self.bound_head(heads, sx.Accept, service, ")")
            return None
        if op == "<":
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
            if tags[self.pos] == "(":
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
            k = self.pos
            if (tags[k] == "(" and tags[k + 1] == sf.IDENT
                    and tags[k + 2] == ")" and tags[k + 3] == ")"
                    and (texts[k + 1] in self.chans
                         or texts[k + 1] in self.sessions)):
                self.pos = k + 4
                self.expect(".")
                heads.append((sx.SendSession,
                              (chan, self.session_name(k + 1)), None))
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


def reference_parse_source(text):
    return ReferenceParser(text).parse_source()


def parsed(parse, text):
    """What parse makes of text: the source, or the error's message,
    line and column."""
    try:
        return parse(text)
    except sf.ParseError as e:
        return (e.message, e.line, e.col)


def assert_same_parse(text):
    """`surface.parse_source` agrees with the reference on text: the
    same declarations and a process equal up to its binders' identity
    that prints the same, or the same error.  Returns whether text
    parsed."""
    got = parsed(sf.parse_source, text)
    want = parsed(reference_parse_source, text)
    if not isinstance(want, sf.Source):  # a `Source` is a tuple too
        assert got == want, text
        return False
    assert isinstance(got, sf.Source), (got, text)
    assert (got.sessions, got.gamma) == (want.sessions, want.gamma), text
    assert alpha_equivalent(got.process, want.process), text
    assert (sf.print_process(got.process)
            == sf.print_process(want.process)), text
    return True


def token_mutants(rng, texts, n):
    """n texts, each one of texts with a change at one token of its
    process (after the last `;` and newline): the token dropped, or
    replaced by or preceded with a token of the fuzzing soup, or a run
    of one to eight tokens from it doubled.  The layout after a token
    goes with it."""
    for _ in range(n):
        text = rng.choice(texts)
        _, _, offs = sf.tokenize(text)
        offs.append(len(text))
        i = rng.randrange(bisect.bisect(offs, text.rfind(";\n")),
                          len(offs) - 1)
        a, b = offs[i], offs[i + 1]
        put = rng.choice(S.SOUP) + " "
        run = text[a:offs[min(i + rng.randint(1, 8), len(offs) - 1)]]
        yield rng.choice([text[:a] + text[b:], text[:a] + put + text[b:],
                          text[:a] + put + text[a:],
                          text[:a] + run + text[a:]])


# One of each construct `parse_proc` reads, under declarations that give
# each kind of name, and the tokens put in place of each of its tokens
_HEADS = ["k?(x).0", "k?((i)).i!(1).0", "k!((j)).0", "k!(v + 1).0",
          "k!(1).0", "k << l.0", "k >> {l: 0, m: k!(1).0}", "a(i).0",
          "a<i>.0", "*a(i).0", "new i, h . 0", "if v = 1 then 0 else 0",
          "(0 | k!(1).0) | 0", "k?(x).(0 | k!(x).0)"]
_STAND_INS = ["", ";", ".", ",", ":", "(", ")", "((", "{", "}", "<", ">",
              "?", "!", "<<", ">>", "|", "0", "1", "k", "j", "a", "v", "x",
              "l", "i", "#i", "not", "then", "else", "new"]


def broken_heads():
    """Each of `_HEADS` with one token replaced by each of
    `_STAND_INS`."""
    decls = "sessions k, j;\nenv a : <end>;\nenv v : int;\n"
    for head in _HEADS:
        _, _, offs = sf.tokenize(head)
        for a, b in zip(offs, offs[1:]):
            for put in _STAND_INS:
                yield f"{decls}{head[:a]} {put} {head[b:]}"


def test_parse_agrees_with_the_reference_on_broken_heads():
    ok = sum(map(assert_same_parse, broken_heads()))
    assert 50 < ok < 1_000  # most stand-ins break the head


def test_parse_agrees_with_the_reference_on_files():
    gen = S.bench_gen()
    texts = list(SOURCES.values())
    for seed in (1, 2):
        for workload in (gen.certify, gen.simulate, gen.refute):
            texts += [case.text for case in workload(seed)]
    assert all(assert_same_parse(text) for text in texts)


def test_parse_agrees_with_the_reference_on_mutated_sources():
    # one token of a sample, or of a thread of a small benchmark file
    # under the file's declarations, changed
    texts = list(SOURCES.values())
    for text in bench_sources((1, 2), scale=0.1):
        head, body = text.rsplit(";\n", 1)
        threads = body.split("\n| ")
        texts += [f"{head};\n{t}" for t in threads[:8]]
    rng = random.Random(22)
    ok = sum(map(assert_same_parse, token_mutants(rng, texts, 6_000)))
    assert 300 < ok < 5_700  # both the parse and the error paths ran


def test_parse_agrees_with_the_reference_on_token_soups():
    rng = random.Random(23)
    for i in range(2_000):
        soup = " ".join(rng.choice(S.SOUP) for _ in range(rng.randint(1, 12)))
        assert_same_parse(("sessions k;\nenv a : <?[int].end>;\n"
                           if i % 2 else "") + soup)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 10_000))
def test_parse_agrees_with_the_reference_on_printed_terms(seed):
    gamma, p = S.well_typed(random.Random(seed))
    free = sorted({c.base for c in sx.free_session_channels(p)})
    text = "".join([f"sessions {', '.join(free)};\n" if free else "",
                    *(f"env {name} : {sf.print_type(sort)};\n"
                      for name, sort in gamma.items()),
                    sf.print_process(p)])
    assert assert_same_parse(text)


def of_each_part(fn):
    """fn on the whole term and on each of its threads."""
    return lambda p: [fn(p)] + [fn(t) for t in cg.normal_form(p).threads]


def ties(t):
    return cg._row(t).ties


PAIRS = {
    "free_session_channels": (of_each_part(sx.free_session_channels),
                              of_each_part(reference_free_session_channels)),
    "ties": (of_each_part(ties), of_each_part(reference_ties)),
    "display_names": (sf.display_names, reference_display_names),
    "redexes": (sm.redexes, reference_redexes),
    "canonical_key": (cg.canonical_key, reference_canonical_key),
    "subject": (of_each_node(sx.subject), of_each_node(reference_subject)),
    "children": (of_each_node(sx.children), of_each_node(reference_children)),
    "facts": (of_each_part(sx.facts), of_each_part(reference_facts)),
    # rebuilt around its own children, a node comes back equal
    "rebuild": (of_each_node(lambda q: sx.rebuild(q, sx.children(q))),
                of_each_node(lambda q: q)),
}
# the node readers are also checked on every benchmark file
NODE_READERS = ("subject", "children", "facts", "rebuild")


def same_spelling_servers(n):
    """`*a0(k).k?(x).0 | ... | *a{n-1}(k).k?(x).0`: n binders spelled k."""
    def server(i):
        k = sx.bound_chan("k")
        return sx.Serve(sx.svc(f"a{i}"), k, sx.Receive(k, "x", sx.Stop()))

    return functools.reduce(sx.Par, [server(i) for i in range(n)])


@functools.cache
def corpus_states():
    """Every state `explore` reaches in 3 steps from a sample, every
    state of the default run of each `simulate(1, scale=0.3)` file, and
    2,000 servers whose binders share one spelling."""
    out = [q for name in SOURCES
           for q, _ in sm.explore(load(name).process, 3)]
    for case in S.bench_gen().simulate(1, scale=0.3):
        out += sm.trace(sf.parse_source(case.text).process, 1000).states()
    return [q.process() for q in out] + [same_spelling_servers(2000)]


@functools.cache
def bench_terms():
    """The processes of the `certify`, `simulate` and `refute` files of
    the benchmark's seeds 1 and 2."""
    gen = S.bench_gen()
    return [sf.parse_source(case.text).process for seed in (1, 2)
            for workload in (gen.certify, gen.simulate, gen.refute)
            for case in workload(seed)]


@pytest.mark.parametrize("name", PAIRS)
def test_rewritten_functions_agree_with_the_reference(name):
    new, reference = PAIRS[name]
    terms = corpus_states()
    if name in NODE_READERS:
        terms = terms + bench_terms()
    for p in terms:
        assert new(p) == reference(p), sf.print_process(p)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10_000))
    def generated(seed):
        rng = random.Random(seed)
        for p in (S.well_typed(rng)[1], S.cyclic(rng), S.typed_cycles(rng)[1]):
            assert new(p) == reference(p), sf.print_process(p)

    generated()


def test_canonical_key_sweeps_each_thread_once_per_table(monkeypatch,
                                                          tmp_path):
    # one `syntax.facts` sweep per distinct thread object and table: a
    # call without a table makes its own, and a shared table sweeps a
    # thread it has seen in an earlier state never again
    calls = [0]
    real = sx.facts

    def counted(p):
        calls[0] += 1
        return real(p)

    monkeypatch.setattr(sx, "facts", counted)
    states = [cg.normal_form(p) for p in corpus_states()]
    for nf in states:
        calls[0] = 0
        cg.canonical_key(nf)
        distinct = len({id(t) for t in nf.threads})
        assert calls[0] == distinct, sf.print_process(nf.process())
    table = {}
    calls[0] = 0
    for nf in states:
        cg.canonical_key(nf, table)
    assert calls[0] == len(table)
    for nf in states:
        cg.canonical_key(nf, table)
    assert calls[0] == len(table)

    # in one `run`, `run --all` or `progress` call, keys, prints and the
    # search sweep a thread object only through its row, once; `run
    # --all` prints from the rows that keyed its states.  The graph's
    # occurrence index and a witness's names are swept on their own.
    swept = calls_by_caller(monkeypatch, "facts", sx)
    for argv in cli_calls(tmp_path):
        swept.clear()
        assert cli.main(argv) in (0, 1), argv
        rowed = [p for caller, p in swept if caller == "_row"]
        assert rowed and len({id(p) for p in rowed}) == len(rowed), argv
        assert {caller for caller, _ in swept} <= {
            "_row", "free_session_channels", "display_names"}, argv


def calls_by_caller(monkeypatch, name, *modules):
    """Patch the function `name` of the first module, in every one of
    `modules` that holds it, to record each call as the name of the
    calling function (a comprehension counts as the function it is in)
    and the first argument; returns the records, which keep the
    arguments alive, so their ids stay distinct."""
    real = getattr(modules[0], name)
    calls = []

    def recorded(p, *rest):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        calls.append((frame.f_code.co_name, p))
        return real(p, *rest)

    for m in modules:
        if getattr(m, name, None) is real:
            monkeypatch.setattr(m, name, recorded)
    return calls


def cli_calls(tmp_path):
    """A `run`, a `run --all`, a `progress` search of many states that
    finds nothing, and a `progress` call that prints a counterexample."""
    cycles = tmp_path / "cycles.spi"
    cycles.write_text("sessions a0, b0, a1, b1, a2, b2;\n" + " | ".join(
        f"a{i}!({i}).b{i}!(7).0 | a{i}?(x).b{i}?(y).0" for i in range(3)))
    samples = Path(__file__).parents[1] / "samples"
    return [["run", "--steps", "20", str(samples / "buyer_seller.spi")],
            ["run", "--all", "--steps", "8",
             str(samples / "buyer_seller.spi")],
            ["progress", str(cycles)],
            ["progress", str(samples / "blocked_delegation.spi")]]


def keys_checked_against_the_reference(monkeypatch):
    """Make every `canonical_key` call assert that its key is the
    reference's; read the list of tables the calls were given."""
    real = cg.canonical_key
    tables = []

    def checked(p, table=None):
        key = real(p, table)
        assert key == reference_canonical_key(p), key
        if not any(table is t for t in tables):
            tables.append(table)
        return key

    monkeypatch.setattr(cg, "canonical_key", checked)
    return tables


def test_keys_from_a_shared_table_are_the_reference_keys(monkeypatch):
    # one table per search and per `explore` run, shared by every state
    # it reaches; the keys must be the reference's byte for byte
    tables = keys_checked_against_the_reference(monkeypatch)

    def one_table(run):
        tables.clear()
        run()
        assert len(tables) <= 1 and None not in tables

    for name in SOURCES:
        src = load(name)
        one_table(lambda: pg.check_progress(src.gamma, src.process))
        one_table(lambda: list(sm.explore(src.process, 4)))
    for seed in (1, 2, 3):
        for case in S.bench_gen().refute(seed):
            src = sf.parse_source(case.text)
            one_table(lambda: pg.check_progress(src.gamma, src.process))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000))
    def generated(seed):
        gamma, p = S.typed_cycles(random.Random(seed))
        one_table(lambda: pg.check_progress(gamma, p, depth=6))
        one_table(lambda: list(sm.explore(p, 3)))

    generated()


def test_row_fills_keep_names_in_text_order_and_literals_literal():
    # an offer prints its arms before its own channel, and its arms bind
    # and use other names; string literals hold what a format template
    # would be made of: newlines, braces and field numbers
    k, m, n = sx.bound_chan("k"), sx.bound_chan("m"), sx.bound_chan("n")
    j = sx.chan("j")
    texts = ["\n0\n", "{0}", "{", "}}", "\n{1}\n", "%s", "\x00", "\\n"]
    offer = sx.Offer(k, (
        ("l", sx.New(m, sx.Send(m, sx.StrLit(texts[0]),
                                sx.Send(j, sx.StrLit(texts[1]), sx.Stop())))),
        ("r", sx.ReceiveSession(k, n, sx.Send(n, sx.StrLit(texts[4]),
                                              sx.Stop())))))
    threads = [
        offer,
        sx.Send(k, sx.StrLit("".join(texts)), sx.Choose(k, "l", sx.Stop())),
        sx.Receive(j, "x", sx.Send(k, sx.StrLit(texts[2] + texts[3]),
                                   sx.Stop())),
    ]
    for t in threads:
        row = cg._row(t)
        spelt = {c for c in row.pieces if type(c) is sx.Name}
        for names in (sf.display_names(t), {}, {c: f"{{{c.base}}}\n"
                                                for c in spelt}):
            assert cg.spell(row.pieces, names) == sf.print_process(t, names)
    states = [
        functools.reduce(sx.Par, threads),
        sx.New(k, functools.reduce(sx.Par, threads)),
        sx.New(k, sx.New(j, sx.Par(threads[0], threads[0]))),
        sx.New(j, functools.reduce(sx.Par, threads[::-1])),
    ]
    table = {}
    for p in states:
        assert cg.canonical_key(p, table) == reference_canonical_key(p)
        assert cg.canonical_key(p) == reference_canonical_key(p)
    assert len(table) == len(threads)


# ------------------------------------------------------------------ typing

def reference_unify(a, b, flip=False):
    """`typecheck.unify` as it read before its flag: where a dual is
    wanted it is given one built, and it meets a `DualOpen` by unifying
    its base with a dual it builds of the other side.  (`_os_close_to`
    passes on its own flag, which is never set here.)"""
    assert not flip
    while True:
        ta = type(a)
        if ta is type(b):
            if ta is sx.Out or ta is sx.In:
                rtc.unify_payload(a.payload, b.payload)
                a, b = a.then, b.then
                continue
            if ta is sx.End:
                return
        a, b = rtc.walk(a), rtc.walk(b)
        if a is b:
            return
        if isinstance(a, rtc.TVar):
            rtc.bind(a, b)
            return
        if isinstance(b, rtc.TVar):
            rtc.bind(b, a)
            return
        match a, b:
            case sx.End(), sx.End():
                return
            case (sx.In(), sx.In()) | (sx.Out(), sx.Out()):
                continue
            case (sx.BranchT(o1), sx.BranchT(o2)) | \
                    (sx.SelectT(o1), sx.SelectT(o2)):
                if [l for l, _ in o1] != [l for l, _ in o2]:
                    raise tc.TypingError(f"label sets differ: {rtc.show(a)} "
                                         f"vs {rtc.show(b)}")
                for (_, x), (_, y) in zip(o1, o2):
                    reference_unify(x, y)
                return
            case rtc.OpenSel(), rtc.OpenSel():
                rtc._os_union(a, b)
                return
            case rtc.OpenSel(), sx.SelectT(_):
                rtc._os_close_to(a, b)
                return
            case sx.SelectT(_), rtc.OpenSel():
                rtc._os_close_to(b, a)
                return
            case (rtc.OpenSel(), rtc.DualOpen()) | \
                    (rtc.DualOpen(), rtc.OpenSel()):
                pass  # a select is never a branch
            case (rtc.DualOpen(base), _):
                a, b = base, rtc.dual(b)
                continue
            case (_, rtc.DualOpen(base)):
                a, b = base, rtc.dual(a)
                continue
        raise tc.TypingError(
            f"cannot unify {rtc.show(a)} with {rtc.show(b)}")


def reference_typecheck():
    """A second copy of `typecheck`, whose functions call
    `reference_unify` wherever they unify (`join`, `unify_sort`, open
    selects) and raise `typecheck.TypingError`.  It has solver types of
    its own, so the reference never meets the flag on `unify`."""
    spec = importlib.util.find_spec("sessionpi.typecheck")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.unify, module.TypingError = reference_unify, tc.TypingError
    return module


rtc = reference_typecheck()


def reference_service_session(env, a, rule, at):
    sort = env.get(a.base)
    if sort is None:
        raise rtc._err(rule, at, f"service {a.base} has no declared sort")
    if not isinstance(sort, sx.ServiceSort):
        raise rtc._err(rule, at, f"{a.base} is not a service (its sort is "
                                f"{rtc.show(sort)})")
    return sort.session


def reference_compose_into(out, d2):
    """`typecheck._compose_into` as it read before `unify` took a flag:
    a channel both sides use is unified with the dual built of the
    second side's type."""
    for k, t2 in d2.items():
        if k not in out:
            out[k] = t2
            continue
        t1 = out[k]
        if (isinstance(rtc.walk(t1), sx.Bot)
                or isinstance(rtc.walk(t2), sx.Bot)):
            raise rtc.TypingError(
                f"channel {k.base} is already used on both sides")
        try:
            reference_unify(t1, rtc.dual(t2))
        except rtc.TypingError as e:
            raise rtc.TypingError(
                f"parallel threads disagree on channel {k.base}: {e}") from e
        out[k] = sx.Bot()


def reference_infer(env, p, relax):
    """`typecheck._infer` as it read before its explicit stack,
    recursing once per prefix: every body is inferred bottom-up, then
    unified with its service's declared session or its dual.  Both
    duals it needs, of a request's session and of one thread's type for
    a channel two threads share, are built and then unified, where
    `typecheck` reads them in place."""
    match p:
        case sx.Stop():
            return {}
        case sx.Par(_, _):
            # flatten so that wide compositions neither recurse deeply
            # nor copy the accumulated typing once per thread
            acc = {}
            for leaf in sx.par_leaves(p):
                d = reference_infer(env, leaf, relax)
                try:
                    reference_compose_into(acc, d)
                except rtc.TypingError as e:
                    raise rtc._err("T-Par", p, str(e)) from e
            return acc
        case sx.New(c, body):
            d = reference_infer(env, body, relax)
            t = d.pop(c, sx.End())
            if isinstance(rtc.walk(t), sx.Bot) or rtc._ends(t):
                return d
            raise rtc._err(
                "T-Res", p,
                f"restricted channel {c.base} is left at {rtc.show(t)}; "
                "both endpoints must run to completion")
        case sx.Serve(a, c, body) | sx.Accept(a, c, body):
            rule = "T-RServ" if isinstance(p, sx.Serve) else "T-Serv"
            s = reference_service_session(env, a, rule, p)
            d = reference_infer(env, body, relax)
            t = rtc._pop_cont(d, c, rule, p)
            try:
                reference_unify(t, s)
            except rtc.TypingError as e:
                raise rtc._err(rule, p, f"body of {a.base}: {e}") from e
            if relax:
                return d
            # the body may mention outer channels only at end
            open_left = sorted(k.base for k, t2 in d.items()
                               if not rtc._ends(t2))
            if open_left:
                raise rtc._err(rule, p,
                              f"body uses open session {', '.join(open_left)}")
            return {}
        case sx.Request(a, c, body):
            s = reference_service_session(env, a, "T-Req", p)
            d = reference_infer(env, body, relax)
            t = rtc._pop_cont(d, c, "T-Req", p)
            try:
                reference_unify(t, rtc.dual(s))
            except rtc.TypingError as e:
                raise rtc._err("T-Req", p, str(e)) from e
            return d
        case sx.Receive(c, x, body):
            # x is bound in the one dict and unbound after: a copy per
            # receive would keep one dict per level of nesting alive
            sv = rtc.SVar()
            outer = env.pop(x, None)
            env[x] = sv
            try:
                d = reference_infer(env, body, relax)
            finally:
                if outer is None:
                    del env[x]
                else:
                    env[x] = outer
            cont = rtc._pop_cont(d, c, "T-In", p)
            d[c] = sx.In(sv, cont)
            return d
        case sx.Send(c, e, body):
            try:
                s = rtc.type_expr(env, e)
            except rtc.TypingError as err:
                raise rtc._err("T-Out", p, str(err)) from err
            d = reference_infer(env, body, relax)
            cont = rtc._pop_cont(d, c, "T-Out", p)
            d[c] = sx.Out(s, cont)
            return d
        case sx.ReceiveSession(c, n, body):
            d = reference_infer(env, body, relax)
            beta = d.pop(n, sx.End())
            if isinstance(rtc.walk(beta), sx.Bot):
                raise rtc._err(
                    "T-InS", p,
                    f"received channel {n.base} is closed on both ends "
                    "inside the receiving process")
            cont = rtc._pop_cont(d, c, "T-InS", p)
            d[c] = sx.In(beta, cont)
            return d
        case sx.SendSession(c, n, body):
            if n == c:
                raise rtc._err("T-Del", p,
                              f"channel {c.base} cannot delegate itself")
            d = reference_infer(env, body, relax)
            if n in d:
                raise rtc._err(
                    "T-Del", p,
                    f"delegated channel {n.base} is still used by the "
                    "continuation")
            beta = rtc.tvar_pair()
            cont = rtc._pop_cont(d, c, "T-Del", p)
            d[c] = sx.Out(beta, cont)
            d[n] = beta
            return d
        case sx.Offer(c, arms):
            ds = []
            pairs = []
            for label, arm in arms:
                d = reference_infer(env, arm, relax)
                t = d.pop(c, sx.End())
                if isinstance(rtc.walk(t), sx.Bot):
                    raise rtc._err(
                        "T-Bra", p,
                        f"channel {c.base} is closed inside its own "
                        f"arm {label!r}")
                ds.append(d)
                pairs.append((label, t))
            if len({l for l, _ in pairs}) != len(pairs):
                raise rtc._err("T-Bra", p, "duplicate labels offered")
            try:
                out = rtc.join(ds)
            except rtc.TypingError as e:
                raise rtc._err("T-Bra", p, str(e)) from e
            out[c] = sx.BranchT(tuple(sorted(pairs, key=lambda kv: kv[0])))
            return out
        case sx.Choose(c, label, body):
            d = reference_infer(env, body, relax)
            cont = rtc._pop_cont(d, c, "T-Sel", p)
            d[c] = rtc.OpenSel({label: cont})
            return d
        case sx.If(e, th, el):
            try:
                rtc.unify_sort(rtc.type_expr(env, e), sx.BOOL)
            except rtc.TypingError as err:
                raise rtc._err("T-Cond", p, str(err)) from err
            d1 = reference_infer(env, th, relax)
            d2 = reference_infer(env, el, relax)
            try:
                return rtc.join([d1, d2])
            except rtc.TypingError as e:
                raise rtc._err("T-Cond", p, str(e)) from e
    raise rtc.TypingError(f"not a process: {p!r}")


def reference_check(gamma, p, relax_services=False):
    d = reference_infer(dict(gamma), p, relax_services)
    return {k: rtc.resolve(t) for k, t in d.items()}


def typing(check, gamma, p, relax=False):
    """check's typing of p as its printed entries in order, or the text
    of its error."""
    try:
        d = check(gamma, p, relax_services=relax)
    except tc.TypingError as e:
        return str(e)
    return [(k, sf.print_type(t)) for k, t in d.items()]


def assert_same_typing(gamma, p):
    """Assert that `check` and the reference give p the same typing or
    error, strict and relaxed; return the strict one."""
    for relax in (True, False):
        got = typing(tc.check, gamma, p, relax)
        assert got == typing(reference_check, gamma, p, relax), \
            (relax, sf.print_process(p))
    return got


def bench_sources(seeds, scale=1.0):
    gen = S.bench_gen()
    return [case.text for seed in seeds
            for workload in (gen.certify, gen.simulate, gen.refute)
            for case in workload(seed, scale)]


def test_check_agrees_with_the_reference_on_files():
    # the samples, each state within 3 steps of them, and the
    # benchmark's files of seeds 1 to 3
    for name in SOURCES:
        src = load(name)
        for q, _ in sm.explore(src.process, 3):
            assert_same_typing(src.gamma, q.process())
    for text in bench_sources((1, 2, 3)):
        src = sf.parse_source(text)
        assert_same_typing(src.gamma, src.process)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 10_000))
def test_check_agrees_with_the_reference_on_generated_terms(seed):
    rng = random.Random(seed)
    for gamma, p in (S.well_typed(rng), S.transparent(rng),
                     S.irreducible_live(rng), S.program(rng),
                     S.typed_cycles(rng), ({}, S.cyclic(rng))):
        assert_same_typing(gamma, p)


def test_check_agrees_with_the_reference_on_hand_built_terms():
    # terms the parser cannot produce, each ending in an error of the
    # inference walk: a received service value requested by its name, a
    # declared session with no dual (which a request reads flipped, and
    # the reference builds), and a body that is not a process
    k, j = sx.bound_chan("k"), sx.bound_chan("j")
    a, z = sx.svc("a"), sx.svc("z")
    passes = {"a": sx.ServiceSort(sx.In(sx.ServiceSort(sx.End()), sx.End()))}
    broken = {"a": sx.ServiceSort(sx.Out(sx.INT, sx.Bot()))}
    for gamma, p in (
            (passes, sx.Serve(a, k, sx.Receive(
                k, "z", sx.Request(z, j, sx.Stop())))),
            (broken, sx.Request(a, k, sx.Receive(k, "x", sx.Stop()))),
            (broken, sx.Serve(a, k, sx.Send(k, sx.IntLit(1), sx.Stop()))),
            ({"a": sx.ServiceSort(sx.End())}, sx.Serve(a, k, "0"))):
        assert_same_typing(gamma, p)


def mutated(rng, t):
    """t with one node changed, chosen in pre-order: inputs and outputs
    swapped, `int` and `bool` swapped, a label dropped or renamed, an
    offer turned into a selection or back, or the node cut to `end`."""
    size = 0
    todo = [t]
    while todo:
        u = todo.pop()
        size += 1
        match u:
            case sx.In(a, b) | sx.Out(a, b):
                todo += (a, b)
            case sx.BranchT(opts) | sx.SelectT(opts):
                todo += [a for _, a in opts]
            case sx.ServiceSort(s):
                todo.append(s)
    at = rng.randrange(size)

    def change(u):
        match u:
            case sx.In(a, b):
                return rng.choice([sx.Out(a, b), sx.End(), b])
            case sx.Out(a, b):
                return rng.choice([sx.In(a, b), sx.End(), b])
            case sx.Basic("int"):
                return sx.BOOL
            case sx.Basic(_):
                return sx.INT
            case sx.BranchT(opts) | sx.SelectT(opts):
                (l, a), *rest = rng.sample(opts, len(opts))
                other = sx.SelectT if type(u) is sx.BranchT else sx.BranchT
                return rng.choice([
                    type(u)(tuple(sorted(rest))) if rest else sx.End(),
                    type(u)(tuple(sorted([("zz", a), *rest]))),
                    other(opts), sx.End()])
            case sx.ServiceSort(s):
                return rng.choice([sx.INT, sx.ServiceSort(sx.End())])
        return sx.Out(sx.INT, u)

    def go(u):
        nonlocal at
        at -= 1
        if at == -1:
            return change(u)
        match u:
            case sx.In(a, b) | sx.Out(a, b):
                a = go(a)
                return type(u)(a, go(b))
            case sx.BranchT(opts) | sx.SelectT(opts):
                return type(u)(tuple((l, go(a)) for l, a in opts))
            case sx.ServiceSort(s):
                return sx.ServiceSort(go(s))
        return u

    return go(t)


def test_check_agrees_with_the_reference_on_mutated_sources():
    # one env declaration of a source changed at one place, which the
    # serves and accepts of that service unify with and its requests
    # unify with flipped; a text that no longer parses is skipped.
    # The sources are the samples, and each thread of the benchmark's
    # files that names a service, under its file's declarations.
    texts = [t for t in SOURCES.values() if "\nenv " in t]
    for text in bench_sources((1, 2, 3), scale=0.1):
        head, body = text.rsplit(";\n", 1)
        names = re.findall(r"^env (\S+) :", head, re.M)
        texts += [f"{head};\n{t}" for t in body.split("\n| ")
                  if any(n in t for n in names)]
    rng = random.Random(19)
    checked = errors = 0
    while checked < 6_000:
        text = rng.choice(texts)
        head, body = text.rsplit(";\n", 1)
        name, sort = rng.choice([d for d in re.findall(
            r"^env (\S+) : (.*?);?$", head, re.M) if d[0] in body])
        sort = sf.parse_source(f"env x : {sort};\n0").gamma["x"]
        new = sf.print_type(mutated(rng, sort))
        text = re.sub(rf"^env {re.escape(name)} : .*;$",
                      f"env {name} : {new};", text, flags=re.M)
        try:
            src = sf.parse_source(text)
        except sf.ParseError:
            continue
        checked += 1
        errors += isinstance(assert_same_typing(src.gamma, src.process), str)
    assert errors > 4_000  # most changes make the thread ill-typed


def small_threads(depth=2, c="c"):
    """Every thread on channel c of at most `depth` levels over `0`, a
    level being `c!(1)`, `c?(x)`, `c << go`, `c << stop`, or an offer
    of `go`, or of `go` and `stop`: 7 threads at depth 1 and 85 at
    depth 2.  Each level names its received value apart (`x1`, `x2`),
    since names may not be bound again in their own scope."""
    level = ["0"]
    for i in range(1, depth + 1):
        level = ["0", *(f"{head}.{t}" for head in (
                            f"{c}!(1)", f"{c}?(x{i})", f"{c} << go",
                            f"{c} << stop")
                        for t in level),
                 *(f"{c} >> {{go: {t}}}" for t in level),
                 *(f"{c} >> {{go: {t}, stop: {u}}}"
                   for t in level for u in level)]
    return level


class Overtime(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds):
    """Raise `Overtime` in the block once it has run for `seconds`, so
    that a loop that never ends fails instead of blocking the suite."""
    def expire(signum, frame):
        raise Overtime(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_check_agrees_with_the_reference_on_all_pairs_of_small_threads():
    # two selections on c made `unify` loop for ever, in `check` and the
    # reference alike; every pair must now get its typing or error
    threads = [sf.parse_process(t, ("c",)) for t in small_threads()]
    assert len(threads) == 85
    typed = 0
    with deadline(120):
        for p in threads:
            for q in threads:
                typed += isinstance(assert_same_typing({}, sx.Par(p, q)),
                                    list)
    assert 0 < typed < 85 * 85


# sessions to declare for `a`: each type of a one-level thread, and
# types that send or receive one of those
SMALL_SESSIONS = ["end", "![int].end", "?[int].end", "+{go: end}",
                  "+{go: end, stop: end}", "&{go: end}",
                  "&{go: end, stop: end}"]
SMALL_SESSIONS += [f"{head}[{t}].end" for head in "!?"
                   for t in SMALL_SESSIONS[3:]]


def test_check_agrees_with_the_reference_on_delegations_and_requests():
    # `unify` reads a delegated channel's variable as its mate, and a
    # request's session as its dual, without building either.  Every
    # order of three threads: one delegating d on c, one receiving it
    # there and selecting or offering on it, and one using d.  And on
    # each small declared session, requests of one and two levels
    # alone, in pairs and beside a serve, and requests that receive or
    # delegate a session.
    ones = {c: small_threads(1, c) for c in "cdek"}
    texts = [f"sessions c, d; {' | '.join(order)}"
             for t in ones["c"] for w in small_threads(2, "e")
             for u in ones["d"]
             for order in itertools.permutations(
                 (f"c!((d)).{t}", f"c?((e)).{w}", u))]
    for s in SMALL_SESSIONS:
        head = f"sessions d; env a : <{s}>;\n"
        texts += [head + f"a<k>.{t}" for t in small_threads(2, "k")]
        texts += [head + f"{x}.{t} | a<k>.{u}" for x in ("a<k>", "*a(k)")
                  for t in ones["k"] for u in ones["k"]]
        texts += [head + f"a<k>.k?((e)).{w}" for w in ones["e"]]
        texts += [head + order for u in ones["d"] for order in (
            f"a<k>.k!((d)).0 | {u}", f"{u} | a<k>.k!((d)).0")]
    typed = 0
    with deadline(120):
        for text in texts:
            src = sf.parse_source(text)
            typed += isinstance(assert_same_typing(src.gamma, src.process),
                                list)
    assert 0 < typed < len(texts)


def test_dual_and_unify_calls_on_the_certify_files_do_not_grow(monkeypatch):
    # on the `certify` files of seed 1, every service body is inferred
    # and unified with its declared session, which a request reads as
    # its dual in place, as a composition reads one thread's type; the
    # `dual` calls left store a dual in a variable's mate or an open
    # select's labels.  `reference_check`, which builds every dual it
    # unifies with, makes 2,888 `dual` calls here.  Each call counts,
    # recursive ones too.
    sources = [sf.parse_source(case.text)
               for case in S.bench_gen().certify(1)]
    counts = Counter()
    for name in ("dual", "unify"):
        real = getattr(tc, name)

        def counted(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(tc, name, counted)
    for src in sources:
        tc.check(src.gamma, src.process)
    assert counts["dual"] <= 152 and counts["unify"] <= 4_221, counts
