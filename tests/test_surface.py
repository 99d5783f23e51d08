import random
import sys
from collections import Counter
from functools import reduce

import pytest
from hypothesis import example, given, strategies as st

import sessionpi.congruence as cg
import sessionpi.surface as sf
import sessionpi.syntax as sx
import sessionpi.typecheck as tc
import strategies as S
from sessionpi.examples import SOURCES
from test_reference_oracles import alpha_equivalent


def test_prefix_binds_tighter_than_par():
    p = sf.parse_process("k?(x).0 | k!(1).0", sessions=("k",))
    assert isinstance(p, sx.Par)
    assert isinstance(p.left, sx.Receive)
    assert isinstance(p.right, sx.Send)


def test_free_sessions_are_interned_per_spelling():
    p = sf.parse_process("k?(x).0 | k!(1).0", sessions=("k",))
    assert p.left.chan is p.right.chan or p.left.chan == p.right.chan


def test_undeclared_session_is_an_error():
    with pytest.raises(sf.ParseError) as e:
        sf.parse_process("k!(1).0")
    assert "k" in str(e.value)


def test_parse_error_carries_line_and_column():
    with pytest.raises(sf.ParseError) as e:
        sf.parse_source("sessions k;\nk!(.0\n")
    assert e.value.line == 2
    assert e.value.col >= 1


def test_shadowing_is_rejected():
    with pytest.raises(sf.ParseError) as e:
        sf.parse_process("k?(x).k?(x).0", sessions=("k",))
    assert "x" in str(e.value)


def test_reserved_names_rejected_in_binders():
    with pytest.raises(sf.ParseError):
        sf.parse_process("new #k . 0")


def test_parse_source_headers():
    src = sf.parse_source("""\
// a comment
sessions k;
env a : <end>;
env n : int;
k!(n).0
""")
    assert [c.base for c in src.sessions] == ["k"]
    assert src.gamma["a"] == sx.ServiceSort(sx.End())
    assert src.gamma["n"] == sx.INT
    assert isinstance(src.process, sx.Send)


def test_types_parse():
    t = sf.parse_type("?[int].![<end>].&{a: end, b: +{c: end}}")
    assert isinstance(t, sx.In)
    assert t.payload == sx.INT
    assert isinstance(t.then.payload, sx.ServiceSort)
    arms = t.then.then
    assert isinstance(arms, sx.BranchT)
    assert [l for l, _ in arms.options] == ["a", "b"]


def test_branch_arms_canonically_sorted():
    t1 = sf.parse_type("&{b: end, a: end}")
    t2 = sf.parse_type("&{a: end, b: end}")
    assert t1 == t2


def test_corpus_sources_parse_and_roundtrip():
    for name, text in SOURCES.items():
        src = sf.parse_source(text)
        free = sorted({c.base for c in
                       sx.free_session_channels(src.process)})
        again = sf.parse_process(sf.print_process(src.process),
                                 sessions=tuple(free), gamma=src.gamma)
        assert alpha_equivalent(src.process, again), name


def test_display_names_distinguish_same_base():
    k1, k2 = sx.bound_chan("k"), sx.bound_chan("k")
    p = sx.New(k1, sx.New(k2, sx.Par(
        sx.Send(k1, sx.IntLit(1), sx.Stop()),
        sx.Send(k2, sx.IntLit(2), sx.Stop()))))
    names = sf.display_names(p)
    assert len({names[k1], names[k2]}) == 2


def test_print_delta_is_sorted_and_readable():
    d = {sx.chan("b"): sx.End(), sx.chan("a"): sx.Bot()}
    assert sf.print_delta(d) == "a : bot, b : end"


def test_string_literals_roundtrip():
    p = sf.parse_process('k!("a b\\"c").0', sessions=("k",))
    s = sf.print_process(p)
    q = sf.parse_process(s, sessions=("k",))
    assert p == q


@given(S.session_types)
def test_type_print_parse_roundtrip(t):
    assert sf.parse_type(sf.print_type(t)) == t


@given(st.integers(0, 10_000))
def test_process_print_parse_roundtrip(seed):
    g, p = S.well_typed(random.Random(seed))
    free = sorted({c.base for c in sx.free_session_channels(p)})
    q = sf.parse_process(sf.print_process(p), sessions=tuple(free), gamma=g)
    assert alpha_equivalent(p, q)


def _parse_expr(text):
    p = sf._Parser(text)
    p.vars = set(S.VARS)
    return p.finish(p.parse_expr(), "expression")


@given(S.expressions)
@example(sx.Binop("=", sx.Binop("=", sx.IntLit(1), sx.IntLit(1)),
                  sx.BoolLit(True)))
def test_expression_print_parse_roundtrip(e):
    assert _parse_expr(sf.print_expr(e)) == e


_DECLS = "sessions k;\nenv a : int;\nenv b : int;\nenv c : int;\n"


ERROR_POSITIONS = [
    # lexer
    ('k!("ab', "unterminated string", 1, 4),
    ('k!("ab\n', "unterminated string", 1, 4),
    ('k!("ab\\', "unterminated string", 1, 4),
    ('k!("ab\\\nc").0', "unterminated string", 1, 4),
    ('sessions k;\nk!("a\\qb").0', "bad escape '\\q'", 2, 6),
    ("env # : int;", "'#' must start a name", 1, 5),
    ("k @", "unexpected character '@'", 1, 3),
    ("0 | ½", "unexpected character '½'", 1, 5),
    ("sessions k;\nk!(²).0", "unexpected character '²'", 2, 4),
    ("sessions k;\nk!(1). // done", "expected a process, found end of input",
     2, 8),
    ("sessions k;\nk!(1).\n\t// one\n// two",
     "expected a process, found end of input", 4, 1),
    ("sessions k;\nk!(1). // done\n", "expected a process, found end of input",
     3, 1),
    ("sessions k;\r\nenv a : int;\r\nk!(a @ 1).0",
     "unexpected character '@'", 3, 6),
    ("sessions k;\r\nk!(1).\r\n", "expected a process, found end of input",
     3, 1),
    ("sessions k;\n\tk!(\t1)\t@", "unexpected character '@'", 2, 9),
    ('sessions k;\n\nk!("ab\\qc").0', "bad escape '\\q'", 3, 7),
    ("sessions k;\nk!(1).#", "'#' must start a name", 2, 7),
    ('sessions k;\nk!("', "unterminated string", 2, 4),
    # expressions
    (_DECLS + "k!(a < b < c).0", "expected ')', found '<'", 5, 10),
    (_DECLS + "k!(not a = b = c).0", "expected ')', found '='", 5, 14),
    (_DECLS + "k!(a = not b).0", "expected an expression, found 'not'", 5, 8),
    (_DECLS + "k!(2 and 1 != 2 < true).0", "expected ')', found '<'", 5, 17),
    # declarations and binders
    ("env s : <&{l: end, m: end, l: end}>;\n0", "duplicate label 'l'", 1, 28),
    ("sessions k;\nk >> {l: 0, l: 0}", "duplicate label 'l'", 2, 13),
    ("new #k . 0", "name '#k' is reserved", 1, 5),
    ("new k, k . 0", "'k' is already in scope", 1, 8),
    ("sessions k;\nk?(k).0", "'k' is already in scope", 2, 4),
    ("sessions k;\nk?(#x).0", "name '#x' is reserved", 2, 4),
    ("sessions k;\nk?((#m)).0", "name '#m' is reserved", 2, 5),
    ("sessions k;\nk?((k)).0", "'k' is already in scope", 2, 5),
    ("env a : <end>;\na(a).0", "'a' is already in scope", 2, 3),
    ("env a : <end>;\na(#k).0", "name '#k' is reserved", 2, 3),
    ("env a : <end>;\nsessions k;\na<k>.0", "'k' is already in scope", 3, 3),
    ("env a : <end>;\na<#k>.0", "name '#k' is reserved", 2, 3),
    ("env a : <end>;\n*a(#k).0", "name '#k' is reserved", 2, 4),
    ("env a : <end>;\nenv n : int;\n*a(n).0", "'n' is already in scope",
     3, 4),
    ("sessions k;\nk?(x).new x . 0", "'x' is already in scope", 2, 11),
]


@pytest.mark.parametrize("text, message, line, col", ERROR_POSITIONS)
def test_parse_error_positions(text, message, line, col):
    with pytest.raises(sf.ParseError) as e:
        sf.parse_source(text)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)


def test_positions_are_computed_only_for_errors(monkeypatch):
    # parsing keeps no token offsets: they are found again, once, for
    # the one error a parse raises
    calls = {"offsets": 0, "position": 0}

    def counted(name, real):
        def count(*args):
            calls[name] += 1
            return real(*args)
        return count

    monkeypatch.setattr(sf, "_offsets", counted("offsets", sf._offsets))
    monkeypatch.setattr(sf, "position", counted("position", sf.position))
    texts = [case.text for case in S.bench_gen().certify(1)]
    assert len(texts) == 13
    for text in [*texts, *SOURCES.values()]:
        sf.parse_source(text)
    assert calls == {"offsets": 0, "position": 0}
    for text, *_ in ERROR_POSITIONS:
        calls.update(offsets=0, position=0)
        with pytest.raises(sf.ParseError):
            sf.parse_source(text)
        assert calls == {"offsets": 1, "position": 1}, text


def test_a_long_prefix_chain_parses_without_recursion():
    src = sf.parse_source("sessions k;\n" + "k!(1)." * 150_000 + "0")
    sends, p = 0, src.process
    while isinstance(p, sx.Send):
        sends, p = sends + 1, p.body
    assert (sends, p) == (150_000, sx.Stop())


def test_deep_nests_parse_at_the_default_recursion_limit():
    # `parse_par`, `parse_unit`, `link` and `prefix` recursed once per
    # `(`, `if` branch and offer arm: RecursionError at 5,000 deep
    n = 100_000
    nests = [("(" * n + "k!(1).0" + ")" * n, "k!(1).0"),
             *((text, text) for text in (
                 "if true then " * n + "0" + " else 0" * n,
                 "k >> {a: " * n + "0" + "}" * n,
                 "k!(1).(" * n + "0" + " | 0)" * n))]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        shown = [sf.print_process(sf.parse_source(f"sessions k;\n{text}")
                                  .process) for text, _ in nests]
    finally:
        sys.setrecursionlimit(limit)
    assert shown == [want for _, want in nests]


def test_typing_a_deep_offer_still_recurses():
    # branch types are still built and checked recursively, so the
    # parser's deep offers meet a limit in typing (ROADMAP item 3)
    p, k = sx.Stop(), sx.chan("k")
    for _ in range(100_000):
        p = sx.Offer(k, (("a", p),))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        with pytest.raises(RecursionError):
            tc.check({}, p)
    finally:
        sys.setrecursionlimit(limit)


def test_a_chain_of_heads_reads_no_token_through_expect(monkeypatch):
    # each head is told by one slice of the tags; `expect` and
    # `expect_ident` only raise the error of a head that does not fit
    calls = Counter()
    for name in ("expect", "expect_ident"):
        def counted(self, *args, real=getattr(sf._Parser, name), name=name):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(sf._Parser, name, counted)
    heads = ("k!(1).", "k?(x{}).", "k << l.", "a(k{}).")
    n = 2_000
    text = "".join(heads[i % 4].format(i) for i in range(n)) + "0"
    p = sf.parse_process(text, ("k",), {"a": sx.ServiceSort(sx.End())})
    kinds = []
    while not isinstance(p, sx.Stop):
        kinds.append(type(p))
        p = p.body
    assert kinds == [sx.Send, sx.Receive, sx.Choose, sx.Accept] * (n // 4)
    assert calls == {}


def test_a_long_declared_type_parses_at_the_default_recursion_limit():
    # `parse_type` recursed once per `?[…].` or `![…].` head
    n = 30_000
    text = "?[int].![<![bool].end>]." * (n // 2) + "end"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        t = sf.parse_type(text)
        shown = sf.print_type(t)
    finally:
        sys.setrecursionlimit(limit)
    heads = 0
    while isinstance(t, (sx.In, sx.Out)):
        heads, t = heads + 1, t.then
    assert (heads, t, shown) == (n, sx.End(), text)


def deep_nests(n):
    """(what, process, its print, its canonical key) for n-deep nests of
    each form, the texts built without the printer."""
    k, one = sx.chan("k"), sx.IntLit(1)
    p = sx.Stop()
    for _ in range(n):
        p = sx.Send(k, one, p)
    text = "k!(1)." * n + "0"
    yield "prefixes", p, text, text
    p = sx.Stop()
    for _ in range(n):
        p = sx.Send(k, one, sx.Par(p, sx.Stop()))
    text = "k!(1).(" * n + "0" + " | 0)" * n
    yield "prefixes over |", p, text, text
    p = sx.Stop()
    for _ in range(n):
        p = sx.If(sx.BoolLit(True), p, sx.Stop())
    text = "if true then " * n + "0" + " else 0" * n
    yield "if", p, text, text
    p = sx.Stop()
    for _ in range(n):
        p = sx.Offer(k, (("l", p),))
    text = "k >> {l: " * n + "0" + "}" * n
    yield "offer", p, text, text
    cs = [sx.bound_chan(f"c{i}") for i in range(n)]
    p = reduce(lambda body, c: sx.Send(c, one, body), reversed(cs), sx.Stop())
    p = reduce(lambda body, c: sx.New(c, body), reversed(cs), p)
    text = (f"new {', '.join(f'c{i}' for i in range(n))} . "
            + "".join(f"c{i}!(1)." for i in range(n)) + "0")
    key = (f"new {', '.join(sorted(f'b{i}' for i in range(n)))} . "
           + "".join(f"b{i}!(1)." for i in range(n)) + "0")
    yield "new", p, text, key
    threads = [sx.Send(sx.chan(f"k{i}"), sx.IntLit(i), sx.Stop())
               for i in range(n)]
    texts = [f"k{i}!({i}).0" for i in range(n)]
    key = " | ".join(sorted(texts))
    yield "left |", reduce(sx.Par, threads), " | ".join(texts), key
    yield ("right |", reduce(lambda r, t: sx.Par(t, r), reversed(threads)),
           " | ".join(texts), key)


def test_deep_nests_print_and_key_at_the_default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        for what, p, text, key in deep_nests(20_000):
            assert sf.print_process(p) == text, what
            assert cg.print_states([cg.normal_form(p)]) == [text], what
            assert cg.canonical_key(p) == key, what
    finally:
        sys.setrecursionlimit(limit)
