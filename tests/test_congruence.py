import random

from hypothesis import example, given, strategies as st

import sessionpi.congruence as cg
import sessionpi.surface as sf
import sessionpi.syntax as sx
import strategies as S
from test_reference_oracles import alpha_equivalent


def parse(s, sessions=(), gamma=None):
    return sf.parse_process(s, sessions=sessions, gamma=gamma)


def test_normal_form_extrudes_restrictions():
    p = parse("k!(1).0 | new m . (m?(x).0 | m!(2).0)", sessions=("k",))
    nf = cg.normal_form(p)
    assert len(nf.binders) == 1
    assert len(nf.threads) == 3
    assert [type(t).__name__ for t in nf.threads] == \
        ["Send", "Receive", "Send"]


def test_normal_form_drops_stopped_threads():
    p = parse("0 | k!(1).0 | 0", sessions=("k",))
    nf = cg.normal_form(p)
    assert len(nf.threads) == 1


def test_normal_form_keeps_left_to_right_order():
    p = parse("k?(x).0 | k2?(x).0 | k3?(x).0", sessions=("k", "k2", "k3"))
    nf = cg.normal_form(p)
    assert [t.chan.base for t in nf.threads] == ["k", "k2", "k3"]


def test_process_of_empty_normal_form_is_stop():
    p = parse("new m . 0")
    assert cg.normal_form(p).process() == sx.Stop()


def test_canonical_key_invariant_under_thread_order():
    a = parse("k?(x).0 | k!(1).0", sessions=("k",))
    b = parse("k!(1).0 | k?(x).0", sessions=("k",))
    assert cg.canonical_key(a) == cg.canonical_key(b)
    # threads that differ only in their bound names: which received
    # channel is used, or which restricted channel is shared with whom
    one = "k?((m)).k?((n)).m!(1).0"
    two = "k?((m)).k?((n)).n!(1).0"
    a = parse(f"{one} | {two}", sessions=("k",))
    b = parse(f"{two} | {one}", sessions=("k",))
    assert cg.canonical_key(a) == cg.canonical_key(b)
    shared = "p0!((m)).0 | p1!((n)).0"
    a = parse(f"new m, n . (m?(x).0 | n?(x).0 | {shared})",
              sessions=("p0", "p1"))
    b = parse(f"new m, n . (n?(x).0 | m?(x).0 | {shared})",
              sessions=("p0", "p1"))
    assert cg.canonical_key(a) == cg.canonical_key(b)


def test_canonical_key_invariant_under_alpha():
    p = parse("new m . (m?(x).0 | m!(1).0)")
    assert cg.canonical_key(p) == cg.canonical_key(sx.refresh(p))


def test_canonical_key_separates_different_behaviour():
    a = parse("k!(1).0", sessions=("k",))
    b = parse("k!(2).0", sessions=("k",))
    assert cg.canonical_key(a) != cg.canonical_key(b)


def test_maximal_parallel_subterms_sees_through_prefixes():
    src = sf.parse_source("""\
env a : <end>;
a(k) . new k1, k2 . (k1?(x).k2!(x).0 | k2?(x).k1!(x).0)
""")
    subs = cg.maximal_parallel_subterms(src.process)
    assert len(subs) == 2  # the whole term and the body under the accept
    inner = subs[1]
    assert len(cg.normal_form(inner).threads) == 2


def test_maximal_parallel_subterms_are_normalized():
    p = parse("new m . (m!(1).0 | m?(x).0)")
    subs = cg.maximal_parallel_subterms(p)
    nf = cg.normal_form(subs[0])
    assert len(nf.threads) == 2


@given(st.integers(0, 10_000))
def test_normal_form_is_idempotent(seed):
    _, p = S.well_typed(random.Random(seed))
    once = cg.normal_form(p).process()
    twice = cg.normal_form(once).process()
    assert alpha_equivalent(once, twice)


@given(st.integers(0, 10_000))
def test_normal_form_preserves_canonical_key(seed):
    _, p = S.well_typed(random.Random(seed))
    assert cg.canonical_key(p) == cg.canonical_key(cg.normal_form(p).process())


@given(st.integers(0, 10_000))
@example(6510)
@example(8403)
@example(9331)
def test_canonical_key_invariant_under_shuffles(seed):
    rng = random.Random(seed)
    _, p = S.transparent(rng)
    nf = cg.normal_form(p)
    threads = list(nf.threads)
    rng.shuffle(threads)
    q = cg.NormalForm(nf.binders, tuple(threads)).process()
    assert cg.canonical_key(p) == cg.canonical_key(q)
