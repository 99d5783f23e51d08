import contextlib
import importlib
import inspect
import io
import json
import os
import random
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sessionpi.cli as cli
import sessionpi.congruence as congruence
import sessionpi.depgraph as depgraph
import sessionpi.progress as progress
import sessionpi.semantics as semantics
import sessionpi.surface as surface
import sessionpi.syntax as sx
import sessionpi.typecheck as typecheck
import strategies as S
from sessionpi.examples import SOURCES
from test_reference_oracles import calls_by_caller

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


@pytest.fixture()
def spi(tmp_path):
    def write(name):
        f = tmp_path / f"{name}.spi"
        f.write_text(SOURCES[name])
        return str(f)
    return write


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, "--json", *argv)
    return code, json.loads(out)


def test_samples_match_the_embedded_corpus():
    on_disk = {p.stem: p.read_text() for p in SAMPLES.glob("*.spi")}
    assert on_disk == SOURCES


def test_check_positive(capsys, spi):
    code, out, _ = run(capsys, "check", spi("buyer_seller"))
    assert code == 0
    assert "well-typed" in out


def test_check_relaxes_the_service_rule_only_when_asked(capsys, tmp_path):
    # a service body that uses a session opened outside it
    f = tmp_path / "relaxed.spi"
    f.write_text("env a : <end>; sessions c;"
                 " *a(k).c!(1).0 | c?(x).0 | a<k>.0\n")
    code, out, _ = run(capsys, "check", str(f))
    assert code == 1
    assert "T-RServ: body uses open session c" in out
    code, out, _ = run(capsys, "check", "--relax-services", str(f))
    assert (code, out) == (0, "well-typed, Delta = c : bot\n")


def test_check_negative(capsys, tmp_path):
    f = tmp_path / "bad.spi"
    f.write_text("sessions k;\nk!(1).0 | k!(2).0\n")
    code, out, _ = run(capsys, "check", str(f))
    assert code == 1
    assert "T-Par" in out


def test_parse_error_is_exit_2(capsys, tmp_path):
    f = tmp_path / "broken.spi"
    f.write_text("sessions k;\nk!(\n")
    code, _, err = run(capsys, "check", str(f))
    assert code == 2
    assert err.startswith("error: ")
    assert ":1:" in err  # line:col position present


def test_missing_file_is_exit_2(capsys, tmp_path):
    # also a directory, and an expression nested too deep for the parser
    deep = tmp_path / "deep.spi"
    deep.write_text("sessions k;\nk!(" + "(" * 60_000 + "1" + ")" * 60_000
                    + ").0")
    limit = sys.getrecursionlimit()
    for path in ("does_not_exist.spi", str(tmp_path), str(deep)):
        code, out, err = run(capsys, "check", path)
        assert code == 2, path
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1, err
        assert sys.getrecursionlimit() == limit


def test_usage_error_is_exit_2(capsys):
    assert cli.main(["frobnicate"]) == 2
    assert cli.main([]) == 2


def test_transparent_verdicts(capsys, spi):
    code, out, _ = run(capsys, "transparent", spi("buyer_seller"))
    assert (code, out.splitlines()[0]) == (0, "Transparent")
    code, out, _ = run(capsys, "transparent", spi("circular_waits"))
    assert code == 1
    assert out.splitlines()[0] == "NotTransparent"
    assert "cycle" in out


def test_transparent_prints_the_sub_term_with_the_file_s_names(capsys,
                                                               tmp_path):
    f = tmp_path / "two_ks.spi"
    f.write_text("env a : <end>; new k . (k!(1).0 | k?(x).0)"
                 " | a(k2) . new k, k1 . (k?(x).k1!(x).0 | k1?(x).k!(x).0)\n")
    code, out, _ = run(capsys, "transparent", str(f))
    assert code == 1
    assert out.splitlines()[1:] == [
        "  cycle: t0 -- t1 -- t0 via k_1, k1",
        "  in sub-term: new k_1, k1 . (k_1?(x).k1!(x).0 | k1?(x).k_1!(x).0)"]
    code, data = run_json(capsys, "transparent", str(f))
    assert data["data"]["cycle"]["channels"] == ["k_1", "k1"]
    assert data["data"]["subterm"] == \
        "new k_1, k1 . (k_1?(x).k1!(x).0 | k1?(x).k_1!(x).0)"


def test_transparent_reports_ill_typed(capsys, tmp_path):
    f = tmp_path / "bad.spi"
    f.write_text("sessions k;\nk!(1).0 | k!(2).0\n")
    code, out, _ = run(capsys, "transparent", str(f))
    assert code == 1
    assert "NotWellTyped" in out


def test_graph_text_and_dot(capsys, spi, tmp_path):
    dot = tmp_path / "out.dot"
    code, out, _ = run(capsys, "graph", spi("relay"), "--dot", str(dot))
    assert code == 0
    assert "3 nodes, 2 edges, acyclic" in out
    text = dot.read_text()
    assert text.count("graph ") == 1
    assert "n0 -- n1" in text


def test_graph_all_subterms(capsys, spi):
    code, out, _ = run(capsys, "graph", spi("circular_waits_under_accept"),
                       "--all-subterms")
    assert code == 0
    assert "graph 0:" in out and "graph 1:" in out


def test_graph_flattens_each_cluster_once(capsys, monkeypatch, tmp_path):
    f = tmp_path / "nested.spi"
    f.write_text("env a : <end>; sessions k;\n"
                 "k!(1).0 | a(k1).(k?(x).0 | new m . (m!(1).0 | m?(y).0))\n")
    flattened = []
    normal_form = congruence.normal_form

    def counted(p):
        nf = normal_form(p)
        if nf is not p:
            flattened.append(len(nf.threads))
        return nf

    monkeypatch.setattr(congruence, "normal_form", counted)
    code, data = run_json(capsys, "graph", str(f), "--all-subterms")
    nodes = [len(g["nodes"]) for g in data["data"]["graphs"]]
    assert (code, nodes) == (0, [2, 3])
    assert flattened == nodes


def test_graph_writes_dot_only_when_asked(capsys, monkeypatch, spi, tmp_path):
    titles = []
    to_dot = depgraph.to_dot

    def counted(g, names=None, title="deps"):
        titles.append(title)
        return to_dot(g, names, title)

    monkeypatch.setattr(depgraph, "to_dot", counted)
    f = spi("circular_waits_under_accept")
    assert run(capsys, "graph", f, "--all-subterms")[0] == 0
    assert titles == []
    dot = tmp_path / "out.dot"
    assert run(capsys, "graph", f, "--all-subterms", "--dot", str(dot))[0] == 0
    assert titles == ["deps0", "deps1"]


def test_sub_term_graphs_use_the_file_s_names(capsys, tmp_path):
    # both sub-terms bind their own j; the file calls the second j_1
    f = tmp_path / "two_js.spi"
    f.write_text("env a : <end>; env b : <end>;\n"
                 "a(k1).new j . (j!(1).0 | j?(x).0)"
                 " | b(k2).new j . (j!(2).0 | j?(y).0)\n")
    code, data = run_json(capsys, "graph", str(f), "--all-subterms")
    assert code == 0
    graphs = data["data"]["graphs"]
    assert [len(g["edges"]) for g in graphs] == [0, 1, 1]
    for g in graphs:
        texts = " ".join(node["text"] for node in g["nodes"])
        for _, _, c in g["edges"]:
            assert re.search(rf"(?<![\w#]){re.escape(c)}(?!\w)", texts), \
                (c, texts)


def test_graph_json_and_dot_on_stdout_is_a_usage_error(capsys, spi, tmp_path):
    code, out, err = run(capsys, "--json", "graph", spi("relay"), "--dot", "-")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    dot = tmp_path / "out.dot"
    code, out, err = run(capsys, "--json", "graph", spi("relay"),
                         "--dot", str(dot))
    assert (code, err) == (0, "")
    assert json.loads(out)["data"]["graphs"][0]["edges"]
    assert dot.read_text().startswith('graph "deps0" {')


def test_run_trace(capsys, spi):
    code, out, _ = run(capsys, "run", spi("relay"), "--steps", "10")
    assert code == 0
    assert "--[Com@" in out
    assert out.rstrip().endswith("0")


def test_run_shows_a_service_value_by_its_name(capsys, tmp_path):
    f = tmp_path / "svc.spi"
    f.write_text("env a : <![<end>].end>; env b : <end>;"
                 " *a(k).k!(b).0 | a<k>.k?(x).0\n")
    code, out, _ = run(capsys, "run", str(f))
    assert code == 0
    assert out.splitlines()[3] == "  --[Com@2,1 b]-->"
    code, data = run_json(capsys, "run", str(f))
    assert data["data"]["trace"][1]["value"] == "b"


def test_run_shows_a_start_whose_payload_is_open(capsys, tmp_path):
    # `v` is declared but never bound to a value, so the send has none
    # to pass: there is no redex, and the start is shown with no step
    f = tmp_path / "open.spi"
    f.write_text("env v : int; sessions k; k!(v).0 | k?(x).0\n")
    assert run(capsys, "run", str(f)) == (0, "k!(v).0 | k?(x).0\n", "")
    code, data = run_json(capsys, "run", str(f))
    assert (code, data["verdict"], data["data"]["trace"]) == (0, "ok", [
        {"final": True, "index": 0, "process": "k!(v).0 | k?(x).0"}])


def count_prints(monkeypatch):
    """Record every call of `surface.pieces` and of `print_process`,
    with its caller, through every module that holds either by name.
    Read the records with `rowed_threads`."""
    modules = (surface, cli, congruence, depgraph, progress, semantics,
               typecheck)
    return (calls_by_caller(monkeypatch, "pieces", *modules),
            calls_by_caller(monkeypatch, "print_process", *modules))


def rowed_threads(laid_out, printed):
    """The threads laid out for their rows' pieces.  Nothing else
    lays out a thread, and only `progress` prints one whole."""
    assert {caller for caller, _ in printed} <= {"_cmd_progress"}
    assert {caller for caller, _ in laid_out} <= {"_row", "print_process"}
    return [p for caller, p in laid_out if caller == "_row"]


def one_thread_each(printed):
    """Each print was of one thread, never of a whole state."""
    return bool(printed) and not any(isinstance(p, (sx.Par, sx.New))
                                     for p in printed)


def test_run_prints_each_thread_object_at_most_once(capsys, monkeypatch):
    calls = count_prints(monkeypatch)
    code, data = run_json(capsys, "run", "--steps", "4",
                          str(SAMPLES / "relay.spi"))
    assert code == 0
    assert len(data["data"]["trace"]) == 3  # two steps and the final state
    # no thread twice (the records keep them alive, so ids stay distinct)
    printed = rowed_threads(*calls)
    assert one_thread_each(printed)
    assert len({id(p) for p in printed}) == len(printed)


def test_run_reprints_few_of_the_threads_it_shows(capsys, monkeypatch,
                                                 tmp_path):
    slots = 0
    files = []
    for case in S.bench_gen().simulate(1):
        f = tmp_path / case.name
        f.write_text(case.text)
        files.append(str(f))
        src = surface.parse_source(case.text)
        slots += sum(len(q.threads)
                     for q in semantics.trace(src.process, 1000).states())
    calls = count_prints(monkeypatch)
    for f in files:
        code, data = run_json(capsys, "run", "--steps", "1000", f)
        assert code == 0 and data["data"]["trace"][-1]["final"]
    # untouched threads are the same objects from state to state, and
    # are printed again only when a name they use changes its spelling
    printed = rowed_threads(*calls)
    assert one_thread_each(printed)
    assert 5 * len(printed) <= slots, (len(printed), slots)


def test_run_all_states(capsys, spi):
    code, data = run_json(capsys, "run", spi("circular_waits"), "--all")
    assert code == 0
    assert data["data"]["states"] == ["k1?(x).k2!(x).0 | k2?(x).k1!(x).0"]


def test_run_all_stops_at_the_state_bound(capsys, spi, tmp_path):
    # the first `certify` benchmark file reaches far more states within
    # six steps than the bound lets through
    f = tmp_path / "certify_00.spi"
    f.write_text(S.bench_gen().certify(1)[0].text)
    argv = ["run", "--all", "--steps", "6", str(f)]
    code, out, _ = run(capsys, *argv, "--max-states", "40")
    lines = out.splitlines()
    assert (code, lines[0], len(lines)) == (0, "40 states within 6 steps:", 42)
    assert lines[-1] == ("  (state bound hit; raise --max-states to"
                         " explore further)")
    code, data = run_json(capsys, *argv, "--max-states", "40")
    assert data["data"]["bound_hit"] is True
    assert data["data"]["states"] == [s[2:] for s in lines[1:-1]]
    _, wider = run_json(capsys, *argv, "--max-states", "41")
    assert wider["data"]["states"][:40] == data["data"]["states"]
    # exactly as many states as the bound: the bound is not hit
    code, data = run_json(capsys, "run", spi("circular_waits"), "--all",
                          "--max-states", "1")
    assert (code, data["data"]) == (0, {
        "states": ["k1?(x).k2!(x).0 | k2?(x).k1!(x).0"]})


def test_the_parser_carries_nothing_from_one_call_to_the_next(
        capsys, monkeypatch, spi):
    # the argument parser is built once per process and reused
    f = spi("buyer_seller")
    before = run(capsys, "transparent", f)
    assert run(capsys, "check", f, "--json")[1].startswith("{")
    code, out, _ = run(capsys, "check", f)
    assert (code, out.startswith("well-typed")) == (0, True)
    depths = []
    real = progress.check_progress

    def recorded(gamma, p, **kw):
        depths.append(kw["depth"])
        return real(gamma, p, **kw)

    monkeypatch.setattr(progress, "check_progress", recorded)
    run(capsys, "progress", f, "--depth", "2")
    run(capsys, "progress", f)
    assert depths == [2, 10]
    code, out, err = run(capsys, "progress", f, "--depth", "-1")
    assert (code, out) == (2, "") and "must not be negative" in err
    assert run(capsys, "transparent", f) == before
    assert before[0] == 0 and not before[1].startswith("{")
    assert cli._parser() is cli._parser()


def test_run_seed_and_all_conflict(capsys, spi):
    code = cli.main(["run", spi("relay"), "--seed", "1", "--all"])
    assert code == 2


def test_inhabit(capsys):
    code, out, _ = run(capsys, "inhabit", "end", "--chan", "k")
    assert (code, out.strip()) == (0, "0")
    code, out, _ = run(capsys, "inhabit", "![<end>].end")
    assert code == 0
    assert "with service #inh0 : <end>" in out


def test_inhabit_bad_type_is_exit_2(capsys):
    code, _, err = run(capsys, "inhabit", "?[int.")
    assert code == 2


@pytest.mark.parametrize("chan", ["", "x y", "end", "#k", "#", "k!", " k"])
def test_inhabit_chan_must_be_one_channel_name(capsys, chan):
    code, out, err = run(capsys, "inhabit", "![int].end", "--chan", chan)
    assert (code, out) == (2, "")
    assert err == f"error: --chan must be one channel name, not {chan!r}\n"


def test_progress_exit_codes(capsys, spi):
    assert cli.main(["progress", spi("buyer_seller")]) == 0
    assert cli.main(["progress", spi("circular_waits")]) == 1


def test_progress_reports_the_cut(capsys, spi):
    code, data = run_json(capsys, "progress", spi("service_loop"),
                          "--depth", "4")
    assert code == 1
    assert data["verdict"] == "counterexample"
    assert data["data"]["failed"] == "no-partner"
    assert len(data["data"]["cut"]) == 2


def test_progress_reports_a_completion_that_does_not_reduce(capsys,
                                                          tmp_path):
    # the send's payload v is open, so the send and its partner's
    # receive make no redex: condition (c) fails on the cyclic piece
    f = tmp_path / "open_send.spi"
    f.write_text("env v : int; sessions k, a, b;"
                 " k!(v).a?(x).b!(x).0 | b?(y).a!(y).0\n")
    code, out, _ = run(capsys, "progress", str(f))
    assert code == 1
    assert out.splitlines() == [
        "counterexample: stuck decomposition: the completed composition"
        " does not reduce",
        "  state: k!(v).a?(x).b!(x).0 | b?(y).a!(y).0",
        "  stuck decomposition: k!(v).a?(x).b!(x).0 | b?(y).a!(y).0",
        "  best partner tried: k?(x).0"]
    code, data = run_json(capsys, "progress", str(f))
    assert (code, data["verdict"]) == (1, "counterexample")
    assert data["data"]["failed"] == "c"
    assert (data["data"]["cut"], data["data"]["partner"]) == (
        ["k!(v).a?(x).b!(x).0", "b?(y).a!(y).0"], "k?(x).0")
    # alone, the open send is an acyclic piece and passes without a
    # partner: the refutation is the cyclic a/b pair, which nothing
    # can complete
    f.write_text("env v : int; sessions k, a, b; k!(v).0"
                 " | a?(x).b!(x).0 | b?(x).a!(x).0\n")
    code, data = run_json(capsys, "progress", str(f))
    assert (code, data["verdict"]) == (1, "counterexample")
    assert data["data"]["failed"] == "no-partner"
    assert data["data"]["cut"] == ["a?(x).b!(x).0", "b?(x).a!(x).0"]
    assert "partner" not in data["data"]


_LIVE = "new a, b . (a!(1).b!(2).0 | a?(u).b?(w).0)"


@pytest.mark.parametrize("sessions, threads", [
    ("c, e", [f"c >> {{go: 0, stop: {_LIVE}}}",
              f"e >> {{go: 0, stop: {_LIVE}}}"]),
    ("c, d", ["d?(x).0", f"c >> {{go: 0, stop: {_LIVE}}}"]),
])
def test_threads_that_share_no_name_are_never_cut_together(
        capsys, tmp_path, sessions, threads):
    # each thread alone is inconclusive; side by side they share no
    # name, so no piece holds both, in either order
    f = tmp_path / "apart.spi"
    for order in (threads, threads[::-1]):
        f.write_text(f"sessions {sessions}; " + " | ".join(order) + "\n")
        code, data = run_json(capsys, "progress", str(f))
        assert (code, data["verdict"]) == (0, "inconclusive"), order


def test_a_dormant_deadlock_is_refuted_alike_beside_an_unrelated_pair(
        capsys, spi, tmp_path):
    # the accept alone is the cut, completed by a request; a pair that
    # shares no name with it changes neither verdict nor cut
    alone = spi("circular_waits_under_accept")
    beside = tmp_path / "beside.spi"
    beside.write_text(SOURCES["circular_waits_under_accept"].rstrip()
                      + " | new k . (k!(1).0 | k?(x).0)\n")
    got = []
    for f in (alone, str(beside)):
        code, data = run_json(capsys, "progress", f)
        got.append((code, data["verdict"], data["data"]["failed"],
                    data["data"]["cut"], data["data"]["partner"]))
    assert got[0] == got[1] == (
        1, "counterexample", "d",
        ["a(k).new k1, k2 . (k1?(x).k2!(x).0 | k2?(x).k1!(x).0)"],
        "a<k>.0")


def test_progress_prints_the_partner_with_the_state_s_names(capsys, tmp_path):
    # the partner completes the cut's k_1?(x).…; its k is the state's
    # k_1, spelled apart from the k bound under the accept
    f = tmp_path / "partner.spi"
    f.write_text("env a : <end>; a(k2) . new k . (k!(1).0 | k?(x).0)"
                 " | new k . (k!(1).0 | k?(x).new c, d . (c?(y).d!(y).0"
                 " | d?(y).c!(y).0))\n")
    code, out, _ = run(capsys, "progress", str(f))
    assert code == 1
    assert out.splitlines()[1:] == [
        "  state: new k_1 . (a(k2).new k . (k!(1).0 | k?(x).0) | k_1!(1).0"
        " | k_1?(x).new c, d . (c?(y).d!(y).0 | d?(y).c!(y).0))",
        "  stuck decomposition: k_1?(x).new c, d . (c?(y).d!(y).0"
        " | d?(y).c!(y).0)",
        "  best partner tried: k_1!(1).0"]
    code, data = run_json(capsys, "progress", str(f))
    assert (code, data["data"]["partner"]) == (1, "k_1!(1).0")


def test_a_piece_no_partner_can_complete_is_never_cut(capsys, monkeypatch,
                                                     tmp_path):
    # the conditional's guard is open, so it never moves, and it has no
    # live channel and no accept or serve: no partner can complete it,
    # so it passes without one, and the deadlocked cycle is the cut
    f = tmp_path / "inert.spi"
    f.write_text("env b : bool; sessions k1, k2; if b then 0 else 0"
                 " | k1?(x).k2!(x).0 | k2?(x).k1!(x).0\n")
    real, asked = progress.construct_partner, []

    def partner(gamma, p):
        asked.append(congruence.normal_form(p).threads)
        return real(gamma, p)

    monkeypatch.setattr(progress, "construct_partner", partner)
    code, out, _ = run(capsys, "progress", str(f))
    assert code == 1
    assert out.splitlines()[2] == ("  stuck decomposition: k1?(x).k2!(x).0"
                                   " | k2?(x).k1!(x).0")
    code, data = run_json(capsys, "progress", str(f))
    assert (code, data["data"]["failed"]) == (1, "no-partner")
    assert data["data"]["cut"] == ["k1?(x).k2!(x).0", "k2?(x).k1!(x).0"]
    assert asked and not any(isinstance(t, sx.If)
                             for threads in asked for t in threads)


def test_search_bounds_default_to_the_library_s():
    # each default is written twice, in the parser and in the signature
    # of the function the subcommand calls
    def defaults(fn):
        return {name: q.default for name, q in
                inspect.signature(fn).parameters.items()
                if q.default is not q.empty}

    search = defaults(progress.check_progress)
    args = cli._parser().parse_args(["progress", "f.spi"])
    assert search == {"depth": 10, "subset_budget": 512, "max_states": 2000}
    assert {name: getattr(args, name) for name in search} == search
    args = cli._parser().parse_args(["run", "f.spi"])
    assert args.max_states == defaults(semantics.explore)["max_states"]


@pytest.mark.parametrize("command, flag", [("run", "--steps"),
                                           ("run", "--max-states"),
                                           ("progress", "--depth"),
                                           ("progress", "--subset-budget"),
                                           ("progress", "--max-states")])
def test_negative_bounds_are_usage_errors(capsys, spi, command, flag):
    code, out, err = run(capsys, command, spi("circular_waits"), flag, "-1")
    assert (code, out) == (2, "")
    assert f"argument {flag}: must not be negative: -1" in err


def test_zero_subset_budget_is_inconclusive(capsys, spi):
    code, data = run_json(capsys, "progress", spi("circular_waits"),
                          "--subset-budget", "0")
    assert code == 0
    assert (data["verdict"], data["data"]["bound_hit"]) == ("inconclusive",
                                                            True)


def test_max_states_cuts_the_search_short(capsys, tmp_path):
    # a live two-channel cycle: the search closes after three states,
    # unless the state bound stops it after the first
    f = tmp_path / "live_cycle.spi"
    f.write_text("sessions a, b; a!(1).b!(2).0 | a?(x).b?(y).0")
    code, data = run_json(capsys, "progress", str(f))
    assert (code, data["verdict"], data["data"]["bound_hit"],
            data["data"]["states_seen"]) == (0, "inconclusive", False, 3)
    code, data = run_json(capsys, "progress", str(f), "--max-states", "1")
    assert (code, data["verdict"], data["data"]["bound_hit"],
            data["data"]["states_seen"]) == (0, "inconclusive", True, 1)
    code, out, _ = run(capsys, "progress", str(f), "--max-states", "1")
    assert out.splitlines()[-1] == ("  (search bound hit; raise --depth,"
                                    " --subset-budget or --max-states to"
                                    " search further)")


def test_a_state_bound_of_zero_keeps_only_the_start(capsys, spi):
    # the walk always holds the start: `run --all` shows none of it and
    # reports the bound, and `progress` still decomposes it: the dormant
    # accept alone is completed by a request
    hit = "  (state bound hit; raise --max-states to explore further)"
    searched = {"relay": (0, "certificate", 0), "circular_waits_under_accept":
                (1, "counterexample", 1)}
    for name, (rc, verdict, seen) in searched.items():
        argv = ["run", "--all", "--max-states", "0", spi(name)]
        code, out, _ = run(capsys, *argv)
        assert (code, out.splitlines()) == (
            0, ["0 states within 100 steps:", hit])
        code, data = run_json(capsys, *argv)
        assert data["data"] == {"bound_hit": True, "states": []}
        code, data = run_json(capsys, "progress", "--max-states", "0",
                              spi(name))
        assert (code, data["verdict"], data["data"]["states_seen"],
                data["data"]["bound_hit"]) == (rc, verdict, seen, False)


def test_progress_answers_on_deep_threads(tmp_path):
    # a circular wait beside a 20,000-prefix session: numbering threads
    # by value hashed each thread down its whole prefix chain and
    # overflowed the C stack (exit 139), and typing the receiving side
    # kept one copy of the variables per receive
    n = 20_000
    f = tmp_path / "deep.spi"
    f.write_text("sessions k1, k2, c;\nk1?(x).k2!(x).0 | k2?(x).k1!(x).0 | "
                 + "c!(1)." * n + "0 | "
                 + "".join(f"c?(x{i})." for i in range(n)) + "0\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    r = subprocess.run([sys.executable, "-m", "sessionpi", "progress", str(f)],
                       env=env, capture_output=True, text=True, timeout=300,
                       preexec_fn=_limit_memory)
    assert r.returncode == 1, r.stderr[-500:]
    assert r.stdout.splitlines()[-1] == (
        "  stuck decomposition: k1?(x).k2!(x).0 | k2?(x).k1!(x).0")


def test_run_and_graph_print_a_long_prefix_chain(tmp_path):
    # the printer recursed twice per prefix: both exited 2, "input
    # nested too deeply", on a chain that `check` answers
    chain = "k!(1)." * 60_000 + "0"
    f = tmp_path / "chain.spi"
    f.write_text(f"sessions k;\n{chain}\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for argv, want in (
            (["run", "--steps", "0"], [chain]),
            (["graph"], ["graph 0: 1 nodes, 0 edges, acyclic",
                         f"  n0 [k] {chain}"])):
        r = subprocess.run(
            [sys.executable, "-m", "sessionpi", *argv, str(f)], env=env,
            capture_output=True, text=True, timeout=300,
            preexec_fn=_limit_memory)
        assert r.returncode == 0, r.stderr[-500:]
        assert r.stdout.splitlines() == want, argv


def test_check_answers_a_long_declared_type(tmp_path):
    # `parse_type` recursed once per prefix of a declared type: exit 2,
    # "input nested too deeply", although the served chain types
    n = 150_000
    f = tmp_path / "declared.spi"
    f.write_text(f"env a : <{'![int].' * n}end>;\n*a(k).{'k!(1).' * n}0\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    r = subprocess.run([sys.executable, "-m", "sessionpi", "check", str(f)],
                       env=env, capture_output=True, text=True, timeout=300,
                       preexec_fn=_limit_memory)
    assert r.returncode == 0, r.stderr[-500:]
    assert r.stdout.splitlines() == ["well-typed, Delta = (empty)"]


def test_check_answers_deep_nests(tmp_path):
    # the parser recursed once per `(` and `if` branch: both exited 2,
    # "input nested too deeply".  Typing a deep offer still recurses,
    # so it may meet the limit, but only with exit 2 and one line
    n = 100_000
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for text, codes in (("(" * n + "0" + ")" * n, {0}),
                        ("if true then " * n + "0" + " else 0" * n, {0}),
                        ("k >> {a: " * n + "0" + "}" * n, {0, 2})):
        f = tmp_path / "deep.spi"
        f.write_text(f"sessions k;\n{text}\n")
        r = subprocess.run(
            [sys.executable, "-m", "sessionpi", "check", str(f)], env=env,
            capture_output=True, text=True, timeout=300,
            preexec_fn=_limit_memory)
        assert r.returncode in codes, (text[:20], r.stderr[-500:])
        if r.returncode == 0:
            assert r.stdout.startswith("well-typed"), text[:20]
        else:
            assert r.stderr.count("\n") == 1 and not r.stdout, text[:20]


def test_run_steps_a_long_chain_beside_its_partner(tmp_path):
    # each step substitutes into, or renames, what is left of a chain:
    # both exited 2, "input nested too deeply", while rewriting recursed
    n = 60_000
    sends = "k!(1)." * n + "0"
    f = tmp_path / "pair.spi"
    f.write_text(f"sessions k;\n{sends}\n| "
                 + "".join(f"k?(x{i})." for i in range(n)) + "0\n")

    def state(i):
        return (sends[6 * i:] + " | "
                + "".join(f"k?(x{j})." for j in range(i, n)) + "0")

    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    step = "  --[Com@1,0 1]-->"
    for argv, want in (
            (["run", "--steps", "2"],
             [state(0), step, state(1), step, state(2)]),
            (["run", "--all", "--steps", "1"],
             ["2 states within 1 steps:", f"  {state(0)}", f"  {state(1)}"])):
        r = subprocess.run(
            [sys.executable, "-m", "sessionpi", *argv, str(f)], env=env,
            capture_output=True, text=True, timeout=300,
            preexec_fn=_limit_memory)
        assert r.returncode == 0, r.stderr[-500:]
        assert r.stdout.splitlines() == want, argv


@pytest.mark.parametrize("text, sel", [
    ("sessions c;\nc << go.0 | c << go.0", "+{go: end}"),
    ("sessions c;\nc << go.c!(1).0 | c << go.c?(x).0", "+{go: ![int].end}"),
    ("sessions c, k;\nk!((c)).0 | k?((d)).d << go.0 | c << go.0",
     "+{go: end}"),
])
def test_two_selections_on_one_channel_are_ill_typed(tmp_path, text, sel):
    # `unify` turned an open select against the branch view of another
    # into the same pair swapped, for ever: every subcommand that types
    # hung on these, the last with a selection received by delegation
    f = tmp_path / "sel.spi"
    f.write_text(text + "\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    body = text.split("\n")[1]
    why = ("T-Par: parallel threads disagree on channel c: cannot unify "
           f"{sel} with &{sel[1:]}, at: {body}")
    for cmd, want in (("check", [f"ill-typed: {why}"]),
                      ("transparent", ["NotWellTyped", f"  {why}"]),
                      ("progress", [f"ill-typed: {why}"])):
        r = subprocess.run([sys.executable, "-m", "sessionpi", cmd, str(f)],
                           env=env, capture_output=True, text=True,
                           timeout=30, preexec_fn=_limit_memory)
        assert r.returncode == 1, (cmd, r.stderr[-500:])
        assert r.stdout.splitlines() == want, cmd


def _limit_memory():
    """Cap a child's address space, so a blow-up fails the test rather
    than the machine."""
    resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))


def test_json_records_are_stable(capsys, spi):
    f = spi("buyer_seller")
    _, out1, _ = run(capsys, "--json", "transparent", f)
    _, out2, _ = run(capsys, "transparent", "--json", f)
    assert out1 == out2  # flag position does not matter, bytes identical
    rec = json.loads(out1)
    assert set(rec) == {"command", "verdict", "data"}
    assert rec["command"] == "transparent"


def test_selftest(capsys):
    code, data = run_json(capsys, "selftest")
    assert code == 0
    assert data["verdict"] == "pass"
    assert all(c["ok"] for c in data["data"]["checks"])


_EVERY_SAMPLE_AS_JSON = """
import sys
from pathlib import Path
from sessionpi import cli
for f in sorted(Path(sys.argv[1]).glob("*.spi")):
    for cmd in (["check"], ["graph", "--all-subterms"], ["transparent"],
                ["progress"]):
        cli.main(["--json", cmd[0], str(f), *cmd[1:]])
"""


def test_json_output_does_not_depend_on_the_hash_seed():
    src = Path(cli.__file__).resolve().parent.parent
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        r = subprocess.run(
            [sys.executable, "-c", _EVERY_SAMPLE_AS_JSON, str(SAMPLES)],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        outs.append(r.stdout)
    assert outs[0].count("\n") == 4 * len(SOURCES)
    assert outs[0] == outs[1]


def test_python_m_sessionpi_runs_the_cli(capsys):
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    for argv, want in ((["run", "--steps", "4"], 0), (["transparent"], 1)):
        f = str(SAMPLES / "circular_waits_hidden.spi")
        r = subprocess.run([sys.executable, "-m", "sessionpi", *argv, f],
                           env=env, capture_output=True, text=True,
                           timeout=120)
        assert (r.returncode, r.stdout) == run(capsys, *argv, f)[:2]
        assert r.returncode == want


def _python(version):
    """A CPython that starts, for `version` "3.10" or "newest".  For
    3.10: the `python3.10` on the path, else the newest
    `$(pyenv root)/versions/3.10.*/bin/python3.10`; for the newest: the
    newest release under `$(pyenv root)/versions` (a pyenv shim on the
    path fails unless the version is selected).  None if none starts."""
    newest = version == "newest"
    candidates = [] if newest else [shutil.which(f"python{version}")]
    pyenv = shutil.which("pyenv")
    if pyenv is not None:
        root = subprocess.run([pyenv, "root"], capture_output=True,
                              text=True, timeout=120).stdout.strip()
        pattern = r"3\.\d+\.\d+" if newest else re.escape(version) + r"\.\d+"
        installed = [d / "bin" / f"python{d.name.rsplit('.', 1)[0]}"
                     for d in Path(root).glob("versions/3.*")
                     if re.fullmatch(pattern, d.name)]
        candidates += sorted(installed, reverse=True, key=lambda exe: [
            int(n) for n in re.findall(r"\d+", exe.parts[-3])])
    for exe in filter(None, candidates):
        probe = subprocess.run([exe, "-c", "pass"], capture_output=True,
                               timeout=120)
        if probe.returncode == 0:
            return str(exe)
    return None


@pytest.mark.parametrize("version", ["3.10", "newest"])
def test_cli_runs_on_the_oldest_and_newest_python(capsys, version):
    # `requires-python` is >=3.10: no syntax, library call or regex
    # feature (such as a possessive quantifier) from a later version;
    # and the node classes lean on `namedtuple`'s `__match_args__`,
    # `_make` and method order, which a newer version could change
    exe = _python(version)
    if exe is None:
        pytest.skip(f"no working python {version} on the path or from pyenv")
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    for f in sorted(SAMPLES.glob("*.spi")):
        for command in ("check", "graph", "run", "progress"):
            argv = ["--json", command, str(f)]
            r = subprocess.run([exe, "-m", "sessionpi", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
            assert (r.returncode, r.stdout) == run(capsys, *argv)[:2], argv


def _fuzz_inputs(rng, n):
    samples = sorted(SOURCES.values())
    for i in range(n):
        if i % 2:
            soup = " ".join(rng.choice(S.SOUP)
                            for _ in range(rng.randint(1, 12)))
            yield ("sessions k;\nenv a : <?[int].end>;\n" if i % 4 == 1
                   else "") + soup
        else:
            s = rng.choice(samples)
            a = rng.randrange(len(s))
            yield s[:a] + rng.choice(S.SOUP) + s[a + rng.randint(0, 8):]


def test_cli_contract_on_fuzzed_inputs(capsys, tmp_path):
    """Every input gets exit 0, 1 or 2, at most one line on stderr and,
    with --json, one JSON record or nothing on stdout."""
    f = tmp_path / "fuzz.spi"
    for text in _fuzz_inputs(random.Random(7), 150):
        f.write_text(text)
        for cmd in (["check"], ["transparent"], ["progress", "--depth", "2"],
                    ["run", "--steps", "20"], ["run", "--all", "--steps", "3"],
                    ["graph", "--all-subterms"], ["graph", "--dot", "-"]):
            for flags in ([], ["--json"]):
                code, out, err = run(capsys, *flags, cmd[0], str(f), *cmd[1:])
                assert code in (0, 1, 2), text
                assert "Traceback" not in out + err and err.count("\n") <= 1, text
                if flags and out:
                    json.loads(out)


_TYPE_SOUP = "end ? ! [ ] . , : < > & + { } int bool ok k ![ &{ #".split()
_CHANS = ["k", "k2", "_k", "", " ", "x y", "k!", "1k", "end", "new", "int",
          "#k", "#", "²", "k // c", "k\n", "ok"]


def _session_type(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return "end"
    t = _session_type(rng, depth - 1)
    u = _session_type(rng, depth - 1)
    return rng.choice([f"?[int].{t}", f"![bool].{t}", f"![<{u}>].{t}",
                       f"?[{u}].{t}", f"![{u}].{t}", f"&{{ok: {t}, no: {u}}}",
                       f"+{{ok: {t}, no: {u}}}"])


def test_inhabit_contract_on_fuzzed_inputs(capsys):
    """Every type string and --chan value gets exit 0, or exit 2 with
    one line on stderr; with --json, one JSON record or nothing."""
    rng = random.Random(11)
    for i in range(200):
        ty = _session_type(rng, 4)
        if i % 3:  # splice in a token
            a = rng.randrange(len(ty))
            ty = ty[:a] + rng.choice(_TYPE_SOUP) + ty[a + rng.randint(0, 3):]
        chan = rng.choice(_CHANS) if i % 2 else "k"
        for flags in ([], ["--json"]):
            argv = [*flags, "inhabit", ty, "--chan", chan]
            code, out, err = run(capsys, *argv)
            assert "Traceback" not in out + err, argv
            assert (code, err.count("\n")) in ((0, 0), (2, 1)), argv
            if flags and out:
                json.loads(out)


def test_every_traced_function_exists():
    # the benchmark's tracer and self-check look these up by name, the
    # tracer in `sys.modules`: importing `cli` alone must load every
    # traced module, or a run that used only some of them could not be
    # traced
    traced = S.bench_module("spans").TRACED
    for mod, fn in traced:
        module = importlib.import_module(f"sessionpi.{mod}")
        assert callable(getattr(module, fn, None)), f"{mod}.{fn}"
    src = Path(cli.__file__).resolve().parent.parent
    probe = ("import sys, sessionpi.cli; print(*sorted(m for m in sys.modules"
             " if m.startswith('sessionpi.')))")
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                       text=True, check=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": str(src)})
    loaded = set(r.stdout.split())
    assert {f"sessionpi.{mod}" for mod, _ in traced} <= loaded, loaded


# The golden transcript: every output-producing command on every sample,
# in text and --json, byte for byte.  Regenerate it only when an output
# is meant to change, with `PYTHONPATH=src python tests/test_cli.py`.
GOLDEN = Path(__file__).resolve().parent / "golden" / "samples.txt"
_GOLDEN_COMMANDS = (
    ["check"], ["graph"], ["graph", "--all-subterms"], ["transparent"],
    ["run"], ["run", "--seed", "3"], ["run", "--all", "--steps", "6"],
    ["progress"], ["progress", "--subset-budget", "3"],
)


def golden_transcript() -> str:
    parts = []
    for f in sorted(SAMPLES.glob("*.spi")):
        for cmd in _GOLDEN_COMMANDS:
            for flags in ([], ["--json"]):
                argv = [*flags, cmd[0], str(f), *cmd[1:]]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                shown = " ".join([*flags, cmd[0], f"samples/{f.name}",
                                  *cmd[1:]])
                parts.append(f"$ sessionpi {shown}\n--- exit {code}\n"
                             f"--- stdout\n{out.getvalue()}"
                             f"--- stderr\n{err.getvalue()}")
    return "".join(parts)


def test_cli_output_matches_the_golden_transcript():
    want = GOLDEN.read_text()
    got = golden_transcript()
    assert got.count("\n$ sessionpi ") + 1 == 18 * len(SOURCES)
    assert got == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_transcript())
