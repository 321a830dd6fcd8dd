"""`run_corpus` in forked helper processes against the sequential loop.

An untimed run may use one process per CPU. These tests force that path by
giving `harness._available_cpus` a count, and check that the run equals the
one in this process alone, errors, crashes and all, that every helper is
reaped, and that the runs which must stay sequential never fork.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from pathlib import Path

import pytest

from conftest import budget
from oadetect import harness
from oadetect.engine import AnalysisBudget, Mode
from oadetect.frontend import SourceUnit
from oadetect.harness import Scenario, bundled_corpus_dir, load_bundled, run_corpus, write_tables
from test_byte_identity import TABLES, WORKLOAD_DIGESTS, WORKLOAD_SEED, _bench_workloads

pytestmark = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.fork and CPU affinity")

MODES = [Mode.NOPA, Mode.PA, Mode.HYBRID]


def _open_fds() -> set:
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


@pytest.fixture(autouse=True)
def reaped():
    """Every test here leaves no child process and no open pipe behind."""
    before = _open_fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == before


@pytest.fixture
def forks(monkeypatch) -> list:
    """The pids `os.fork` returns in this process, one per helper."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def came_back(monkeypatch) -> list:
    """The indexes whose attempt came back from the processes, per run."""
    runs = []
    real = harness._attempt_in_processes

    def attempt_in_processes(*args):
        done = real(*args)
        runs.append(sorted(done))
        return done

    monkeypatch.setattr(harness, "_attempt_in_processes", attempt_in_processes)
    return runs


def sequential(corpus, bud=None) -> harness.CorpusRun:
    """The run in this process alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_available_cpus", lambda: 1)
        return run_corpus(corpus, MODES, budget=budget() if bud is None else bud)


def copies(n: int) -> list[Scenario]:
    """`fig1_simple` under `n` ids of its own."""
    s = load_bundled("fig1_simple")
    return [s._replace(id=f"s{i}") for i in range(n)]


@pytest.fixture(scope="module")
def workloads(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("workloads")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("OA_SEED", raising=False)  # as the benchmark builds its workloads
        return {name: _bench_workloads().build_workload(name, root / name, WORKLOAD_SEED)
                for name in sorted(WORKLOAD_DIGESTS)}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_DIGESTS))
def test_helpers_give_the_sequential_run_on_each_workload(workload, workloads, forks, came_back, monkeypatch,
                                                         tmp_path):
    wl = workloads[workload]
    corpus = harness.scenario_dirs(wl.root)
    bud = budget(**wl.budget)
    want = sequential(corpus, bud=bud)
    assert forks == []
    # More processes than this host has CPUs, and than gate-bundled's 4
    # scenarios would take: a record lost or taken twice would show.
    monkeypatch.setattr(harness, "_available_cpus", lambda: 4)
    monkeypatch.setattr(harness, "SCENARIOS_PER_PROCESS", 1)
    here = []  # the scenarios this process ran; helpers run the others
    real = harness.run_scenario

    def run_scenario(s, *args):
        here.append(s.id)
        return real(s, *args)

    monkeypatch.setattr(harness, "run_scenario", run_scenario)
    got = run_corpus(corpus, MODES, budget=bud)
    assert len(forks) == 3 and came_back == [list(range(len(corpus)))]
    assert len(set(here)) == len(here) and (len(here) < len(corpus) or len(corpus) <= 4)
    assert got == want and got.errors == []
    write_tables(want, MODES, tmp_path / "want")
    write_tables(got, MODES, tmp_path / "got")
    for name in TABLES:
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()


def test_the_queue_takes_what_fits_and_keeps_the_rest():
    # A corpus whose records outgrow the pipe must not block the process
    # that feeds the queue, as it takes scenarios from it too.
    records = b"".join(i.to_bytes(harness._RECORD, "little") for i in range(100_000))
    r, w = os.pipe()
    try:
        os.set_blocking(w, False)
        left = harness._feed(w, memoryview(records))
        fed = len(records) - len(left)
        assert 0 < fed < len(records) and fed % harness._RECORD == 0
        os.set_blocking(r, False)
        got = b""
        while len(got) < fed:
            got += os.read(r, fed - len(got))
        assert got == records[:fed]
        assert len(harness._feed(w, left)) < len(left)  # room again: the rest goes on
    finally:
        os.close(r)
        os.close(w)


def test_a_full_queue_leaves_this_process_the_records_it_does_not_hold(forks, came_back, monkeypatch):
    # As if the pipe held two records: this process takes the others itself.
    real = harness._feed

    def small_pipe(fd, records):
        piece = 2 * harness._RECORD
        return memoryview(bytes(real(fd, records[:piece])) + bytes(records[piece:]))

    corpus = copies(12)
    want = sequential(corpus)
    monkeypatch.setattr(harness, "_feed", small_pipe)
    monkeypatch.setattr(harness, "_available_cpus", lambda: 3)
    assert run_corpus(corpus, MODES, budget=budget()) == want
    assert len(forks) == 2 and came_back == [list(range(len(corpus)))]


def test_errors_come_out_in_corpus_order(tmp_path, forks, monkeypatch):
    def scenario_dir(name: str, source: str) -> Path:
        return Path(shutil.copytree(bundled_corpus_dir() / source, tmp_path / name))

    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "scenario.json").write_text(json.dumps({"id": 3, "sources": ["A.mir"]}))
    broken = Scenario(id="broken", project="broken", sources=[SourceUnit("b.mir", "class A {\n  field x: int\n}\n")])
    corpus = [
        scenario_dir("a_simple", "fig1_simple"),
        bad,
        load_bundled("mkref"),
        scenario_dir("b_simple", "fig1_simple"),  # its unit id is taken
        broken,
        load_bundled("fig1_advanced"),
        load_bundled("fig1_simple"),  # taken too
        load_bundled("deep_hierarchy"),
    ]
    want = sequential(corpus)
    monkeypatch.setattr(harness, "_available_cpus", lambda: 2)
    got = run_corpus(corpus, MODES, budget=budget())
    assert len(forks) == 1
    assert got == want
    assert [sid for sid, _ in got.errors] == ["bad", "fig1_simple", "broken", "fig1_simple"]
    assert got.errors[1][1] == f"{corpus[3]}: unit id 'fig1_simple' is already taken by an earlier scenario"
    assert list(got.by_unit()) == ["fig1_simple", "mkref", "fig1_advanced", "deep-hierarchy"]


def _wait_for(path: Path) -> None:
    """Until a helper has written `path`; the test fails after 30 s."""
    deadline = time.monotonic() + 30
    while not path.exists():
        assert time.monotonic() < deadline, f"no helper wrote {path.name}"
        time.sleep(0.005)


def test_an_unexpected_error_in_a_helper_propagates(tmp_path, forks, monkeypatch):
    # Every scenario raises. The parent holds its first until a helper has
    # raised on one of the others; the error that propagates is the first
    # scenario's, as in the sequential loop.
    parent, raised = os.getpid(), tmp_path / "raised"

    def run_scenario(s, *args):
        if os.getpid() != parent:
            raised.touch()
        else:
            _wait_for(raised)
        raise RuntimeError(f"bug in {s.id}")

    monkeypatch.setattr(harness, "run_scenario", run_scenario)
    monkeypatch.setattr(harness, "_available_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match=r"^bug in s0$"):
        run_corpus(copies(8), MODES, budget=budget())
    assert len(forks) == 1 and raised.exists()


def test_the_first_unexpected_error_in_corpus_order_propagates(forks, monkeypatch):
    # A queue that takes no record leaves every one to this process, which
    # takes them from the end: it meets s7's error first, and s0's is raised.
    def run_scenario(s, *args):
        raise RuntimeError(f"bug in {s.id}")

    monkeypatch.setattr(harness, "_feed", lambda fd, records: records)
    monkeypatch.setattr(harness, "run_scenario", run_scenario)
    monkeypatch.setattr(harness, "_available_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match=r"^bug in s0$"):
        run_corpus(copies(8), MODES, budget=budget())
    assert len(forks) == 1


def test_a_killed_helpers_scenarios_run_again_here(tmp_path, forks, monkeypatch):
    # The parent holds its first scenario until the helper has died, so the
    # helper takes the rest and leaves through `os._exit` on its second,
    # with one result done and never sent.
    parent, died = os.getpid(), tmp_path / "died"
    real = harness.run_scenario
    taken = []

    def run_scenario(s, *args):
        if os.getpid() == parent:
            _wait_for(died)
        else:
            taken.append(s.id)
            if len(taken) == 2:
                died.write_text(" ".join(taken))
                os._exit(7)
        return real(s, *args)

    corpus = copies(8)
    want = sequential(corpus)
    monkeypatch.setattr(harness, "run_scenario", run_scenario)
    monkeypatch.setattr(harness, "_available_cpus", lambda: 2)
    got = run_corpus(corpus, MODES, budget=budget())
    assert len(forks) == 1 and len(died.read_text().split()) == 2
    assert got == want and got.errors == []


@pytest.mark.parametrize("case", ["wall clock", "default budget", "one CPU", "four scenarios", "two threads"])
def test_these_runs_never_fork(case, monkeypatch):
    def fork():
        raise AssertionError("os.fork called")

    corpus = copies(4 if case == "four scenarios" else 8)
    bud = {"wall clock": AnalysisBudget(wall_clock=60.0), "default budget": None}.get(case, budget())
    if case == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.setattr(harness, "_available_cpus", lambda: 8)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    if case == "two threads":
        other.start()
    monkeypatch.setattr(os, "fork", fork)
    try:
        run = run_corpus(corpus, [Mode.NOPA], budget=bud)
    finally:
        stop.set()
        if other.is_alive():
            other.join()
    assert run.errors == [] and len(run.results) == len(corpus)


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="needs two CPUs")
def test_an_untimed_run_on_two_cpus_forks(forks):
    corpus = copies(8)
    assert run_corpus(corpus, MODES, budget=budget()) == sequential(corpus)
    assert len(forks) == 1
