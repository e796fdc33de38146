"""The benchmark imports toolkit names directly; a rename or deletion in
`src/` must fail here, not only when the benchmark next runs. Its own
correctness checks run here too, on a seeded slice of its inputs."""

import importlib
import sys
from pathlib import Path

import pytest

from regexbias.textio import write_fst_text

from conftest import replace_eager

BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_MODULES = ("inputs", "measure", "workloads")
SLOW_RUNGS = ("ladder11", "ladder12")   # 2**12 and 2**13 DFA states
ENTITY_REQUESTS = 100
SPLICE_REQUESTS = 20


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's `workloads` and `measure` modules, imported from bench/."""
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("measure")
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


def test_benchmark_workloads_import(bench):
    workloads, _ = bench
    assert set(workloads.WORKLOADS) == {"root-build", "regex-requests", "regex-ladder"}


def test_benchmark_checks_pass_on_seed_1(bench):
    workloads, measure = bench
    off = measure.NullTracer()
    ladder = workloads.RegexLadder(1)
    ladder.setup(off)
    requests = workloads.RegexRequests(1)
    requests.setup(off)
    regexes = [rx for rx in ladder.regexes if rx.family not in SLOW_RUNGS]
    regexes += [requests.item(i) for i in range(ENTITY_REQUESTS)]
    problems = []
    for rx in regexes:
        t_r = workloads.compile_regex(rx, ladder.alphabet, off).t_r
        problems += workloads.check_regex(rx, t_r, ladder.alphabet)

    # whole requests, so the splice check runs on the spliced roots
    for i in range(requests.splice_checks):
        item, out = requests.item(i), {}
        requests.request(item, off, out)
        problems += requests.check(i, item, out)
    assert requests.splices_checked == requests.splice_checks

    root_build = workloads.RootBuild(1)
    root_build.setup(off)
    item, out = root_build.item(0), {}
    root_build.request(item, off, out)
    problems += root_build.check(0, item, out)
    assert problems == []


def test_request_splices_equal_eager_splice(bench):
    workloads, measure = bench
    off = measure.NullTracer()
    requests = workloads.RegexRequests(1)
    requests.setup(off)
    root = requests.lm.root
    for i in range(SPLICE_REQUESTS):
        item, out = requests.item(i), {}
        requests.request(item, off, out)
        oracle = replace_eager(root, requests.nonterminal, out["compiled"].t_r)
        assert write_fst_text(out["spliced"]) == write_fst_text(oracle), item.text
