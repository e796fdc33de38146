"""The benchmark imports toolkit names directly; a rename or deletion in
`src/` must fail here, not only when the benchmark next runs. Its own
correctness checks run here too, on a seeded slice of its inputs, and so
does its self-test."""

import importlib
import random
import subprocess
import sys
from pathlib import Path

import pytest

from regexbias.compiler import compile_biased
from regexbias.fst import Wfst
from regexbias.ops import replace
from regexbias.textio import write_fst_text

from conftest import replace_eager

BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_MODULES = ("inputs", "measure", "workloads")
SLOW_RUNGS = ("ladder11", "ladder12")   # 2**12 and 2**13 DFA states
ENTITY_REQUESTS = 100
SPLICE_REQUESTS = 20
NEUTRAL_REQUESTS = 50
PROBE_VOCAB = 100


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


def test_neutral_alpha_costs_what_char_fallback_costs(bench):
    # at alpha = char_fallback_penalty and nonterminal_weight 0, a spliced
    # entity ties with its char tokens, so the view's best path costs what
    # the root's does with its `$REGEX` call sites dropped, as a splice of
    # an empty machine drops them
    workloads, measure = bench
    requests = workloads.RegexRequests(1)
    requests.setup(measure.NullTracer())
    lm = requests.lm
    assert lm.cfg.nonterminal_weight == 0.0
    neutral = lm.cfg.char_fallback_penalty
    plain = replace(lm.root, requests.nonterminal, Wfst(requests.alphabet))
    rng = random.Random(1)
    for i in range(NEUTRAL_REQUESTS):
        item = requests.item(i)
        _, _, t_r = compile_biased(item.text, requests.alphabet, neutral)
        view = replace(lm.root, requests.nonterminal, t_r)
        for entity in item.positives:
            w1, w2 = rng.choice(lm.vocab), rng.choice(lm.vocab)
            sentence = f"{w1} {entity} {w2}"
            outs, cost = workloads.best_path(sentence, lm.charset, view)
            base_outs, base = workloads.best_path(sentence, lm.charset, plain)
            assert outs == base_outs and cost == pytest.approx(base, abs=1e-9), item.text


def test_traced_root_probe_completes(bench):
    # root-build's traced probe determinizes L' o G' without `#0`, so G's
    # eps:eps backoff arcs reach determinize as a label pair of their own
    workloads, measure = bench
    inputs = importlib.import_module("inputs")
    corpus = inputs.lm_inputs(random.Random(1), PROBE_VOCAB).corpus
    lm = workloads.build_lm_root(corpus, measure.NullTracer())
    tracer = measure.Tracer()
    workloads.probe_ops(tracer, ("probe", 0), (lm.l_prime, lm.g_prime))
    counts = {rec["name"]: rec["counts"] for rec in tracer.spans}
    assert counts["ops.determinize"]["states_out"] >= counts["ops.minimize"]["states_out"] > 0


def test_selftest_passes_on_seed_1():
    # `python3 bench/selftest.py --seed 1`: three child processes, one after
    # another, each building every workload's inputs and machines
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py"), "--seed", "1"],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest ok"
