"""Benchmark self-test: inputs and machine sizes are a function of the seed.

    python3 bench/selftest.py --seed 1

Builds every workload's inputs and the machines they lead to in three fresh
processes: twice for `--seed` under different hash seeds, once for the next
seed. The two runs of one seed must agree exactly on inputs and on counts
(root states and arcs, text bytes, DFA states); the other seed must change
every workload's inputs. The traced, step-by-step compile must also build
the same machine as `compile_biased`, and `BENCHMARK.json` must name the
metrics `run.py` reports. Exits 0 when all of this holds.
"""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
REQUESTS = 40


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def fingerprint(seed):
    """{workload: {"inputs": hash, "counts": [...]}} for one seed."""
    sys.path.insert(0, str(REPO / "src"))
    import inputs
    import workloads
    from measure import NullTracer, Tracer

    off = NullTracer()
    out = {}

    root_build = workloads.RootBuild(seed)
    root_build.setup(off)
    built = {}
    root_build.request(root_build.item(0), off, built)
    out["root-build"] = {
        "inputs": digest(root_build.inputs),
        "counts": [workloads.machine_counts(built["lm"].root), len(built["text"])],
    }

    requests = workloads.RegexRequests(seed)
    requests.setup(off)
    items = [requests.item(i) for i in range(REQUESTS)]
    out["regex-requests"] = {
        "inputs": digest((inputs.lm_inputs(random.Random(seed), requests.vocab_size), items)),
        "counts": [workloads.machine_counts(requests.lm.root)]
                  + [dfa_states(rx, requests.alphabet) for rx in items],
    }

    ladder = workloads.RegexLadder(seed)
    ladder.setup(off)
    out["regex-ladder"] = {
        "inputs": digest(ladder.regexes),
        "counts": [dfa_states(rx, ladder.alphabet) for rx in ladder.regexes],
    }
    # the traced compile path must build what compile_biased builds
    for rx in items[:5] + list(ladder.regexes[:5]):
        traced = workloads.compile_regex(rx, ladder.alphabet, Tracer()).t_r
        plain = workloads.compile_regex(rx, ladder.alphabet, off).t_r
        if workloads.machine_counts(traced) != workloads.machine_counts(plain):
            out["traced-compile-mismatch"] = rx.text
    return out


def dfa_states(rx, alphabet):
    """Minimal DFA states and T_r arcs of one regex."""
    from regexbias.compiler import ast_to_nfa, compile_biased, nfa_to_dfa
    from regexbias.grammar import parse_grammar

    dfa = nfa_to_dfa(ast_to_nfa(parse_grammar(rx.text).export_ast(), alphabet))
    return dfa.num_states(), compile_biased(rx.text, alphabet, rx.alpha)[2].num_arcs()


def benchmark_json_problems():
    """BENCHMARK.json must name exactly the metrics and workloads run.py reports."""
    import run

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    layer = {name: unit for name, (_, _, unit) in run.LAYER_METRICS.items()}
    layer.update({"fst.bytes_per_arc": "bytes", "trace.overhead_pct": "%"})
    problems = []
    if [m["name"] for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != layer:
        problems.append("BENCHMARK.json per_layer differs from run.py's layer metrics")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")
    return problems


def child(seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run([sys.executable, __file__, "--fingerprint", str(seed)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--fingerprint", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.fingerprint is not None:
        print(json.dumps(fingerprint(args.fingerprint)))
        return 0

    failures = benchmark_json_problems()
    first, again, other = child(args.seed, 1), child(args.seed, 2), child(args.seed + 1, 1)
    for name, fp in first.items():
        if name == "traced-compile-mismatch":
            failures.append(f"traced compile differs from compile_biased for {fp}")
            continue
        same = fp == again.get(name)
        changed = fp["inputs"] != other[name]["inputs"]
        print(f"{name:15s} counts {fp['counts'][:3]}... same seed identical: {same}; "
              f"seed {args.seed + 1} changes inputs: {changed}")
        if not same:
            failures.append(f"{name}: seed {args.seed} gave {fp} and {again.get(name)}")
        if not changed:
            failures.append(f"{name}: seeds {args.seed} and {args.seed + 1} gave the same inputs")
    for msg in failures:
        print("FAIL:", msg)
    print("selftest", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
