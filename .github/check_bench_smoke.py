"""Check the stdout of `bench/run.py --workload all`, saved to a file.

    python3 .github/check_bench_smoke.py bench-smoke.txt

Fails unless the three workloads reported and each one's last line is JSON
with `"correct": true` and `"failed": 0`. A run is traced when its
metrics go beyond the gated end-to-end ones; a traced run must show that
each workload's own layers ran, by reporting above 0:

* root-build: `ops.minimize.ms`;
* regex-requests: `compiler.ast_to_nfa.ms` and `ops.replace.ms`;
* regex-ladder: `compiler.nfa_to_dfa.ms`.
"""

import json
import sys

END_TO_END = {"setup_s", "request_ms_p50", "peak_rss_mb"}
OWN_LAYERS = {
    "root-build": ("ops.minimize.ms",),
    "regex-requests": ("compiler.ast_to_nfa.ms", "ops.replace.ms"),
    "regex-ladder": ("compiler.nfa_to_dfa.ms",),
}


def check(ok, message):
    if not ok:
        sys.exit(f"benchmark smoke check failed: {message}")


def main(path):
    with open(path) as f:
        blocks = f.read().split("# workload=")[1:]
    check(len(blocks) == 3, f"{len(blocks)} workloads reported")
    for block in blocks:
        header = block.splitlines()[0]
        workload = header.split()[0]
        check(workload in OWN_LAYERS, f"unknown workload {workload}")
        last = json.loads(block.strip().splitlines()[-1])
        check(last["correct"] is True and last["failed"] == 0, header)
        metrics = last["metrics"]
        if metrics.keys() - END_TO_END:
            for layer in OWN_LAYERS[workload]:
                metric = metrics.get(layer)
                check(metric is not None and metric["value"] > 0, f"{header}: no {layer} time")
    print(f"benchmark smoke run ok: {path}")


if __name__ == "__main__":
    main(sys.argv[1])
