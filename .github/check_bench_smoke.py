"""Check the stdout of `bench/run.py --workload all`, saved to a file.

    python3 .github/check_bench_smoke.py bench-smoke.txt

Fails unless three workloads reported and each one's last line is JSON
with `"correct": true` and `"failed": 0`. A run is traced when its
metrics go beyond the gated end-to-end ones; a traced root-build must
report `ops.minimize.ms` above 0.
"""

import json
import sys

END_TO_END = {"setup_s", "request_ms_p50", "peak_rss_mb"}


def check(ok, message):
    if not ok:
        sys.exit(f"benchmark smoke check failed: {message}")


def main(path):
    with open(path) as f:
        blocks = f.read().split("# workload=")[1:]
    check(len(blocks) == 3, f"{len(blocks)} workloads reported")
    for block in blocks:
        header = block.splitlines()[0]
        last = json.loads(block.strip().splitlines()[-1])
        check(last["correct"] is True and last["failed"] == 0, header)
        metrics = last["metrics"]
        if header.startswith("root-build ") and metrics.keys() - END_TO_END:
            minimize = metrics.get("ops.minimize.ms")
            check(minimize is not None and minimize["value"] > 0, f"{header}: no minimize time")
    print(f"benchmark smoke run ok: {path}")


if __name__ == "__main__":
    main(sys.argv[1])
