"""Seeded end-to-end and per-layer benchmark for regexbias.

    python3 bench/run.py --workload root-build --seed 1 --seconds 30 --trace 0

Run from the repository root. Each workload (see `workloads.py`) is a
closed loop with one client: set up, then send request after request until
`--seconds` have passed, then check the outputs. The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and the gated
`metrics`; the lines above it print those and the ungated ones by name,
with units and sample counts.

`--trace 0` reports the end-to-end metrics, measured untraced; times are
also normalised to an uncontended host by a reference workload sampled
while they run (`measure.HostClock`), and the raw times are printed beside
them. `--trace 1`
first repeats that untraced loop, then runs it again with a span around
every call into a layer plus standalone `ops` probes, and reports the
per-layer metrics, the tracing overhead and bytes per arc; it also writes
every span to `.bench_out/trace-<workload>-<seed>.json`. `measure.py` holds
the span recorder and percentiles.

`--workload all` runs every workload in its own process, one after another.
"""

import argparse
import gc
import json
import resource
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from measure import HostClock, NullTracer, Tracer, p50, p95

REPO = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("root-build", "regex-requests", "regex-ladder")
# gated end-to-end metrics; the summary lines print more (see `end_to_end`)
END_TO_END = ("setup_s", "request_ms_p50", "peak_rss_mb")
# set-ups repeat at least `setup_repeats` times and until they took this long
SETUP_LEAST_S = 0.5

# per-layer metric -> (span name, count key or "ms" for mean self time, unit)
LAYER_METRICS = {
    **{f"lm.{f}.ms": (f"lm.{f}", "ms", "ms") for f in (
        "count_ngrams", "build_grammar", "build_lexicon", "add_char_fallback",
        "insert_nonterminal", "build_root")},
    "lm.build_root.arcs_in": ("lm.build_root", "arcs_in", "count"),
    "lm.build_root.states_out": ("lm.build_root", "states_out", "count"),
    "lm.build_root.arcs_out": ("lm.build_root", "arcs_out", "count"),
    "ops.compose.ms": ("ops.compose", "ms", "ms"),
    "ops.compose.arcs_out": ("ops.compose", "arcs_out", "count"),
    "ops.determinize.ms": ("ops.determinize", "ms", "ms"),
    "ops.determinize.states_out": ("ops.determinize", "states_out", "count"),
    "ops.determinize.arcs_out": ("ops.determinize", "arcs_out", "count"),
    "ops.minimize.ms": ("ops.minimize", "ms", "ms"),
    "ops.minimize.states_out": ("ops.minimize", "states_out", "count"),
    "ops.replace.ms": ("ops.replace", "ms", "ms"),
    "ops.replace.arcs_out": ("ops.replace", "arcs_out", "count"),
    "grammar.parse_grammar.ms": ("grammar.parse_grammar", "ms", "ms"),
    "compiler.ast_to_nfa.ms": ("compiler.ast_to_nfa", "ms", "ms"),
    "compiler.ast_to_nfa.states_out": ("compiler.ast_to_nfa", "states_out", "count"),
    "compiler.nfa_to_dfa.ms": ("compiler.nfa_to_dfa", "ms", "ms"),
    "compiler.nfa_to_dfa.states_out": ("compiler.nfa_to_dfa", "states_out", "count"),
    "compiler.dfa_to_acceptor.ms": ("compiler.dfa_to_acceptor", "ms", "ms"),
    "compiler.apply_bias.ms": ("compiler.apply_bias", "ms", "ms"),
    "compiler.apply_bias.arcs_out": ("compiler.apply_bias", "arcs_out", "count"),
    "textio.write_fst_text.ms": ("textio.write_fst_text", "ms", "ms"),
    "textio.read_fst_text.ms": ("textio.read_fst_text", "ms", "ms"),
    "textio.bytes": ("textio.write_fst_text", "bytes", "bytes"),
}


@dataclass
class Phase:
    """What one closed loop measured and found."""

    ok_ms: list = field(default_factory=list)       # successful request latencies
    failed_ms: list = field(default_factory=list)   # time until the request raised
    all_ms: list = field(default_factory=list)      # every request, in order
    extra: dict = field(default_factory=dict)       # sub-timings a request reports
    failures: Counter = field(default_factory=Counter)
    first_error: dict = field(default_factory=dict)  # exception type -> message
    problems: list = field(default_factory=list)
    clock: HostClock | None = None                  # times every request

    @property
    def attempted(self):
        return len(self.all_ms)


def closed_loop(workload, seconds, tracer, probe=False, calibrate=True):
    """Send requests one after another until `seconds` have passed and a
    pass is complete. Inputs, checks and probes run outside each request's
    timing; each distinct input is probed once. Returns the Phase and the
    last request's outputs."""
    phase = Phase(clock=HostClock(calibrate))
    with phase.clock:
        return phase, run_requests(workload, seconds, tracer, probe, phase)


def run_requests(workload, seconds, tracer, probe, phase):
    probed = set()    # ids of items already probed; workloads keep their items
    deadline = perf_counter() + seconds
    i = 0
    while True:
        item = workload.item(i)
        out = {}
        with tracer.span("request", unit=("request", i)):
            started = phase.clock.start()
            try:
                workload.request(item, tracer, out)
            except Exception as exc:  # a failed request is counted, never fatal
                ms = phase.clock.stop(started, "failed") * 1e3
                phase.failed_ms.append(ms)
                phase.failures[type(exc).__name__] += 1
                phase.first_error.setdefault(type(exc).__name__, str(exc))
            else:
                ms = phase.clock.stop(started, "ok") * 1e3
                phase.ok_ms.append(ms)
        phase.all_ms.append(ms)
        for key, value in out.pop("timings", {}).items():
            phase.extra.setdefault(key, []).append(value)
        phase.problems += workload.check(i, item, out)
        if probe and id(item) not in probed:
            probed.add(id(item))
            workload.probe(i, item, out, tracer)
        i += 1
        if i % workload.batch == 0 and perf_counter() >= deadline:
            return out


def latency_basis(phase):
    """Normalised latencies of successful requests, in ms; when none
    succeeded, the times until each request failed, so a run that fails
    everything still reports how long its clients waited."""
    tag, which = ("ok", "successful") if phase.ok_ms else ("failed", "failed, none succeeded")
    return [s * 1e3 for s in phase.clock.normalised(tag)], which


def end_to_end(workload, phase, setups):
    """Rows of (name, value, unit, samples, note) for the untraced run.

    Set-up and request times are normalised to an uncontended host (see
    `measure.HostClock`); the raw medians and the host's slowdown are
    printed too, and the workloads' own rows are raw.
    """
    basis, which = latency_basis(phase)
    raw = phase.ok_ms or phase.failed_ms
    slowdowns = setups.slowdowns + phase.clock.slowdowns
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rows = [
        ("setup_s", p50(setups.normalised()), "s", len(setups.intervals),
         "median set-up, normalised"),
        ("request_ms_p50", p50(basis), "ms", len(basis), f"whole run, {which}, normalised"),
        ("peak_rss_mb", rss_mb, "MB", 1, "this process"),
        ("request_ms_p95", p95(basis), "ms", len(basis),
         f"{which}, normalised" if len(basis) >= 200 else "under 200 samples, not resolved"),
        ("requests_per_s", len(basis) / (sum(basis) / 1e3), "1/s", len(basis),
         "closed loop, one client, normalised"),
        ("host_slowdown", p50(slowdowns), "x", len(slowdowns),
         "reference work time over an uncontended host's"),
        ("raw_setup_s", p50(setups.times()), "s", len(setups.intervals),
         "median set-up, wall clock"),
        ("raw_request_ms_p50", p50(raw), "ms", len(raw), f"whole run, {which}, wall clock"),
    ]
    return rows + workload.summary(phase)


def overhead_pct(untraced, traced):
    """Traced minus untraced time over the requests both loops completed."""
    k = min(untraced.attempted, traced.attempted)
    base = sum(untraced.all_ms[:k])
    return 100.0 * (sum(traced.all_ms[:k]) - base) / base


def bytes_per_arc(machine):
    """tracemalloc'd size of the machine as read back from text, per arc."""
    from regexbias.textio import read_fst_text, write_fst_text

    text = write_fst_text(machine)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        copy = read_fst_text(text, machine.isymbols, machine.osymbols)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return used / copy.num_arcs()


def per_layer(tracer, untraced, traced, machine):
    totals = tracer.layer_totals()
    rows = []
    for name, (span, key, unit) in LAYER_METRICS.items():
        value = totals.get(span, {}).get(key, 0)
        rows.append((name, value, unit, 0, "self time per unit" if key == "ms" else "per unit"))
    rows.append(("fst.bytes_per_arc", bytes_per_arc(machine), "bytes", machine.num_arcs(),
                 "largest machine, tracemalloc"))
    rows.append(("trace.overhead_pct", overhead_pct(untraced, traced), "%",
                 min(untraced.attempted, traced.attempted), "traced vs untraced requests"))
    return rows


def print_rows(rows):
    for name, value, unit, n, note in rows:
        count = f"n={n}" if n else ""
        print(f"  {name:32s} {value:14.4f} {unit:6s} {count:8s} {note}")


def run_workload(args):
    if not (REPO / "src" / "regexbias" / "__init__.py").is_file():
        print(f"regexbias sources not found under {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else NullTracer()
    calibrate = not args.trace    # the traced run reports raw times only
    with HostClock(calibrate) as setups:
        while len(setups.intervals) < workload.setup_repeats or sum(setups.times()) < SETUP_LEAST_S:
            gc.collect()    # each set-up starts from a heap without the last one's garbage
            started = setups.start()
            workload.setup(tracer)
            setups.stop(started)
    # drop the last outputs at once: live machines slow the next loop's GC
    untraced, _ = closed_loop(workload, args.seconds, NullTracer(), calibrate=calibrate)
    phases = [untraced]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    if args.trace:
        traced, last_out = closed_loop(workload, args.seconds, tracer, probe=True,
                                       calibrate=False)
        phases.append(traced)
        rows = per_layer(tracer, untraced, traced, workload.largest(last_out))
        out = REPO / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(out, {"workload": args.workload, "seed": args.seed,
                           "metrics": {name: v for name, v, *_ in rows}})
        print(f"  spans: {len(tracer.spans)} written to {out.relative_to(REPO)}")
    else:
        rows = end_to_end(workload, untraced, setups)
    print_rows(rows)
    attempted = sum(p.attempted for p in phases)
    failed = sum(len(p.failed_ms) for p in phases)
    failures = sum((p.failures for p in phases), Counter())
    problems = [msg for p in phases for msg in p.problems]
    print(f"  fail_ratio {failed / attempted:.4f} ({failed}/{attempted})"
          + "".join(f" {kind}={n}" for kind, n in sorted(failures.items())))
    for kind, msg in sorted({k: v for p in phases for k, v in p.first_error.items()}.items()):
        print(f"    first {kind}: {msg}")
    print(f"  checks: {'ok' if not problems else f'{len(problems)} wrong outputs'}")
    for msg in problems[:20]:
        print(f"    WRONG: {msg}")
    reported = rows if args.trace else [row for row in rows if row[0] in END_TO_END]
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, *_ in reported},
    }))
    return 0 if not problems else 1


def run_all(args):
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
