"""The machines built from the benchmark's seed-1 inputs are pinned by the
sha256 of their machine text, so a change to what is built, arc order
included, fails here and not only as a moved benchmark count."""

import hashlib
import random

from regexbias.compiler import compile_biased
from regexbias.textio import write_fst_text

from test_bench import bench  # noqa: F401  (the fixture that imports bench/)
from test_lm import zipf_corpus

ENTITY_REGEXES = 50
LADDER_FAMILIES = {f"ladder{n}" for n in range(2, 11)}

# sha256 of each group's machine texts, each followed by a NUL byte
PINS = {
    "G'": "1c31b55d97db1c9479bf9e01a1d572defeb7c69780e6231c366ae96ef6a681d5",
    "L'": "501373d341671623ec34234e99f0b8fa08c10f2442e7422fdffdb110a508e9ae",
    "root": "008e5fd7f7726e5b0cbea5ca1b793bb9c1847fe14e3632b11dd9f3997ffdd281",
    "root V500": "78b18aecd90bd6972f799026ef1e1c844c1413936717de59c433b17e0b8244d7",
    "root one-letter words": "62b08f595f8eef8419cc4662466a1ea686b06f50d3599d52cc1c725a240d2605",
    "R": "fdc211c72236788de114a4c7033eae5fbb9e3c1d5020b77f5a9641adee18c42c",
    "T_r": "e924e2d16bee88c5adbe144bc9319e86d12ba7d578e99d902ce2be0f67baab26",
    "R wide": "b94aacc52871a10c88b7cbacd2ef738dcdeb7f0d5a35bd36ab0cdfbc911da967",
    "T_r wide": "f65ec32707415da4c432168bb481e5c468a6a30c3b4de32fdbd29f337b21144f",
}


def digest(machines):
    h = hashlib.sha256()
    for m in machines:
        h.update(write_fst_text(m).encode() + b"\0")
    return h.hexdigest()


def built_machines(workloads, measure):
    """{group: its machines}: G', L' and the root of the V~200 seed-1
    root graph, R and T_r of ladder rungs n = 2..10 and the first seed-1
    entity regexes, R and T_r of the ladder pass's 19 wide-class templates
    apart, the V~500 seed-1 root, and the root of a corpus with one-letter
    words: its L' o G' is not deterministic per label pair, so optim runs
    the subset construction that it skips for the other roots."""
    off = measure.NullTracer()
    requests = workloads.RegexRequests(1)
    requests.setup(off)
    ladder = workloads.RegexLadder(1)
    ladder.setup(off)
    regexes = [rx for rx in ladder.regexes if rx.family in LADDER_FAMILIES]
    regexes += [requests.item(i) for i in range(ENTITY_REGEXES)]
    compiled = [compile_biased(rx.text, ladder.alphabet, rx.alpha) for rx in regexes]
    wide = [compile_biased(rx.text, ladder.alphabet, rx.alpha)
            for rx in ladder.regexes if rx.family.startswith("wide-")]
    lm = requests.lm
    root_v500 = workloads.build_lm_root(
        workloads.inputs.lm_inputs(random.Random(1), 500).corpus, off).root
    one_letter = workloads.build_lm_root(
        zipf_corpus(random.Random(5), 148, 600, "abcdefghijklmnopqrstuvwxyz", min_len=1),
        off).root
    return {
        "G'": [lm.g_prime],
        "L'": [lm.l_prime],
        "root": [lm.root],
        "R": [r for _, r, _ in compiled],
        "T_r": [t_r for _, _, t_r in compiled],
        "R wide": [r for _, r, _ in wide],
        "T_r wide": [t_r for _, _, t_r in wide],
        "root V500": [root_v500],
        "root one-letter words": [one_letter],
    }


def summed_sizes(machines):
    """(states, arcs, finals) summed over a group's machines."""
    return tuple(sum(n) for n in zip(*((m.num_states(), m.num_arcs(), len(m.finals))
                                       for m in machines)))


def test_built_machines_match_pins(bench):
    groups = built_machines(*bench)
    got = {name: digest(machines) for name, machines in groups.items()}
    changed = sorted(name for name in PINS if got[name] != PINS[name])
    assert not changed, (
        f"built machines changed: {changed}. Update PINS only for an intended "
        f"change to what is built, and say so in CHANGES.md. New digests: "
        f"{ {name: got[name] for name in changed} }. New (states, arcs, finals) "
        f"summed per group: { {name: summed_sizes(groups[name]) for name in changed} }")
