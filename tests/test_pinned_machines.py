"""The machines built from the benchmark's seed-1 inputs are pinned by the
sha256 of their machine text, so a change to what is built, arc order
included, fails here and not only as a moved benchmark count."""

import hashlib

from regexbias.compiler import compile_biased
from regexbias.textio import write_fst_text

from test_bench import bench  # noqa: F401  (the fixture that imports bench/)

ENTITY_REGEXES = 50
LADDER_FAMILIES = {f"ladder{n}" for n in range(2, 11)}

# sha256 of each group's machine texts, each followed by a NUL byte
PINS = {
    "G'": "1c31b55d97db1c9479bf9e01a1d572defeb7c69780e6231c366ae96ef6a681d5",
    "L'": "43ad4efb6f84183ef2a08bb58e087e7eb7eedcdbe1d14ee5890457bdc4224975",
    "root": "1c943a12909cd18ceba96804c53e819a93ca8caad2be11050b9eb5be8ab170cb",
    "R": "fdc211c72236788de114a4c7033eae5fbb9e3c1d5020b77f5a9641adee18c42c",
    "T_r": "e924e2d16bee88c5adbe144bc9319e86d12ba7d578e99d902ce2be0f67baab26",
}


def digest(machines):
    h = hashlib.sha256()
    for m in machines:
        h.update(write_fst_text(m).encode() + b"\0")
    return h.hexdigest()


def built_digests(workloads, measure):
    """G', L' and the root of the V~200 seed-1 root graph, and R and T_r of
    ladder rungs n = 2..10 and the first seed-1 entity regexes."""
    off = measure.NullTracer()
    requests = workloads.RegexRequests(1)
    requests.setup(off)
    ladder = workloads.RegexLadder(1)
    ladder.setup(off)
    regexes = [rx for rx in ladder.regexes if rx.family in LADDER_FAMILIES]
    regexes += [requests.item(i) for i in range(ENTITY_REGEXES)]
    compiled = [compile_biased(rx.text, ladder.alphabet, rx.alpha) for rx in regexes]
    lm = requests.lm
    return {
        "G'": digest([lm.g_prime]),
        "L'": digest([lm.l_prime]),
        "root": digest([lm.root]),
        "R": digest(r for _, r, _ in compiled),
        "T_r": digest(t_r for _, _, t_r in compiled),
    }


def test_built_machines_match_pins(bench):
    got = built_digests(*bench)
    changed = sorted(name for name in PINS if got[name] != PINS[name])
    assert not changed, (
        f"built machines changed: {changed}. Update PINS only for an intended "
        f"change to what is built, and say so in CHANGES.md. New digests: "
        f"{ {name: got[name] for name in changed} }")
