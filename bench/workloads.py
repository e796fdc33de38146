"""The benchmark's workloads: root-build, regex-requests and regex-ladder.

Each workload is driven as a closed loop with one client (see `run.py`).
A workload object provides:

* `setup(tracer)`: builds what all requests share; timed as `setup_s`.
* `item(i)`: the i-th request's input, made outside the timed region.
* `request(item, tracer, out)`: one unit of user work, timed end to end.
  It fills `out` as it goes, so a request that raises still leaves its
  finished intermediate results for checking.
* `check(i, item, out)`: correctness checks, outside the timed region;
  returns a list of problems.
* `probe(i, item, out, tracer)`: traced run only; times `ops` calls
  standalone on the machines the request built.
* `largest(out)`: the biggest machine the workload builds, given the last
  request's output; the traced run measures its bytes per arc.
* `summary(phase)`: the workload's own summary rows (name, value, unit,
  samples, note).
* `batch`: requests per pass; a run ends on a pass boundary.
* `setup_repeats`: the fewest set-ups a run times (`run.py` repeats short
  ones for longer); the last one is used.
"""

import random
import re
from dataclasses import dataclass
from time import perf_counter

import inputs
from measure import p50, p95
from regexbias.compiler import (
    BiasSpec,
    apply_bias,
    ast_to_nfa,
    compile_biased,
    dfa_to_acceptor,
    nfa_to_dfa,
    scorer,
)
from regexbias.errors import NoPathError
from regexbias.fst import REGEX_NT, SymbolTable, Wfst, linear_acceptor
from regexbias.grammar import parse_grammar
from regexbias.lm import (
    Lexicon,
    LmConfig,
    add_char_fallback,
    build_grammar,
    build_lexicon,
    build_root,
    count_ngrams,
    insert_nonterminal,
    make_word_table,
)
from regexbias.ops import compose, determinize, minimize, replace, shortest_path
from regexbias.textio import read_fst_text, write_fst_text

COST_TOL = 1e-6


def charset_table():
    return SymbolTable.from_symbols(inputs.CHARSET, "chars")


# --- shared pipelines -------------------------------------------------------

@dataclass
class LmGraph:
    cfg: LmConfig
    vocab: list
    charset: SymbolTable
    words: SymbolTable
    l_prime: Wfst
    g_prime: Wfst
    root: Wfst


def build_lm_root(corpus, tracer):
    """Corpus -> optim(L' o G') with the `$REGEX` nonterminal, the natural way."""
    cfg = LmConfig()
    charset = charset_table()
    with tracer.span("lm.count_ngrams"):
        counts = count_ngrams(corpus)
    with tracer.span("lm.build_grammar"):
        vocab = counts.vocabulary()
        words = make_word_table(vocab)
        g = build_grammar(counts, cfg, words)
    with tracer.span("lm.build_lexicon"):
        l = build_lexicon(Lexicon.from_words(vocab), charset, words)
    with tracer.span("lm.add_char_fallback"):
        g, l = add_char_fallback(g, l, charset, cfg)
    with tracer.span("lm.insert_nonterminal"):
        words.add(REGEX_NT)
        g, l = insert_nonterminal(g, l, cfg)
    with tracer.span("lm.build_root") as c:
        root = build_root(l, g)
    c.update(arcs_in=l.num_arcs() + g.num_arcs(), states_out=root.num_states(),
             arcs_out=root.num_arcs())
    return LmGraph(cfg, vocab, charset, words, l, g, root)


@dataclass
class Compiled:
    t_r: Wfst
    nfa: Wfst | None = None     # intermediates kept by the traced path only
    r: Wfst | None = None


def compile_regex(rx, alphabet, tracer):
    """T_r for one regex. Untraced, this is the public `compile_biased`;
    traced, the same steps are called one by one so each gets a span."""
    if not tracer.enabled:
        return Compiled(compile_biased(rx.text, alphabet, rx.alpha)[2])
    with tracer.span("compiler.compile_biased"):
        with tracer.span("grammar.parse_grammar"):
            ast = parse_grammar(rx.text).export_ast()
        with tracer.span("compiler.ast_to_nfa") as c:
            nfa = ast_to_nfa(ast, alphabet)
        c["states_out"] = nfa.num_states()
        with tracer.span("compiler.nfa_to_dfa") as c:
            dfa = nfa_to_dfa(nfa)
        c["states_out"] = dfa.num_states()
        with tracer.span("compiler.dfa_to_acceptor"):
            r = dfa_to_acceptor(dfa)
        with tracer.span("compiler.apply_bias") as c:
            t_r = apply_bias(r, BiasSpec(rx.alpha))
        c["arcs_out"] = t_r.num_arcs()
    return Compiled(t_r, nfa, r)


def probe_ops(tracer, unit, compose_args, nfa=None):
    """Standalone compose of `compose_args`, then determinize and minimize
    `nfa` (the composition itself when None), with size counts."""
    with tracer.span("probe", unit=unit):
        with tracer.span("ops.compose") as c:
            composed = compose(*compose_args)
        c["arcs_out"] = composed.num_arcs()
        with tracer.span("ops.determinize") as c:
            det = determinize(composed if nfa is None else nfa)
        c.update(states_out=det.num_states(), arcs_out=det.num_arcs())
        with tracer.span("ops.minimize") as c:
            small = minimize(det)
        c["states_out"] = small.num_states()


def probe_compiled(tracer, i, item, out, alphabet):
    """ops probes on a compiled regex: determinize and minimize its NFA,
    compose the alpha scorer with its acceptor R."""
    compiled = out.get("compiled")
    if compiled is not None:
        probe_ops(tracer, ("probe", i), (scorer(alphabet, item.alpha), compiled.r), compiled.nfa)


def best_path(text, table, machine):
    """(outputs, cost) of the cheapest path reading `text`; NoPathError if none."""
    _, outs, cost = shortest_path(compose(linear_acceptor(text, table), machine))
    return outs, cost


def check_regex(rx, t_r, alphabet):
    """T_r accepts exactly what Python `re` accepts, at alpha per character."""
    problems = []
    for s in rx.positives + rx.negatives:
        expected = re.fullmatch(rx.pattern, s) is not None
        try:
            outs, cost = best_path(s, alphabet, t_r)
        except NoPathError:
            if expected:
                problems.append(f"{rx.text} rejects {s!r}")
            continue
        if not expected:
            problems.append(f"{rx.text} accepts {s!r}")
        elif outs != tuple(s) or abs(cost - rx.alpha * len(s)) > COST_TOL:
            problems.append(f"{rx.text} maps {s!r} to {outs} at {cost}, "
                            f"expected cost {rx.alpha * len(s)}")
    return problems


def compile_rows(ms, note):
    if not ms:
        return [("compile_ms_p50", 0.0, "ms", 0, "no compile finished")]
    return [("compile_ms_p50", p50(ms), "ms", len(ms), note),
            ("compile_ms_p95", p95(ms), "ms", len(ms), note)]


def machine_counts(m):
    return m.num_states(), m.num_arcs(), len(m.finals)


# --- workloads --------------------------------------------------------------

class RootBuild:
    """Corpus to root graph and back through text, V about 500."""

    name = "root-build"
    vocab_size = 500
    setup_repeats = 9
    batch = 1

    def __init__(self, seed):
        self.seed = seed
        self.expected = None

    def setup(self, tracer):
        self.inputs = inputs.lm_inputs(random.Random(self.seed), self.vocab_size)

    def item(self, i):
        return self.inputs

    def request(self, item, tracer, out):
        out["lm"] = lm = build_lm_root(item.corpus, tracer)
        with tracer.span("textio.write_fst_text") as c:
            out["text"] = text = write_fst_text(lm.root)
        c["bytes"] = len(text)
        with tracer.span("textio.read_fst_text"):
            out["back"] = read_fst_text(text, lm.charset, lm.words)

    def check(self, i, item, out):
        if "back" not in out:
            return []
        lm, back = out["lm"], out["back"]
        got = machine_counts(lm.root) + (len(out["text"]),)
        if self.expected is not None:
            return [] if got == self.expected else [f"rebuild gave {got}, first build {self.expected}"]
        self.expected = got
        problems = []
        if machine_counts(back) != machine_counts(lm.root) or back.start != lm.root.start:
            problems.append(f"text round trip changed {machine_counts(lm.root)} "
                            f"into {machine_counts(back)}")
        for sentence in item.probes:
            outs, _ = best_path(sentence, lm.charset, back)
            if outs != tuple(sentence.split()):
                problems.append(f"{sentence!r} decoded as {outs}")
        return problems

    def summary(self, phase):
        return [("root_build_s", p50(phase.ok_ms) / 1e3 if phase.ok_ms else 0.0, "s",
                 len(phase.ok_ms), "median request: corpus to root, through text, wall clock")]

    def probe(self, i, item, out, tracer):
        lm = out["lm"]
        probe_ops(tracer, ("probe", i), (lm.l_prime, lm.g_prime))

    def largest(self, out):
        return out["lm"].root


class RegexRequests:
    """Per-request regex compile plus splice into a V about 200 root."""

    name = "regex-requests"
    vocab_size = 200
    setup_repeats = 5
    batch = 1
    splice_checks = 3

    def __init__(self, seed):
        self.seed = seed
        self.requests = []
        self.setups = 0
        self.splices_checked = 0

    def setup(self, tracer):
        self.setups += 1
        with tracer.span("setup", unit=("setup", self.setups)):
            self.lm = build_lm_root(inputs.lm_inputs(random.Random(self.seed),
                                                     self.vocab_size).corpus, tracer)
        self.nonterminal = self.lm.words.id(REGEX_NT)
        self.alphabet = charset_table()
        self.stream = inputs.entity_stream(random.Random(f"{self.seed}/requests"))

    def item(self, i):
        while len(self.requests) <= i:
            self.requests.append(next(self.stream))
        return self.requests[i]

    def request(self, item, tracer, out):
        t0 = perf_counter()
        out["compiled"] = compiled = compile_regex(item, self.alphabet, tracer)
        out["timings"] = {"compile_ms": (perf_counter() - t0) * 1e3}
        with tracer.span("ops.replace") as c:
            out["spliced"] = spliced = replace(self.lm.root, self.nonterminal, compiled.t_r)
        c["arcs_out"] = spliced.num_arcs()

    def check(self, i, item, out):
        problems = []
        if "compiled" in out:
            problems += check_regex(item, out["compiled"].t_r, self.alphabet)
        if "spliced" in out and self.splices_checked < self.splice_checks:
            self.splices_checked += 1
            problems += self.check_splice(i, item, out["spliced"])
        return problems

    def check_splice(self, i, item, spliced):
        """'w1 w2 <entity> w3' decodes to its words and the entity's characters,
        and the entity costs alpha instead of the char-fallback penalty."""
        rng = random.Random(f"{self.seed}/splice/{i}")
        w1, w2, w3 = (rng.choice(self.lm.vocab) for _ in range(3))
        entity = item.positives[0]
        sentence = f"{w1} {w2} {entity} {w3}"
        expected = (w1, w2, *entity, w3)
        outs, cost = best_path(sentence, self.lm.charset, spliced)
        base_outs, base = best_path(sentence, self.lm.charset, self.lm.root)
        want = base + len(entity) * (item.alpha - self.lm.cfg.char_fallback_penalty)
        if outs != expected or base_outs != expected or abs(cost - want) > COST_TOL:
            return [f"splice of {item.text} decodes {sentence!r} as {outs} at {cost}, "
                    f"expected {expected} at {want}"]
        return []

    def summary(self, phase):
        return compile_rows(phase.extra.get("compile_ms", []),
                            "compile_biased of each request, wall clock")

    def probe(self, i, item, out, tracer):
        probe_compiled(tracer, i, item, out, self.alphabet)

    def largest(self, out):
        return self.lm.root


class RegexLadder:
    """Regex compiles alone: the exponential ladder plus wide-class templates."""

    name = "regex-ladder"
    setup_repeats = 21

    def __init__(self, seed):
        self.seed = seed
        self.expected = {}

    def setup(self, tracer):
        self.alphabet = charset_table()
        self.regexes = inputs.ladder_pass(random.Random(self.seed))
        self.batch = len(self.regexes)

    def item(self, i):
        return self.regexes[i % self.batch]

    def request(self, item, tracer, out):
        out["compiled"] = compile_regex(item, self.alphabet, tracer)

    def check(self, i, item, out):
        if "compiled" not in out:
            return []
        t_r = out["compiled"].t_r
        got = machine_counts(t_r)
        first = self.expected.setdefault(i % self.batch, got)
        if first != got:
            return [f"{item.text} compiled to {got}, first pass {first}"]
        return check_regex(item, t_r, self.alphabet) if i < self.batch else []

    def summary(self, phase):
        passes = [sum(phase.all_ms[k:k + self.batch]) / 1e3
                  for k in range(0, phase.attempted, self.batch)]
        return ([("ladder_s", p50(passes), "s", len(passes), "median time per pass, wall clock")]
                + compile_rows(phase.all_ms, "every request is one compile, wall clock"))

    def probe(self, i, item, out, tracer):
        probe_compiled(tracer, i, item, out, self.alphabet)

    def largest(self, out):
        rx = self.regexes[len(inputs.LADDER) - 1]   # the top of the ladder
        return compile_biased(rx.text, self.alphabet, rx.alpha)[2]


WORKLOADS = {w.name: w for w in (RootBuild, RegexRequests, RegexLadder)}
