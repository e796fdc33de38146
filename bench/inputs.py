"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its `random.Random`: the same seed
gives the same vocabulary, corpus, regex texts, alphas and probe strings,
independent of hash randomisation. Regexes come from small templates that
render two parallel forms: the toolkit's grammar text and an independent
Python `re` pattern, used as the correctness oracle.
"""

import re
import string
from dataclasses import dataclass

LOWER = string.ascii_lowercase
UPPER = string.ascii_uppercase
DIGITS = string.digits
# The recogniser charset: letters, digits, '/', '-' and the word separator.
CHARSET = LOWER + UPPER + DIGITS + "/-" + " "
ALPHAS = (-1.0, -2.0, -4.0)


# --- corpora --------------------------------------------------------------

def vocabulary(rng, size):
    """`size` distinct random lower-case words of 2-8 letters, in Zipf-rank order."""
    words, seen = [], set()
    while len(words) < size:
        w = "".join(rng.choice(LOWER) for _ in range(rng.randint(2, 8)))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def zipf_sentences(rng, words, count, min_len, max_len):
    """`count` sentences whose words follow a 1/rank distribution."""
    cum, total = [], 0.0
    for rank in range(len(words)):
        total += 1.0 / (rank + 1)
        cum.append(total)
    return [" ".join(rng.choices(words, cum_weights=cum, k=rng.randint(min_len, max_len)))
            for _ in range(count)]


@dataclass(frozen=True)
class LmInputs:
    corpus: tuple       # training sentences
    probes: tuple       # in-vocabulary sentences for the decode check


def lm_inputs(rng, size, probes=20):
    """A vocabulary of `size` words, a 3V-sentence corpus and probe sentences
    built only from words the corpus actually contains."""
    words = vocabulary(rng, size)
    corpus = zipf_sentences(rng, words, 3 * size, 3, 12)
    seen = sorted({w for line in corpus for w in line.split()})
    sentences = tuple(" ".join(rng.choice(seen) for _ in range(rng.randint(3, 6)))
                      for _ in range(probes))
    return LmInputs(tuple(corpus), sentences)


# --- regex templates --------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    text: str


@dataclass(frozen=True)
class Cls:
    chars: str          # explicit members
    lo: int
    hi: int


@dataclass(frozen=True)
class Alt:
    options: tuple      # literal strings


@dataclass(frozen=True)
class Opt:
    part: object


_CLASS_RANGES = ((LOWER, "a-z"), (UPPER, "A-Z"), (DIGITS, "0-9"))


def _grammar_class(chars):
    """Grammar class syntax, using ranges for whole blocks."""
    rest, out = set(chars), []
    for block, rng_text in _CLASS_RANGES:
        if set(block) <= rest:
            out.append(rng_text)
            rest -= set(block)
    out.extend("\\" + c if c == "-" else c for c in sorted(rest))
    return "[" + "".join(out) + "]"


def _grammar(part):
    if isinstance(part, Lit):
        return '"' + part.text + '"'
    if isinstance(part, Cls):
        reps = f"{{{part.lo}}}" if part.lo == part.hi else f"{{{part.lo},{part.hi}}}"
        return _grammar_class(part.chars) + reps
    if isinstance(part, Alt):
        return "(" + " | ".join(f'"{o}"' for o in part.options) + ")"
    if isinstance(part, Opt):
        return "(" + _grammar(part.part) + ")?"
    raise TypeError(part)


def _pattern(part):
    if isinstance(part, Lit):
        return re.escape(part.text)
    if isinstance(part, Cls):
        return "[" + "".join(re.escape(c) for c in part.chars) + f"]{{{part.lo},{part.hi}}}"
    if isinstance(part, Alt):
        return "(?:" + "|".join(re.escape(o) for o in part.options) + ")"
    if isinstance(part, Opt):
        return "(?:" + _pattern(part.part) + ")?"
    raise TypeError(part)


def _sample(part, rng):
    if isinstance(part, Lit):
        return part.text
    if isinstance(part, Cls):
        return "".join(rng.choice(part.chars) for _ in range(rng.randint(part.lo, part.hi)))
    if isinstance(part, Alt):
        return rng.choice(part.options)
    if isinstance(part, Opt):
        return _sample(part.part, rng) if rng.random() < 0.5 else ""
    raise TypeError(part)


@dataclass(frozen=True)
class Regex:
    """One compile request: grammar text, its Python twin, alpha and probes."""

    family: str
    text: str
    pattern: str
    alpha: float
    positives: tuple    # strings the pattern matches
    negatives: tuple    # charset strings it rejects


def _negative(rng, positive, pattern):
    """A seeded edit of `positive` that the oracle rejects."""
    compiled = re.compile(pattern)
    while True:
        s = list(positive)
        pos = rng.randrange(len(s) + 1)
        edit = rng.randrange(3)
        if edit == 0 and pos < len(s):
            s[pos] = rng.choice(CHARSET)
        elif edit == 1 and pos < len(s):
            del s[pos]
        else:
            s.insert(pos, rng.choice(CHARSET))
        candidate = "".join(s)
        if candidate and not compiled.fullmatch(candidate):
            return candidate


def make_regex(rng, family, parts, alpha, probes=2):
    """Render template parts into a Regex with oracle-checked probes."""
    text = "export = " + " ".join(_grammar(p) for p in parts) + ";"
    pattern = "".join(_pattern(p) for p in parts)
    compiled = re.compile(pattern)
    positives = tuple("".join(_sample(p, rng) for p in parts) for _ in range(probes))
    if not all(compiled.fullmatch(s) for s in positives):
        raise AssertionError(f"sampler and oracle disagree on {pattern!r}")
    negatives = tuple(_negative(rng, s, pattern) for s in positives)
    return Regex(family, text, pattern, alpha, positives, negatives)


def _bounds(rng, lo, hi):
    a = rng.randint(lo, hi)
    return a, rng.randint(a, hi)


def _date(rng):
    sep = rng.choice("/-")
    d, m = _bounds(rng, 1, 2), _bounds(rng, 1, 2)
    year = rng.choice((2, 4))
    if rng.random() < 0.5:
        return [Cls(DIGITS, year, year), Lit(sep), Cls(DIGITS, *m), Lit(sep), Cls(DIGITS, *d)]
    return [Cls(DIGITS, *d), Lit(sep), Cls(DIGITS, *m), Lit(sep), Cls(DIGITS, year, year)]


def _plate(rng):
    region = "".join(rng.choice(UPPER) for _ in range(rng.randint(1, 2)))
    tail = [Opt(Cls(UPPER, *_bounds(rng, 1, 2)))] if rng.random() < 0.5 else []
    return [Lit(region), Cls(UPPER, *_bounds(rng, 0, 2)), Opt(Lit("-")),
            Cls(DIGITS, *_bounds(rng, 1, 4))] + tail


def _amount(rng):
    codes = tuple(sorted({"".join(rng.choice(UPPER) for _ in range(3))
                          for _ in range(rng.randint(1, 3))}))
    cents = [Opt(Cls("/", 1, 1)), Cls(DIGITS, 2, 2)] if rng.random() < 0.5 else []
    return [Alt(codes), Opt(Lit("-")), Cls(DIGITS, *_bounds(rng, 1, 6))] + cents


def _ident(rng):
    prefix = "".join(rng.choice(UPPER + LOWER) for _ in range(rng.randint(2, 4)))
    return [Lit(prefix), Lit("-"), Cls(DIGITS, *_bounds(rng, 1, 3)),
            Cls(UPPER + DIGITS, *_bounds(rng, 1, 8))]


ENTITY_FAMILIES = {"date": _date, "plate": _plate, "amount": _amount, "id": _ident}


def entity_stream(rng):
    """Endless stream of entity regexes; no grammar text repeats.

    Every family has a mandatory digit span, so no regex accepts the empty
    string and no entity can be spelled as an in-vocabulary word.
    """
    seen = set()
    families = sorted(ENTITY_FAMILIES)
    while True:
        family = rng.choice(families)
        parts = ENTITY_FAMILIES[family](rng)
        rx = make_regex(rng, family, parts, rng.choice(ALPHAS))
        if rx.text not in seen:
            seen.add(rx.text)
            yield rx


# --- regex-size ladder -----------------------------------------------------

LADDER = range(2, 13)


def _ladder_regex(rng, n):
    """`(a|b)* a (a|b){n}`: the minimal DFA has 2**(n+1) states."""
    text = f'export = ("a" | "b")* "a" ("a" | "b"){{{n}}};'
    pattern = f"[ab]*a[ab]{{{n}}}"
    alpha = rng.choice(ALPHAS)
    positives = tuple("".join(rng.choice("ab") for _ in range(rng.randint(0, 6))) + "a"
                      + "".join(rng.choice("ab") for _ in range(n)) for _ in range(2))
    # the symbol n+1 from the end must be 'a'; flipping it to 'b' rejects
    negatives = tuple(s[:-n - 1] + "b" + s[-n:] for s in positives)
    for s in positives:
        assert re.fullmatch(pattern, s), (pattern, s)
    for s in negatives:
        assert not re.fullmatch(pattern, s), (pattern, s)
    return Regex(f"ladder{n}", text, pattern, alpha, positives, negatives)


WIDE_SHAPES = {
    "wide-alnum": lambda: [Cls(UPPER + DIGITS, 1, 24)],
    "wide-word": lambda: [Cls(LOWER + UPPER, 4, 12), Lit("/"), Cls(DIGITS, 1, 6)],
    "wide-slug": lambda: [Cls(LOWER + DIGITS + "/-", 2, 16)],
    "wide-plate": lambda: [Cls(UPPER, 1, 3), Lit("-"), Cls(DIGITS, 3, 4)],
    "wide-code": lambda: [Cls(UPPER + DIGITS, 6, 10), Opt(Cls(LOWER, 1, 2))],
    "wide-date": lambda: [Cls(DIGITS, 4, 4), Lit("-"), Cls(DIGITS, 1, 2), Lit("-"),
                          Cls(DIGITS, 1, 2)],
}
# Templates per pass. With the 11 rungs a pass has 30 compiles, laid out so
# that the percentiles fall inside groups of like cost rather than on the
# edge between two very different ones: 11 compiles cost less than any
# wide-code compile, the 8 wide-code compiles hold the median, and the 95th
# percentile falls among the n=11 rung's compiles (the top two rungs are each
# 1/30 of the samples).
WIDE_PLAN = (("wide-date", 3), ("wide-plate", 3), ("wide-code", 8),
             ("wide-alnum", 2), ("wide-slug", 2), ("wide-word", 1))


def ladder_pass(rng):
    """One ladder pass: the exponential ladder, then wide-class templates.

    Template shapes and counts are fixed; the seed picks only a distinct
    two-letter literal prefix per template (and the alphas and probes), so
    machine sizes do not depend on it."""
    regexes = [_ladder_regex(rng, n) for n in LADDER]
    families = [family for family, count in WIDE_PLAN for _ in range(count)]
    prefixes = set()
    while len(prefixes) < len(families):
        prefixes.add(rng.choice(UPPER) + rng.choice(UPPER))
    for family, prefix in zip(families, sorted(prefixes)):
        parts = [Lit(prefix)] + WIDE_SHAPES[family]()
        regexes.append(make_regex(rng, family, parts, rng.choice(ALPHAS)))
    return tuple(regexes)
