"""Output identity as a checked table.

tests/golden_digests.json maps each command id below to the SHA-256 of what
the command does: its exit codes, stdout and stderr, and every file it
writes. The commands run in-process through `cli.run`, each in a fresh
temporary directory that holds the same seeded inputs under relative names,
so no digest holds a path. The outputs depend on neither the hash seed nor
the Python version, so one table serves every interpreter.

    PYTHONPATH=src python3 tests/golden.py            # check; exit 1 on a mismatch
    PYTHONPATH=src python3 tests/golden.py --update   # rewrite; print the ids that changed

The check needs the standard library alone. A change that alters an output
on purpose rewrites the table and names each changed id, with its reason,
in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

from conftest import LATIN, make_corpus, make_entity_corpus
from spanbridge import cli, core, easyproject
from spanbridge.markers import SCHEME_KINDS, MarkerScheme, insert_markers
from spanbridge.translate import (
    CacheBackend,
    LexiconBackend,
    LexiconBackendConfig,
    TranslateRequest,
    TranslationCache,
    warm_cache,
)

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")


def _parallel_corpus(n: int, seed: int) -> tuple[str, str, str]:
    """(JSONL, translations, Pharaoh lines) of entity sentences whose target
    is the source reversed. Every 9th sentence loses an entity link
    (Unprojectable), every 13th links an entity into another's target
    (Overlap), and every 11th loses a seeded link."""
    sentences, token_map = make_entity_corpus(n, seed)
    rng = random.Random(seed)
    translations, lines = [], []
    for i, s in enumerate(sentences):
        tokens = s.text.split(" ")
        last = len(tokens) - 1
        links = {(k, last - k) for k in range(len(tokens))}  # entity j is token 2j + 1
        if i % 9 == 4:
            links.discard((1, last - 1))
        if i % 13 == 6:
            links.add((1, last - 3))
        if i % 11 == 3:
            links.discard(rng.choice(sorted(links)))
        translations.append(" ".join(token_map.get(t, t) for t in reversed(tokens)) + "\n")
        lines.append(" ".join(f"{a}-{b}" for a, b in sorted(links)) + "\n")
    return core.emit_jsonl(sentences), "".join(translations), "".join(lines)


def _eszett_target(sentence: core.AnnotatedSentence, i: int, lexicon: dict[str, str]) -> str:
    """The reversed translation of an entity sentence, in which every 3rd
    sentence has "Straße" before each entity and all but every 4th have every
    entity but one in capitals, so that only case folding matches them."""
    tokens = [lexicon.get(t, t) for t in reversed(sentence.text.split(" "))]
    entities = [k for k, t in enumerate(tokens) if t.startswith("tgt")]
    if i % 4:
        for k in entities[1:]:
            tokens[k] = tokens[k].upper()
    if i % 3 == 0:
        for k in reversed(entities):
            tokens.insert(k, "Straße")
    return " ".join(tokens)


# a stray I- tag opening a sentence and a label change inside a run, which
# --lenient-bio reads as B- tags
STRAY_CONLL = """-DOCSTART-\tO

alpha\tI-PER
bravo\tO
charlie\tB-LOC
delta\tI-LOC
echo\tI-ORG
fox\tO

golf\tB-PER
hotel\tI-PER
kilo\tO
"""

# strict reading stops at the first fault: the label change at echo, and a
# run with a bad label that starts on line 5 and is closed on line 7
LABEL_CHANGE_CONLL = STRAY_CONLL.replace("alpha\tI-PER", "alpha\tB-PER")
BAD_LABEL_CONLL = LABEL_CHANGE_CONLL.replace("charlie\tB-LOC\ndelta\tI-LOC\necho\tI-ORG",
                                             "charlie\tB-a b\ndelta\tI-a b\necho\tO")

# defaults that the command line overrides in part: the threshold of 1 would
# drop far more sentences than the 0.9 given on the command line
PROJECT_CFG = """# project defaults; flags on the command line win
backend = lexicon
lexicon = lexicon.json
reorder = reverse
drop_unmatched = true
offline = false
threshold = 1
"""


def inputs() -> dict[str, str]:
    """The files every command directory starts with."""
    entity, token_map = make_entity_corpus(300, 7)
    relations = make_corpus(300, 3, max_spans=5, with_relations=True)
    # already holds brackets, quotes and xml tags, so those schemes filter it
    relations.append(core.AnnotatedSentence('Anna met "Bob" [in] <b>Rome</b>',
                                            (core.LabeledSpan(0, 0, 4, "PER"),)))
    lexicon = {**{w: w.upper() for w in LATIN}, **token_map}
    brackets = MarkerScheme("brackets")
    marked = [insert_markers(s, brackets).text for s in entity]
    # the brackets MT input of the first half of the entity corpus
    warm = [t for s, m in zip(entity[:150], marked) for t in (m, *s.span_texts())]
    parallel, parallel_tgt, parallel_align = _parallel_corpus(400, 5)
    # an empty sentence, one without spans and one already holding a bracket
    plain = entity[:20] + [
        core.AnnotatedSentence("", ()), core.AnnotatedSentence("alpha bravo", ()),
        core.AnnotatedSentence("a [sic] note by Anna", (core.LabeledSpan(0, 16, 20, "PER"),))]
    # the marked relation corpus under each scheme, every 2nd line with a locale quote
    hyps = {f"hyp-{kind}.txt": "".join(
        (m.replace('"', "«", 1) if i % 2 else m) + "\n" for i, m in
        enumerate(insert_markers(s, MarkerScheme(kind)).text for s in relations[:100]))
        for kind in ("xml", "quotes", "placeholder")}
    return {
        "entity.jsonl": core.emit_jsonl(entity),
        "entity-tgt.txt": "".join(
            " ".join(lexicon.get(t, t) for t in reversed(s.text.split(" "))) + "\n"
            for s in entity),
        "relations.jsonl": core.emit_jsonl(relations),
        "relations.conll": core.emit_conll(relations),
        "lexicon.json": json.dumps(lexicon, sort_keys=True),
        "warm.txt": "".join(t + "\n" for t in warm),
        "hyp.txt": "".join(m + "\n" for m in marked[:100]),
        "ref.txt": "".join(s.text.rsplit(" ", i % 3)[0] + "\n"
                           for i, s in enumerate(entity[:100])),
        "rate-in.json": json.dumps({"total": 300, "projected": 291, "filtered": 6,
                                    "failed": 3}),
        "parallel.jsonl": parallel,
        "parallel-tgt.txt": parallel_tgt,
        "parallel.align": parallel_align,
        "plain.jsonl": core.emit_jsonl(plain),
        "stray.conll": STRAY_CONLL,
        "label-change.conll": LABEL_CHANGE_CONLL,
        "bad-label.conll": BAD_LABEL_CONLL,
        "project.cfg": PROJECT_CFG,
        "eszett.jsonl": core.emit_jsonl(entity[:80]),
        "eszett-tgt.txt": "".join(_eszett_target(s, i, lexicon) + "\n"
                                  for i, s in enumerate(entity[:80])),
        **hyps,
        "ref-relations.txt": "".join(s.text.rsplit(" ", i % 3)[0] + "\n"
                                     for i, s in enumerate(relations[:100])),
    }


def _squad_examples() -> list[core.QaExample]:
    """Five examples over three contexts, two of them shared."""
    sentences, _ = make_entity_corpus(3, 11)
    return [
        core.QaExample(f"q{i}", f"which {s.spans[j].label}?", s.text,
                       core.LabeledSpan(0, s.spans[j].start, s.spans[j].end, "ANSWER"))
        for i, (s, j) in enumerate(zip([sentences[k] for k in (0, 0, 1, 2, 2)],
                                       (0, 1, 0, 0, 1)))]


def _squad() -> int:
    """emit_squad of the five examples, and whether parse_squad reads them back."""
    examples = _squad_examples()
    text = core.emit_squad(examples)
    with open("squad.json", "w", encoding="utf-8") as f:
        f.write(text)
    print(core.parse_squad(text) == examples)
    return 0


def _project_qa() -> int:
    """project_qa under each scheme through a reversing lexicon, of the five
    _squad examples and one example per span of a small entity corpus: writes
    emit_squad of the projected examples and the report of each scheme."""
    # the first three sentences are the _squad contexts, so the map covers their entities
    sentences, token_map = make_entity_corpus(30, 11)
    examples = _squad_examples() + [
        core.QaExample(f"e{i}.{j}", f"which {span.label}?", s.text,
                       core.LabeledSpan(0, span.start, span.end, "ANSWER"))
        for i, s in enumerate(sentences) for j, span in enumerate(s.spans)]
    backend = LexiconBackend(LexiconBackendConfig(token_map, reorder="reverse"))
    for scheme in SCHEME_KINDS:
        projected, report = easyproject.project_qa(examples, backend, MarkerScheme(scheme))
        with open(f"qa-{scheme}.json", "w", encoding="utf-8") as f:
            f.write(core.emit_squad(projected))
        with open(f"qa-{scheme}-report.json", "w", encoding="utf-8") as f:
            f.write(json.dumps(report.to_json(), sort_keys=True) + "\n")
    return 0


def _project_qa_faults() -> int:
    """project_qa under each scheme through an offline cache. A reversing
    lexicon warms the cache with every example but the last, whose items are
    then uncached, so it fails as BackendError; the example whose context
    already holds brackets is filtered under brackets. Writes each scheme's
    cache, emit_squad of the projected examples and the report."""
    _, token_map = make_entity_corpus(3, 11)
    examples = _squad_examples() + [
        core.QaExample("sic", "who wrote it?", "a [sic] note by Anna",
                       core.LabeledSpan(0, 16, 20, "ANSWER")),
        core.QaExample("uncached", "which PER?", "Bob met Anna",
                       core.LabeledSpan(0, 8, 12, "ANSWER"))]
    lexicon = LexiconBackend(LexiconBackendConfig(token_map, reorder="reverse"))
    for scheme in SCHEME_KINDS:
        cache = f"qa-{scheme}-cache.jsonl"
        easyproject.project_qa(examples[:-1], CacheBackend(TranslationCache(cache), lexicon),
                               MarkerScheme(scheme))
        projected, report = easyproject.project_qa(
            examples, CacheBackend(TranslationCache(cache)), MarkerScheme(scheme))
        with open(f"qa-{scheme}.json", "w", encoding="utf-8") as f:
            f.write(core.emit_squad(projected))
        with open(f"qa-{scheme}-report.json", "w", encoding="utf-8") as f:
            f.write(json.dumps(report.to_json(), sort_keys=True) + "\n")
    return 0


def _warm_cache_chain() -> int:
    """warm_cache into an outer cache through an inner cache that a reversing
    lexicon fills; the inner one already holds every 3rd line of warm.txt.
    Prints each call's (new entries, errors)."""
    with open("warm.txt", encoding="utf-8") as f:
        texts = tuple(dict.fromkeys(f.read().split("\n")[:-1]))
    with open("lexicon.json", encoding="utf-8") as f:
        lexicon = LexiconBackend(LexiconBackendConfig(json.load(f), reorder="reverse"))
    print(warm_cache([TranslateRequest(texts[::3], "src", "tgt")], lexicon, "inner.jsonl"))
    inner = CacheBackend(TranslationCache("inner.jsonl"), lexicon)
    print(warm_cache([TranslateRequest(texts, "src", "tgt")], inner, "outer.jsonl"))
    return 0


def commands() -> dict:
    """Command id -> the steps run in one directory: argv lists for cli.run,
    or a function returning an exit code."""
    lexicon = ["--backend", "lexicon", "--lexicon", "lexicon.json"]
    table = {}
    for corpus in ("entity", "relations"):
        for reorder in ("reverse", "seed:3"):
            for scheme in SCHEME_KINDS:
                table[f"project-{corpus}-{scheme}-{reorder}"] = [[
                    "project", "--in", f"{corpus}.jsonl", "--out", "out.jsonl",
                    "--report", "report.json", "--scheme", scheme, *lexicon,
                    "--reorder", reorder]]
    for scheme in SCHEME_KINDS:
        table[f"mark-{scheme}"] = [["mark", "--in", "relations.jsonl", "--out", "out.jsonl",
                                    "--scheme", scheme]]
    table["align-project"] = [[
        "align-project", "--in", "parallel.jsonl", "--translations", "parallel-tgt.txt",
        "--alignments", "parallel.align", "--out", "out.jsonl", "--report", "report.json"]]
    table["build-ftdata"] = [["build-ftdata", "--src", "entity.jsonl", "--tgt",
                              "entity-tgt.txt", "--out", "pairs.tsv", *lexicon]]
    table["stats-jsonl"] = [["stats", "--in", "relations.jsonl"]]
    table["stats-conll"] = [["stats", "--in", "relations.conll", "--format", "conll"]]
    table["rate"] = [["rate", "--report", "rate-in.json"]]
    table["bleu-strip-brackets"] = [["bleu", "--hyp", "hyp.txt", "--ref", "ref.txt",
                                     "--strip-scheme", "brackets"]]
    warm = ["warm-cache", "--in", "warm.txt", *lexicon, "--reorder", "reverse",
            "--cache-out", "cache.jsonl"]
    table["warm-cache-twice-then-project-offline"] = [warm, warm, [
        "project", "--in", "entity.jsonl", "--out", "out.jsonl", "--report", "report.json",
        "--backend", "cache", "--cache", "cache.jsonl", "--offline"]]
    entity = ["project", "--in", "entity.jsonl", "--out", "out.jsonl", "--report", "report.json"]
    table["project-default-backend"] = [[
        "project", "--in", "plain.jsonl", "--out", "out.jsonl", "--report", "report.json"]]
    # criterion 10: the same files as project-entity-brackets-reverse
    table["project-entity-brackets-reverse-jobs-8"] = [[
        *entity, "--scheme", "brackets", *lexicon, "--reorder", "reverse", "--jobs", "8"]]
    table["project-entity-brackets-reverse-sequential"] = [[
        *entity, *lexicon, "--reorder", "reverse", "--matcher", "sequential"]]
    relations = ["project", "--in", "relations.jsonl", "--out", "out.jsonl",
                 "--report", "report.json", *lexicon, "--reorder", "reverse"]
    for scheme in ("brackets", "xml"):  # the projection equals the padded one; the marks do not
        table[f"project-relations-{scheme}-reverse-no-pad"] = [
            [*relations, "--scheme", scheme, "--no-pad"],
            ["mark", "--in", "relations.jsonl", "--out", "marked.jsonl", "--scheme", scheme,
             "--no-pad"]]
    table["project-relations-brackets-reverse-threshold-drop"] = [[
        *relations, "--threshold", "0.9", "--drop-unmatched"]]
    table["project-config-file"] = [[
        "--config", "project.cfg", "project", "--in", "relations.jsonl", "--out", "out.jsonl",
        "--report", "report.json", "--threshold", "0.9"]]
    conll = ["--in", "stray.conll", "--format", "conll", "--lenient-bio", "--out", "out.jsonl"]
    table["project-conll-lenient"] = [["project", *conll, *lexicon, "--reorder", "reverse"]]
    table["mark-conll-lenient"] = [["mark", *conll]]
    table["conll-strict-errors"] = [["stats", "--in", name, "--format", "conll"] for name in
                                    ("stray.conll", "label-change.conll", "bad-label.conll")]
    ftdata = ["build-ftdata", "--src", "eszett.jsonl", "--tgt", "eszett-tgt.txt", *lexicon]
    table["build-ftdata-eszett"] = [
        [*ftdata, "--out", "pairs-cased.tsv", "--case-sensitive", "--sort", "ascending",
         "--k", "40"],
        [*ftdata, "--out", "pairs.tsv"]]
    for scheme in ("xml", "quotes", "placeholder"):
        table[f"bleu-strip-{scheme}"] = [[
            "bleu", "--hyp", f"hyp-{scheme}.txt", "--ref", "ref-relations.txt", "--max-n", "2",
            "--strip-scheme", scheme]]
    table["warm-cache-chain"] = [_warm_cache_chain]
    table["emit-squad"] = [_squad]
    table["project-qa"] = [_project_qa]
    table["project-qa-filtered-failed"] = [_project_qa_faults]
    return table


def digest(steps, files: dict[str, str]) -> str:
    """SHA-256 of the steps' exit codes, stdout and stderr, and of every file
    they leave in a directory that started with `files`."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in files.items():
                with open(name, "w", encoding="utf-8") as f:
                    f.write(text)
            runs = []
            for step in steps:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = step() if callable(step) else cli.run(step)
                runs.append([code, out.getvalue(), err.getvalue()])
            written = {}
            for name in sorted(os.listdir(".")):
                with open(name, "rb") as f:
                    data = f.read()
                if name not in files or data != files[name].encode("utf-8"):
                    written[name] = hashlib.sha256(data).hexdigest()
        finally:
            os.chdir(home)
    return hashlib.sha256(json.dumps([runs, written]).encode("utf-8")).hexdigest()


def compute() -> dict[str, str]:
    files = inputs()
    return {cid: digest(steps, files) for cid, steps in commands().items()}


def load() -> dict[str, str]:
    with open(TABLE, encoding="utf-8") as f:
        return json.load(f)


def changed(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    """The ids whose digests differ, or that only one table holds."""
    return sorted(cid for cid in expected.keys() | got.keys()
                  if expected.get(cid) != got.get(cid))


def main(argv: list[str]) -> int:
    if argv not in ([], ["--update"]):
        print("usage: golden.py [--update]", file=sys.stderr)
        return 2
    got = compute()
    if argv:
        old = load() if os.path.exists(TABLE) else {}
        with open(TABLE, "w", encoding="utf-8") as f:
            f.write(json.dumps(got, indent=1, sort_keys=True) + "\n")
        for cid in changed(old, got):
            print(cid)
        return 0
    diff = changed(load(), got)
    for cid in diff:
        print(f"digest differs: {cid}", file=sys.stderr)
    print(f"{len(got.keys() - set(diff))} of {len(got)} golden digests match")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
