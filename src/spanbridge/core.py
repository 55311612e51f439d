"""Annotation data model and corpus format I/O.

Offsets are always counted in Unicode codepoints, never bytes. All types
are slotted, immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import contextlib
import gc
import json
import threading
from dataclasses import dataclass


class FormatError(ValueError):
    """Raised when an input file violates its format contract."""


# one encoder for every JSONL line: json.dumps with these arguments builds a new one per call;
# records are acyclic, so no per-container markers dict is needed to detect cycles
JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, check_circular=False)


# makes each read-and-disable of the collector and each re-enable one step, so
# a pause that ends while another thread's begins cannot leave it off for good
_GC_SWITCH = threading.RLock()


@contextlib.contextmanager
def gc_paused():
    """Hold off the cyclic collector for a batch; also a decorator. A batch's
    records are acyclic and live until it returns, so collections meanwhile
    only rescan them. On exit the collector is re-enabled only if it was on at
    entry, so nesting is safe; cycles a backend makes are freed by the first
    collection after. Process-wide: a gc.disable() that another thread makes
    while a batch runs is undone when the batch returns."""
    with _GC_SWITCH:
        enabled = gc.isenabled()
        gc.disable()
    try:
        yield
    finally:
        if enabled:
            with _GC_SWITCH:
                gc.enable()


@dataclass(frozen=True, slots=True)
class LabeledSpan:
    """A labeled character span: [start, end) codepoint offsets into a sentence."""

    id: int
    start: int
    end: int
    label: str

    def __post_init__(self):
        start, end = self.start, self.end
        # exactly int: 0.0 would fail later as a slice index, and True is a bool
        if type(start) is not int or type(end) is not int:
            raise FormatError(f"span {self.id}: offsets must be integers, "
                              f"got {start!r} and {end!r}")
        if not 0 <= start < end:
            raise FormatError(f"span {self.id}: invalid offsets [{start}, {end})")
        label = self.label
        if label and not isinstance(label, str):
            raise FormatError(f"span {self.id}: label must be a string, "
                              f"got {type(label).__name__}")
        # split() breaks at exactly the characters isspace() accepts, so a
        # label is [label] iff it is non-empty and holds none of them
        if not label or label.split() != [label]:
            raise FormatError(f"span {self.id}: label must be non-empty without whitespace")

    def slice(self, text: str) -> str:
        return text[self.start:self.end]


@dataclass(frozen=True, slots=True)
class RelationLink:
    """A typed link (relation or event-argument role) between two spans of one sentence."""

    kind: str
    head_span_id: int
    tail_span_id: int

    def __post_init__(self):
        kind, head, tail = self.kind, self.head_span_id, self.tail_span_id
        if type(kind) is not str or not kind:
            raise FormatError(f"relation kind must be a non-empty string, got {kind!r}")
        if type(head) is not int or type(tail) is not int:  # as span offsets: no bool, no float
            raise FormatError(f"relation {kind}: head and tail must be integers, "
                              f"got {head!r} and {tail!r}")


@dataclass(frozen=True, slots=True)
class AnnotatedSentence:
    text: str
    spans: tuple[LabeledSpan, ...] = ()
    meta: tuple[tuple[str, str], ...] = ()
    relations: tuple[RelationLink, ...] = ()

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise FormatError(f"text must be a string, got {type(self.text).__name__}")
        spans = tuple(self.spans)
        object.__setattr__(self, "spans", spans)
        object.__setattr__(self, "relations", tuple(self.relations))
        if isinstance(self.meta, dict):
            object.__setattr__(self, "meta", tuple(sorted(self.meta.items())))
        else:
            object.__setattr__(self, "meta", tuple(self.meta))
        n = len(self.text)
        prev_end = 0
        for i, s in enumerate(spans):
            if s.id != i:
                raise FormatError(f"span ids must be 0..n-1 in order; got id {s.id} at position {i}")
            if s.end > n:
                raise FormatError(f"span {s.id} end {s.end} exceeds text length {n}")
            if s.start < prev_end:
                raise FormatError(f"span {s.id} overlaps previous span or is out of order")
            prev_end = s.end
        if self.relations:
            span_ids = {s.id for s in spans}
            for r in self.relations:
                if r.head_span_id not in span_ids or r.tail_span_id not in span_ids:
                    raise FormatError(f"relation {r.kind} references missing span id")

    def onto(self, text: str, placed) -> AnnotatedSentence:
        """This sentence carried onto `text`: placed[t] is the (source span id, start,
        end) of target span t, in target order, one per source span. Span t takes its
        source's label, relations follow their spans and meta is kept. Raises
        FormatError unless the target spans are non-empty, ordered, disjoint and in `text`."""
        spans = self.spans
        target_id: list[int | None] = [None] * len(spans)
        target_spans = []
        for t, (s, start, end) in enumerate(placed):
            target_spans.append(LabeledSpan(t, start, end, spans[s].label))
            target_id[s] = t
        if len(target_spans) != len(spans) or None in target_id:
            raise ValueError("placed must hold each source span exactly once")
        relations = [RelationLink(r.kind, target_id[r.head_span_id], target_id[r.tail_span_id])
                     for r in self.relations]
        return AnnotatedSentence(text, target_spans, self.meta, relations)

    @property
    def meta_dict(self) -> dict[str, str]:
        return dict(self.meta)

    def span_texts(self) -> list[str]:
        return [s.slice(self.text) for s in self.spans]


@dataclass(frozen=True, slots=True)
class QaExample:
    """A QA item: context with exactly one answer span."""

    id: str
    question: str
    context: str
    answer: LabeledSpan

    def __post_init__(self):
        for name, value in (("question", self.question), ("context", self.context)):
            if not isinstance(value, str):
                raise FormatError(f"{self.id}: {name} must be a string, got {type(value).__name__}")
        if self.answer.label != "ANSWER":
            raise FormatError(f"{self.id}: answer span label must be ANSWER")
        if self.answer.end > len(self.context):
            raise FormatError(f"{self.id}: answer span exceeds context length")

    @property
    def answer_text(self) -> str:
        return self.answer.slice(self.context)


# ---------------------------------------------------------------------------
# BIO <-> span conversion


def spans_from_bio(tokens: list[str], tags: list[str], lenient: bool = False) -> list[LabeledSpan]:
    """Derive spans from BIO2 tags, with offsets over the single-space-joined tokens.

    In strict mode an I-X tag without a preceding B-X/I-X run, or a label
    change inside a run, is an error; lenient mode treats it as B-X.
    """
    if len(tokens) != len(tags):
        raise FormatError(f"length mismatch: {len(tokens)} tokens vs {len(tags)} tags")
    spans: list[LabeledSpan] = []
    offset = 0
    cur_label = None
    cur_start = 0
    cur_end = 0

    def close_run():
        nonlocal cur_label
        if cur_label is not None:
            spans.append(LabeledSpan(len(spans), cur_start, cur_end, cur_label))
            cur_label = None

    for i, (token, tag) in enumerate(zip(tokens, tags)):
        tok_start = offset
        tok_end = offset + len(token)
        offset = tok_end + 1  # joining space
        if tag == "O":
            close_run()
        elif tag.startswith("B-"):
            close_run()
            cur_label, cur_start, cur_end = tag[2:], tok_start, tok_end
        elif tag.startswith("I-"):
            label = tag[2:]
            if cur_label == label:
                cur_end = tok_end
            elif lenient:
                close_run()
                cur_label, cur_start, cur_end = label, tok_start, tok_end
            elif cur_label is None:
                raise FormatError(f"I-{label} without preceding B-{label} at token {i}")
            else:
                raise FormatError(f"label change inside run at token {i}")
        else:
            raise FormatError(f"bad BIO tag {tag!r} at token {i}")
    close_run()
    return spans


def token_bounds(tokens) -> list[tuple[int, int]]:
    """[start, end) codepoint offsets of each token in the single-space-joined text."""
    bounds = []
    offset = 0
    for token in tokens:
        bounds.append((offset, offset + len(token)))
        offset += len(token) + 1
    return bounds


def span_token_ranges(tokens, spans) -> list[tuple[int, int]]:
    """[first, last + 1) token range of each span over the single-space-joined
    tokens; every span must start and end on a token boundary."""
    bounds = token_bounds(tokens)
    starts = {s: i for i, (s, _) in enumerate(bounds)}
    ends = {e: i + 1 for i, (_, e) in enumerate(bounds)}
    ranges = []
    for span in spans:
        if span.start not in starts or span.end not in ends:
            raise FormatError(f"span {span.id} ({span.start},{span.end}) not on token boundary")
        ranges.append((starts[span.start], ends[span.end]))
    return ranges


def bio_from_spans(tokens: list[str], spans: list[LabeledSpan]) -> list[str]:
    """Inverse of spans_from_bio: spans must align exactly to token boundaries."""
    tags = ["O"] * len(tokens)
    for span, (first, stop) in zip(spans, span_token_ranges(tokens, spans)):
        tags[first] = f"B-{span.label}"
        for i in range(first + 1, stop):
            tags[i] = f"I-{span.label}"
    return tags


# ---------------------------------------------------------------------------
# CoNLL


def parse_conll(text: str, lenient: bool = False) -> list[AnnotatedSentence]:
    """Parse token TAB tag lines (BIO2), blank line separated sentences.

    "-DOCSTART-" lines are skipped. Tokens are joined with single spaces.
    """
    sentences: list[AnnotatedSentence] = []
    tokens: list[str] = []
    tags: list[str] = []
    lines: list[int] = []

    def flush():
        nonlocal tokens, tags, lines
        if tokens:
            try:
                spans = spans_from_bio(tokens, tags, lenient=lenient)
            except FormatError as e:
                # spans_from_bio reports a token index; translate it to a line number
                msg = str(e)
                for i, ln in enumerate(lines):
                    if msg.endswith(f"at token {i}"):
                        msg = msg[: -len(f"at token {i}")] + f"at line {ln}"
                        break
                raise FormatError(msg) from None
            sentences.append(AnnotatedSentence(" ".join(tokens), tuple(spans)))
        tokens, tags, lines = [], [], []

    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            flush()
            continue
        if line.startswith("-DOCSTART-"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'token<TAB>tag', got {len(parts)} columns")
        tokens.append(parts[0])
        tags.append(parts[1])
        lines.append(lineno)
    flush()
    return sentences


def emit_conll(sentences: list[AnnotatedSentence]) -> str:
    """Emit CoNLL text such that parse_conll(emit_conll(x)) == x."""
    blocks = []
    for sent in sentences:
        tokens = sent.text.split(" ")
        try:
            tags = bio_from_spans(tokens, list(sent.spans))
        except FormatError as e:
            raise FormatError(f"cannot emit sentence {sent.text[:40]!r}: {e}") from None
        blocks.append("\n".join(f"{t}\t{g}" for t, g in zip(tokens, tags)))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


# ---------------------------------------------------------------------------
# Span-JSON lines (native interchange format)


def sentence_to_json(sent: AnnotatedSentence) -> dict:
    obj: dict = {
        "text": sent.text,
        "spans": [{"start": s.start, "end": s.end, "label": s.label} for s in sent.spans],
        "meta": sent.meta_dict,
    }
    if sent.relations:
        obj["relations"] = [
            {"kind": r.kind, "head": r.head_span_id, "tail": r.tail_span_id}
            for r in sent.relations
        ]
    return obj


def sentence_from_json(obj: dict) -> AnnotatedSentence:
    if not isinstance(obj, dict):
        raise FormatError(f"expected a JSON object, got {type(obj).__name__}")
    # list comprehensions: a generator per sentence costs more than the list
    spans = tuple([LabeledSpan(i, s["start"], s["end"], s["label"])
                   for i, s in enumerate(obj.get("spans", ()))])
    relations = ()
    if "relations" in obj:
        relations = tuple([RelationLink(r["kind"], r["head"], r["tail"])
                           for r in obj["relations"]])
    meta = obj.get("meta", {})
    if type(meta) is not dict:  # its values are free-form, but it must be an object
        raise FormatError(f"meta must be a JSON object, got {type(meta).__name__}")
    return AnnotatedSentence(obj["text"], spans, meta, relations)


@gc_paused()
def parse_jsonl(text: str) -> list[AnnotatedSentence]:
    """Span-JSON lines to sentences; a line that is not JSON, lacks a field or
    holds one of the wrong type raises FormatError naming the line.

    Lines end at "\n" only: emit_jsonl writes U+2028, U+0085 and the like
    unescaped, and str.splitlines() would break a record at them."""
    sentences = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            sentences.append(sentence_from_json(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, FormatError) as e:
            raise FormatError(f"line {lineno}: {e}") from None
    return sentences


def emit_jsonl(sentences: list[AnnotatedSentence]) -> str:
    encode = JSONL_ENCODER.encode
    return "".join([encode(sentence_to_json(s)) + "\n" for s in sentences])


# ---------------------------------------------------------------------------
# SQuAD v1.1 JSON


def parse_squad(text: str) -> list[QaExample]:
    """Parse SQuAD v1.1 JSON; each qa must have exactly one answer whose text
    equals the context slice at answer_start. A malformed document raises
    FormatError, naming the qa being read if there is one."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"bad JSON: {e}") from None
    examples, qa = [], {}  # qa: the one being read, named in error messages
    try:
        for article in doc.get("data", []):
            for para in article.get("paragraphs", []):
                qa = {}
                context = para["context"]
                for qa in para.get("qas", []):
                    answers = qa.get("answers", [])
                    if len(answers) != 1:
                        raise FormatError(
                            f"{qa.get('id')}: expected exactly one answer, got {len(answers)}")
                    ans = answers[0]
                    start = ans["answer_start"]
                    if type(start) is not int:  # True would slice like 1, and 0.0 not at all
                        raise TypeError(f"answer_start must be an integer, got {start!r}")
                    end = start + len(ans["text"])
                    if context[start:end] != ans["text"]:
                        raise FormatError(
                            f"{qa.get('id')}: answer text {ans['text']!r} does not match "
                            f"context slice at offset {start}"
                        )
                    examples.append(
                        QaExample(
                            id=str(qa["id"]),
                            question=qa["question"],
                            context=context,
                            answer=LabeledSpan(0, start, end, "ANSWER"),
                        )
                    )
    except (AttributeError, KeyError, TypeError) as e:
        where = f"{qa['id']}: " if isinstance(qa, dict) and qa.get("id") is not None else ""
        raise FormatError(f"{where}malformed SQuAD document: {type(e).__name__}: {e}") from None
    return examples


def emit_squad(examples: list[QaExample], title: str = "spanbridge") -> str:
    """Emit SQuAD v1.1 JSON with canonical (alphabetical) key ordering.

    Examples sharing a context are grouped into one paragraph, preserving
    first-seen context order.
    """
    paragraphs: list[dict] = []
    by_context: dict[str, dict] = {}
    for ex in examples:
        para = by_context.get(ex.context)
        if para is None:
            para = {"context": ex.context, "qas": []}
            by_context[ex.context] = para
            paragraphs.append(para)
        para["qas"].append(
            {
                "answers": [{"answer_start": ex.answer.start, "text": ex.answer_text}],
                "id": ex.id,
                "question": ex.question,
            }
        )
    doc = {"data": [{"paragraphs": paragraphs, "title": title}], "version": "1.1"}
    return json.dumps(doc, ensure_ascii=False, sort_keys=True)
