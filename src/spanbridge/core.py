"""Annotation data model and corpus format I/O.

Offsets are always counted in Unicode codepoints, never bytes. All types
are slotted, immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import inspect
import json
import threading


class FormatError(ValueError):
    """Raised when an input file violates its format contract."""


def record(cls):
    """dataclass(frozen=True, slots=True), with an __init__ that stores each
    field through its slot's descriptor, bound once here. The generated one
    calls object.__setattr__(self, name, value), which looks the name up on
    every store; both bypass the frozen __setattr__. Same parameters,
    defaults and annotations, and __post_init__ runs as before. Plain fields
    only, with or without a plain default: anything else raises TypeError."""
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    for f in fields:
        if f.default_factory is not dataclasses.MISSING or not f.init or f.kw_only:
            raise TypeError(f"{cls.__qualname__}.{f.name}: record takes plain fields only")
    if list(inspect.signature(cls.__init__).parameters)[1:] != names:  # an InitVar
        raise TypeError(f"{cls.__qualname__}: record takes no init-only parameters")
    setters = [f"__set_{i}" for i in range(len(names))]
    body = [f"{s}(self, {n})" for s, n in zip(setters, names)]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = (f"def __create__({', '.join(setters)}):\n"
              f" def __init__(self, {', '.join(names)}):\n"
              f"  {'; '.join(body) or 'pass'}\n"
              f" return __init__\n")
    namespace: dict = {}
    exec(compile(source, f"<record {cls.__qualname__}>", "exec"), {}, namespace)
    init = namespace["__create__"](*[cls.__dict__[n].__set__ for n in names])
    init.__defaults__ = tuple([f.default for f in fields
                               if f.default is not dataclasses.MISSING]) or None
    init.__annotations__ = {**{f.name: f.type for f in fields}, "return": None}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls


# the settings of every JSONL line; records are acyclic, so no per-container
# markers dict is needed to detect cycles
JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, check_circular=False)

# JSONL_ENCODER's C encoder, made once where encode() makes one per call
# (no markers: check_circular is off); None on an interpreter without _json
_C_ENCODER = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, JSONL_ENCODER.default, json.encoder.encode_basestring, JSONL_ENCODER.indent,
    JSONL_ENCODER.key_separator, JSONL_ENCODER.item_separator, JSONL_ENCODER.sort_keys,
    JSONL_ENCODER.skipkeys, JSONL_ENCODER.allow_nan)


def encode_line(obj) -> str:
    """One JSONL line: JSONL_ENCODER.encode(obj) + "\\n", exactly."""
    if _C_ENCODER is None:
        return JSONL_ENCODER.encode(obj) + "\n"
    return "".join(_C_ENCODER(obj, 0)) + "\n"


_SCAN_ONCE = json.JSONDecoder().scan_once


def decode_line(line: str | bytes):
    """What json.loads(line) gives: the same value or the same exception.
    A line that is one JSON value from its first character to its last, in
    UTF-8 if bytes, is read by one scanner call; any other (whitespace at
    either end, a BOM, another encoding, bad JSON) goes to json.loads itself,
    so its errors and its rules for bytes hold."""
    try:
        text = line if isinstance(line, str) else line.decode()
        value, end = _SCAN_ONCE(text, 0)
        if end == len(text):
            return value
    except (ValueError, StopIteration, RecursionError, AttributeError):
        pass
    return json.loads(line)


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


@record
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
        if not isinstance(label, str):
            raise FormatError(f"span {self.id}: label must be a string, "
                              f"got {type(label).__name__}")
        # split() breaks at exactly the characters isspace() accepts, so a
        # label is [label] iff it is non-empty and holds none of them
        if not label or label.split() != [label]:
            raise FormatError(f"span {self.id}: label must be non-empty without whitespace")

    def slice(self, text: str) -> str:
        return text[self.start:self.end]


@record
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


@record
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
        # span ids run 0..len(spans)-1, checked above
        for r in self.relations:
            if not (0 <= r.head_span_id < len(spans) and 0 <= r.tail_span_id < len(spans)):
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

    def span_texts(self) -> list[str]:
        return [s.slice(self.text) for s in self.spans]


@record
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
    return _decode_bio(tokens, tags, lenient, "token {}".format)


def _decode_bio(tokens, tags, lenient: bool, where) -> list[LabeledSpan]:
    """spans_from_bio without its length check; where(i) names token i in a FormatError."""
    bounds = token_bounds(tokens)
    spans: list[LabeledSpan] = []
    run = None  # the open run's label; it spans from token `first` to offset `end`
    first = end = 0
    for i, tag in enumerate([*tags, "O"]):  # the final O closes the last run
        label = tag[2:]
        if label == run and tag.startswith("I-"):
            end = bounds[i][1]
            continue
        if tag != "O" and not tag.startswith("B-"):
            if not tag.startswith("I-"):
                raise FormatError(f"bad BIO tag {tag!r} at {where(i)}")
            if not lenient:
                raise FormatError(f"label change inside run at {where(i)}" if run is not None
                                  else f"I-{label} without preceding B-{label} at {where(i)}")
        if run is not None:
            try:
                spans.append(LabeledSpan(len(spans), bounds[first][0], end, run))
            except FormatError as e:  # an empty or whitespace label, or only empty tokens
                raise FormatError(f"{e} at {where(first)}") from None
        if tag == "O":
            run = None
        else:
            run, first, end = label, i, bounds[i][1]
    return spans


def token_bounds(tokens) -> list[tuple[int, int]]:
    """[start, end) codepoint offsets of each token in the single-space-joined text."""
    bounds = []
    offset = 0
    for token in tokens:
        bounds.append((offset, offset + len(token)))
        offset += len(token) + 1
    return bounds


def span_token_ranges(text: str, spans) -> list[tuple[int, int]]:
    """[first, last + 1) token range of each span over the tokens of `text`,
    split at each space. Every span must start and end on a token boundary:
    a space or the text's start before it and a space or the text's end
    after it. Its first token is the number of spaces before it, counted on
    from the previous span's end, so ordered spans scan the text once."""
    n = len(text)
    ranges = []
    at = spaces = 0  # spaces == text.count(" ", 0, at)
    for span in spans:
        start, end = span.start, span.end
        if (end > n or (end < n and text[end] != " ")
                or (start and text[start - 1] != " ")):
            raise FormatError(f"span {span.id} ({start},{end}) not on token boundary")
        if start < at:  # out of order: count from the text's start
            at = spaces = 0
        first = spaces + text.count(" ", at, start)
        spaces = first + text.count(" ", start, end)
        at = end
        ranges.append((first, spaces + 1))
    return ranges


def bio_from_spans(tokens: list[str], spans: list[LabeledSpan]) -> list[str]:
    """Inverse of spans_from_bio: spans must align exactly to token boundaries
    of the tokens joined by single spaces, and no token may hold a space."""
    text = " ".join(tokens)
    if tokens and text.count(" ") >= len(tokens):
        k = next(k for k, token in enumerate(tokens) if " " in token)
        raise FormatError(f"token {k} holds a space")
    tags = ["O"] * len(tokens)
    for span, (first, stop) in zip(spans, span_token_ranges(text, spans)):
        tags[first] = f"B-{span.label}"
        for i in range(first + 1, stop):
            tags[i] = f"I-{span.label}"
    return tags


# ---------------------------------------------------------------------------
# CoNLL


def parse_conll(text: str, lenient: bool = False) -> list[AnnotatedSentence]:
    """Parse token TAB tag lines (BIO2), blank line separated sentences.

    "-DOCSTART-" lines are skipped. Tokens are joined with single spaces, so
    a token that holds a space is a FormatError.
    """
    sentences: list[AnnotatedSentence] = []
    tokens: list[str] = []
    tags: list[str] = []
    lines: list[int] = []
    for lineno, line in enumerate([*text.split("\n"), ""], start=1):  # "" ends the last sentence
        if not line.strip():
            if tokens:
                spans = _decode_bio(tokens, tags, lenient, lambda i: f"line {lines[i]}")
                sentences.append(AnnotatedSentence(" ".join(tokens), spans))
                tokens, tags, lines = [], [], []
            continue
        if line.startswith("-DOCSTART-"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'token<TAB>tag', got {len(parts)} columns")
        if " " in parts[0]:  # the joined text would split it into other tokens
            raise FormatError(f"line {lineno}: token holds a space")
        tokens.append(parts[0])
        tags.append(parts[1])
        lines.append(lineno)
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
        "meta": dict(sent.meta),
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
            sentences.append(sentence_from_json(decode_line(line)))
        except (json.JSONDecodeError, RecursionError, KeyError, TypeError, FormatError) as e:
            raise FormatError(f"line {lineno}: {e}") from None
    return sentences


def emit_jsonl(sentences: list[AnnotatedSentence]) -> str:
    return "".join([encode_line(sentence_to_json(s)) for s in sentences])


# ---------------------------------------------------------------------------
# SQuAD v1.1 JSON


def parse_squad(text: str) -> list[QaExample]:
    """Parse SQuAD v1.1 JSON; each qa must have exactly one answer whose text
    equals the context slice at answer_start. A malformed document raises
    FormatError, naming the qa being read if there is one."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
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
    qas_of: dict[str, list[dict]] = {}
    for ex in examples:
        qas_of.setdefault(ex.context, []).append(
            {
                "answers": [{"answer_start": ex.answer.start, "text": ex.answer_text}],
                "id": ex.id,
                "question": ex.question,
            }
        )
    paragraphs = [{"context": context, "qas": qas} for context, qas in qas_of.items()]
    doc = {"data": [{"paragraphs": paragraphs, "title": title}], "version": "1.1"}
    return json.dumps(doc, ensure_ascii=False, sort_keys=True)
