"""spanbridge: span annotation projection across languages.

Projects span-level annotations (NER, QA answers, event triggers) from a
source-language corpus onto machine-translated text via mark-then-translate
with fuzzy label assignment, or via word-alignment heuristics, with the
shared count-equality filtering rule and evaluation metrics.

Importing the package loads no submodule: each public name below imports
its submodule on first use (PEP 562), so a process that needs only the MT
boundary (`spanbridge.translate`) does not load the projection pipeline.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    "AnnotatedSentence": "core",
    "FormatError": "core",
    "LabeledSpan": "core",
    "QaExample": "core",
    "RelationLink": "core",
    "MatcherConfig": "easyproject",
    "ProjectionOutcome": "easyproject",
    "ProjectionReport": "easyproject",
    "fuzzy_ratio": "easyproject",
    "project_corpus": "easyproject",
    "project_qa": "easyproject",
    "project_sentence": "easyproject",
    "MarkerScheme": "markers",
    "extract_markers": "markers",
    "insert_markers": "markers",
    "strip_markers": "markers",
    "corpus_bleu": "metrics",
    "corpus_stats": "metrics",
    "projection_rate": "metrics",
}

__all__ = [*sorted(_SOURCES), "__version__"]


def __getattr__(name: str):
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{source}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return list(__all__)
