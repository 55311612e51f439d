"""spanbridge command line: mark, project, align-project, build-ftdata,
stats, bleu, rate, warm-cache.

Exit codes: 0 = all sentences projected; 2 = completed but some items were
filtered or failed (report written); 1 = usage/config error; 3 = I/O or
backend-fatal error. Diagnostics go to stderr, data to files/stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from . import alignproject, core, easyproject, ftdata, markers, metrics, translate as tr

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_FATAL = 3

class UsageError(ValueError):
    pass


def _atomic_write(path: str, content: str):
    """Write via a temp file in the same directory, then rename, with open(path, "w")'s mode."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".spanbridge-{os.urandom(8).hex()}")
    try:
        with open(tmp, "x", encoding="utf-8") as f:
            if os.path.exists(path):
                shutil.copymode(path, tmp)
            f.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:  # name the file: a command may read three
            raise UsageError(f"{path}: {e}") from None


def _read_lines(path: str) -> list[str]:
    """Lines of a plain-text file, read with universal newlines: "\n", "\r\n" and a lone
    "\r" end a line; str.splitlines() would also break one at U+0085, U+2028 and the like."""
    lines = _read(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _load_corpus(path: str, fmt: str, lenient: bool) -> list[core.AnnotatedSentence]:
    text = _read(path)
    if fmt == "conll":
        return core.parse_conll(text, lenient=lenient)
    return core.parse_jsonl(text)


def _scheme_from_args(args) -> markers.MarkerScheme:
    return markers.MarkerScheme(args.scheme, pad_with_space=not args.no_pad)


def _matcher_from_args(args, scheme: markers.MarkerScheme) -> easyproject.MatcherConfig:
    if args.matcher is not None and markers.carries_identity(scheme):
        raise UsageError(
            f"--matcher cannot be combined with --scheme {args.scheme}: "
            f"{args.scheme} markers carry label identity, so no matching is needed"
        )
    return easyproject.MatcherConfig(
        mode=args.matcher or easyproject.MATCH_FUZZY,
        threshold=args.threshold,
        on_no_match=easyproject.FALLBACK_DROP if args.drop_unmatched
        else easyproject.FALLBACK_POSITIONAL,
    )


def _backend_from_args(args):
    if args.backend == "identity":
        return tr.IdentityBackend()
    if args.backend == "lexicon":
        token_map = {}
        if args.lexicon:
            token_map = json.loads(_read(args.lexicon))
            if type(token_map) is not dict:
                raise UsageError(f"--lexicon {args.lexicon}: expected a JSON object, "
                                 f"got {type(token_map).__name__}")
        return tr.LexiconBackend(tr.LexiconBackendConfig(token_map, reorder=args.reorder))
    url = os.environ.get("SPANBRIDGE_MT_URL") or args.mt_url
    http = tr.HttpBackend(url, timeout_ms=args.timeout_ms, retries=args.retries) if url else None
    if args.backend == "cache":
        if not args.cache:
            raise UsageError("--backend cache requires --cache PATH")
        return tr.CacheBackend(tr.TranslationCache(args.cache), None if args.offline else http)
    if http is None:
        raise UsageError("--backend http requires --mt-url or SPANBRIDGE_MT_URL")
    return http


def _positive_int(value: str) -> int:
    """argparse type of a count flag; argparse names the flag in its error."""
    try:
        n = int(value)
    except ValueError:  # the message type=int gives
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _add_backend_flags(p: argparse.ArgumentParser):
    p.add_argument("--backend", default="identity",
                   choices=["identity", "lexicon", "cache", "http"])
    p.add_argument("--lexicon", help="JSON token map for the lexicon backend")
    p.add_argument("--reorder", default=tr.REORDER_NONE,
                   help="lexicon reorder: none, reverse, or seed:<int>")
    p.add_argument("--cache", help="JSONL translation cache path")
    p.add_argument("--offline", action="store_true",
                   help="cache backend: fail on cache misses instead of calling upstream")
    p.add_argument("--mt-url", default=None, help="HTTP backend base URL")
    p.add_argument("--timeout-ms", type=_positive_int, default=30000)
    p.add_argument("--retries", type=_positive_int, default=tr.DEFAULT_RETRIES)
    p.add_argument("--src-lang", default="src")
    p.add_argument("--tgt-lang", default="tgt")


def _add_scheme_flags(p: argparse.ArgumentParser):
    p.add_argument("--scheme", default=markers.SQUARE_BRACKET, choices=sorted(markers.SCHEME_KINDS))
    p.add_argument("--no-pad", action="store_true",
                   help="do not pad markers with spaces (unsegmented scripts)")


def _add_input_flags(p: argparse.ArgumentParser):
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", default="jsonl", choices=["jsonl", "conll"])
    p.add_argument("--lenient-bio", action="store_true",
                   help="treat stray I-X tags as B-X when parsing CoNLL")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanbridge",
        description="Span annotation projection toolkit (mark-then-translate "
                    "and word-alignment baselines).",
        allow_abbrev=False,  # `--conf FILE` would parse, but no file would be applied
    )
    parser.add_argument("--config", help="key=value file pre-setting any flag (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mark", help="insert markers around annotated spans")
    _add_input_flags(p)
    _add_scheme_flags(p)
    p.add_argument("--out", required=True, help="output JSONL of marked text + marker maps")

    p = sub.add_parser("project", help="mark-then-translate projection")
    _add_input_flags(p)
    _add_scheme_flags(p)
    _add_backend_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write projection report JSON here")
    p.add_argument("--matcher", choices=["fuzzy", "sequential"], default=None)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--drop-unmatched", action="store_true",
                   help="drop sentences with no confident fuzzy match instead of "
                        "falling back to positional assignment")
    p.add_argument("--jobs", type=_positive_int, default=tr.DEFAULT_MAX_IN_FLIGHT,
                   help="batches in flight, at least 1")

    p = sub.add_parser("align-project", help="word-alignment baseline projection")
    _add_input_flags(p)
    p.add_argument("--translations", required=True, help="one translation per line")
    p.add_argument("--alignments", required=True, help="one Pharaoh line per sentence")
    p.add_argument("--out", required=True)
    p.add_argument("--report")

    p = sub.add_parser("build-ftdata", help="build bracketed fine-tuning pairs")
    p.add_argument("--src", required=True, help="annotated source JSONL")
    p.add_argument("--tgt", required=True, help="target sentences, one per line")
    p.add_argument("--out", required=True, help="output TSV: marked_src TAB marked_tgt")
    p.add_argument("--k", type=_positive_int, default=5000, help="pair budget, at least 1")
    p.add_argument("--case-sensitive", action="store_true")
    p.add_argument("--sort", default="descending", choices=["descending", "ascending"])
    _add_backend_flags(p)

    p = sub.add_parser("stats", help="corpus statistics as JSON")
    _add_input_flags(p)

    p = sub.add_parser("bleu", help="corpus BLEU (optionally stripping markers)")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--strip-scheme", choices=sorted(markers.SCHEME_KINDS))
    p.add_argument("--max-n", type=_positive_int, default=4, help="n-gram orders, at least 1")

    p = sub.add_parser("rate", help="projection rate from a report JSON")
    p.add_argument("--report", required=True)

    p = sub.add_parser("warm-cache", help="fill the translation cache from a live backend")
    p.add_argument("--in", dest="infile", required=True, help="texts, one per line")
    _add_backend_flags(p)
    p.add_argument("--cache-out", required=True, help="JSONL cache to append to")
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Prepend defaults from a key=value config file given as `--config FILE`
    or `--config=FILE`; explicit flags win because argparse takes the last
    occurrence."""
    for idx, arg in enumerate(argv):
        if arg == "--config":
            if idx + 1 == len(argv):
                raise UsageError("--config requires a FILE")
            path, rest = argv[idx + 1], argv[:idx] + argv[idx + 2:]
            break
        if arg.startswith("--config="):
            path, rest = arg[len("--config="):], argv[:idx] + argv[idx + 1:]
            break
    else:
        return argv
    try:
        lines = _read_lines(path)
    except (OSError, UsageError) as e:
        raise UsageError(f"cannot read config file: {e}") from None
    pre: list[str] = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        flag = "--" + key.replace("_", "-")
        if value.lower() == "true":
            pre.append(flag)
        elif value.lower() != "false":
            pre.extend([flag, value])
    # subcommand must stay first; insert config defaults right after it
    return rest[:1] + pre + rest[1:]


def _cmd_mark(args) -> int:
    scheme = _scheme_from_args(args)
    sentences = _load_corpus(args.infile, args.format, args.lenient_bio)
    lines = []
    skipped = 0
    for sentence in sentences:
        try:
            marked = markers.insert_markers(sentence, scheme)
        except markers.PreexistingMarkerError as e:
            print(f"skipped: {e}", file=sys.stderr)
            skipped += 1
            continue
        lines.append(core.encode_line(
            {"text": marked.text, "marker_map": list(marked.marker_map)}))
    _atomic_write(args.out, "".join(lines))
    return EXIT_PARTIAL if skipped else EXIT_OK


def _write_projection(args, projected, report) -> int:
    """Write --out and --report; the exit code says whether any sentence was lost."""
    _atomic_write(args.out, core.emit_jsonl(projected))
    if args.report:
        _atomic_write(args.report, json.dumps(report.to_json(), sort_keys=True) + "\n")
    if report.failed or report.filtered:
        print(f"projected {report.projected}/{report.total} "
              f"(filtered {report.filtered}, failed {report.failed})", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_project(args) -> int:
    scheme = _scheme_from_args(args)
    cfg = _matcher_from_args(args, scheme)
    backend = _backend_from_args(args)
    sentences = _load_corpus(args.infile, args.format, args.lenient_bio)
    projected, report = easyproject.project_corpus(
        sentences, backend, scheme, cfg,
        src_lang=args.src_lang, tgt_lang=args.tgt_lang, jobs=args.jobs,
    )
    return _write_projection(args, projected, report)


def _cmd_align_project(args) -> int:
    sentences = _load_corpus(args.infile, args.format, args.lenient_bio)
    translations = _read_lines(args.translations)
    alignment_lines = _read_lines(args.alignments)
    if not (len(sentences) == len(translations) == len(alignment_lines)):
        raise UsageError(
            f"index mismatch: {len(sentences)} sentences, {len(translations)} "
            f"translations, {len(alignment_lines)} alignment lines"
        )
    pairs = []
    for n, (sentence, translation, line) in enumerate(
            zip(sentences, translations, alignment_lines), start=1):
        src_tokens = tuple(sentence.text.split(" "))
        tgt_tokens = tuple(translation.split())
        try:
            alignment = alignproject.parse_pharaoh(line, len(src_tokens), len(tgt_tokens))
        except core.FormatError as e:
            raise core.FormatError(f"line {n}: {e}") from None
        pairs.append(alignproject.AlignedPair(src_tokens, tgt_tokens, alignment))
    projected, report = alignproject.project_corpus_aligned(sentences, pairs)
    return _write_projection(args, projected, report)


def _cmd_build_ftdata(args) -> int:
    backend = _backend_from_args(args)
    src_sentences = core.parse_jsonl(_read(args.src))
    tgt_lines = _read_lines(args.tgt)
    if len(src_sentences) != len(tgt_lines):
        raise UsageError(
            f"index mismatch: {len(src_sentences)} source sentences, "
            f"{len(tgt_lines)} target lines"
        )
    for n, (src, tgt) in enumerate(zip(src_sentences, tgt_lines), start=1):
        if "\t" in src.text or "\t" in tgt:
            raise UsageError(f"line {n}: a tab in the source or target text would split pairs.tsv")
        if "\n" in src.text or "\r" in src.text:  # a target line holds neither
            raise UsageError(f"line {n}: a line break in the source text would split pairs.tsv")
    cfg = ftdata.FtDataConfig(
        k=args.k, match_case_fold=not args.case_sensitive, length_sort=args.sort
    )
    pairs = [ftdata.ParallelPair(s, t) for s, t in zip(src_sentences, tgt_lines)]
    out = ftdata.build_ft_pairs(pairs, backend, cfg,
                                src_lang=args.src_lang, tgt_lang=args.tgt_lang)
    _atomic_write(args.out, "".join(f"{s}\t{t}\n" for s, t in out))
    return EXIT_OK


def _cmd_stats(args) -> int:
    sentences = _load_corpus(args.infile, args.format, args.lenient_bio)
    print(json.dumps(metrics.corpus_stats(sentences), sort_keys=True))
    return EXIT_OK


def _cmd_bleu(args) -> int:
    hyp_lines = _read_lines(args.hyp)
    ref_lines = _read_lines(args.ref)
    if args.strip_scheme:
        scheme = markers.MarkerScheme(args.strip_scheme)
        hyp_lines = [markers.strip_markers(h, scheme) for h in hyp_lines]
    score = metrics.corpus_bleu(
        [h.split() for h in hyp_lines],
        [r.split() for r in ref_lines],
        max_n=args.max_n,
    )
    print(json.dumps({"bleu": score}))
    return EXIT_OK


def _cmd_rate(args) -> int:
    report = json.loads(_read(args.report))
    if not (isinstance(report, dict)
            and all(type(report.get(key)) is int for key in ("total", "projected"))
            and 0 <= report["projected"] <= report["total"]):
        raise UsageError(f"{args.report}: not a projection report")
    rate = metrics.projection_rate(
        metrics.ProjectionReport(total=report["total"], projected=report["projected"]))
    print(json.dumps({"projection_rate": rate}))
    return EXIT_OK


def _cmd_warm_cache(args) -> int:
    backend = _backend_from_args(args)
    texts = [line for line in _read_lines(args.infile) if line]
    request = tr.TranslateRequest(tuple(texts), args.src_lang, args.tgt_lang)
    new, errors = tr.warm_cache([request], backend, args.cache_out)
    print(json.dumps({"new_entries": new, "errors": errors}))
    return EXIT_PARTIAL if errors else EXIT_OK


_COMMANDS = {
    "mark": _cmd_mark,
    "project": _cmd_project,
    "align-project": _cmd_align_project,
    "build-ftdata": _cmd_build_ftdata,
    "stats": _cmd_stats,
    "bleu": _cmd_bleu,
    "rate": _cmd_rate,
    "warm-cache": _cmd_warm_cache,
}


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(_apply_config_file(list(argv)))
        return _COMMANDS[args.command](args)
    except SystemExit as e:  # argparse has printed its usage error or --help
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    except (tr.CorruptCacheError, OSError) as e:  # first: a corrupt cache is a ValueError too
        print(f"fatal: {e}", file=sys.stderr)
        return EXIT_FATAL
    except (ValueError, RecursionError) as e:  # UsageError, FormatError; JSON nested too deep
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
