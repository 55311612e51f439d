import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_corpus, make_entity_corpus
from spanbridge import cli, easyproject, metrics, translate as tr
from spanbridge.cli import EXIT_FATAL, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, build_parser, run
from spanbridge.core import AnnotatedSentence, LabeledSpan, RelationLink, emit_jsonl, parse_jsonl
from spanbridge.markers import MarkerScheme, insert_markers


@pytest.fixture
def corpus_file(tmp_path):
    corpus = make_corpus(30, seed=2)
    path = tmp_path / "in.jsonl"
    path.write_text(emit_jsonl(corpus), encoding="utf-8")
    return path, corpus


class TestProjectCommand:
    def test_identity_clean_corpus_exit_0(self, tmp_path, corpus_file):
        path, corpus = corpus_file
        out = tmp_path / "out.jsonl"
        report = tmp_path / "report.json"
        code = run(["project", "--in", str(path), "--out", str(out),
                    "--backend", "identity", "--report", str(report)])
        assert code == EXIT_OK
        assert out.read_text(encoding="utf-8") == emit_jsonl(corpus)
        rep = json.loads(report.read_text())
        assert rep["projected"] == rep["total"] == 30

    def test_marker_loss_exit_2(self, tmp_path):
        corpus = make_corpus(30, seed=2)
        # a sentence with a pre-existing bracket gets filtered
        corpus = [AnnotatedSentence("x [ y ] z", (LabeledSpan(0, 0, 1, "X"),))] + corpus
        path = tmp_path / "in.jsonl"
        path.write_text(emit_jsonl(corpus), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        report = tmp_path / "report.json"
        code = run(["project", "--in", str(path), "--out", str(out),
                    "--report", str(report)])
        assert code == EXIT_PARTIAL
        rep = json.loads(report.read_text())
        assert rep["filtered"] == 1
        assert len(parse_jsonl(out.read_text(encoding="utf-8"))) == 30

    def test_float_offset_exit_1(self, tmp_path, capsys):
        path = tmp_path / "f.jsonl"
        path.write_text('{"text": "ab cd", "spans": [{"start": 0.0, "end": 2, "label": "X"}]}\n',
                        encoding="utf-8")
        code = run(["project", "--in", str(path), "--out", str(tmp_path / "o.jsonl"),
                    "--report", str(tmp_path / "r.json")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: line 1: span 0: offsets must be integers, got 0.0 and 2\n"
        assert not (tmp_path / "o.jsonl").exists()

    def test_mt_url_without_scheme_exit_1(self, tmp_path, corpus_file, capsys, monkeypatch):
        monkeypatch.delenv("SPANBRIDGE_MT_URL", raising=False)
        path, _ = corpus_file
        code = run(["project", "--in", str(path), "--out", str(tmp_path / "o"),
                    "--backend", "http", "--mt-url", "localhost:9"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: MT URL 'localhost:9'")

    @pytest.mark.parametrize("flag", ["--retries", "--timeout-ms"])
    def test_http_setting_that_never_succeeds_exit_1(self, tmp_path, corpus_file, capsys,
                                                     monkeypatch, flag):
        monkeypatch.delenv("SPANBRIDGE_MT_URL", raising=False)
        path, _ = corpus_file
        code = run(["project", "--in", str(path), "--out", str(tmp_path / "o"),
                    "--backend", "http", "--mt-url", "http://127.0.0.1:9", flag, "0"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: must be at least 1, got 0\n")
        assert not (tmp_path / "o").exists()

    def test_timeout_past_the_cap_exit_1(self, tmp_path, corpus_file, capsys, monkeypatch):
        # it passes the flag's own check, so the backend refuses it before any request
        monkeypatch.delenv("SPANBRIDGE_MT_URL", raising=False)
        path, _ = corpus_file
        code = run(["project", "--in", str(path), "--out", str(tmp_path / "o"),
                    "--backend", "http", "--mt-url", "http://127.0.0.1:9",
                    "--timeout-ms", "1000000000000000"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: timeout_ms must be at most 86400000, got 1000000000000000\n"
        assert not (tmp_path / "o").exists()

    def test_unknown_flag_exit_1(self, capsys):
        assert run(["project", "--nope"]) == EXIT_USAGE

    def test_fuzzy_with_xml_rejected(self, corpus_file, tmp_path, capsys):
        path, _ = corpus_file
        code = run(["project", "--in", str(path), "--out", str(tmp_path / "o"),
                    "--scheme", "xml", "--matcher", "fuzzy"])
        assert code == EXIT_USAGE
        assert "label identity" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["xml", "placeholder"])
    @pytest.mark.parametrize("matcher", ["fuzzy", "sequential"])
    def test_any_matcher_rejected_with_identity_markers(self, corpus_file, tmp_path, capsys,
                                                         scheme, matcher):
        path, _ = corpus_file
        code = run(["project", "--in", str(path), "--out", str(tmp_path / "o"),
                    "--scheme", scheme, "--matcher", matcher])
        assert code == EXIT_USAGE
        assert "label identity" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["brackets", "quotes"])
    @pytest.mark.parametrize("matcher", ["fuzzy", "sequential"])
    def test_anonymous_markers_accept_either_matcher(self, corpus_file, tmp_path, scheme,
                                                     matcher):
        path, corpus = corpus_file
        out = tmp_path / "o"
        code = run(["project", "--in", str(path), "--out", str(out),
                    "--scheme", scheme, "--matcher", matcher])
        assert code == EXIT_OK
        assert parse_jsonl(out.read_text(encoding="utf-8")) == corpus

    def test_missing_input_exit_3(self, tmp_path):
        code = run(["project", "--in", str(tmp_path / "missing.jsonl"),
                    "--out", str(tmp_path / "o")])
        assert code == EXIT_FATAL

    def test_out_naming_a_directory_exit_3_without_a_temp_file(self, tmp_path, corpus_file,
                                                               capsys):
        path, _ = corpus_file
        out = tmp_path / "out"
        out.mkdir()
        assert run(["project", "--in", str(path), "--out", str(out)]) == EXIT_FATAL
        assert capsys.readouterr().err.startswith("fatal: [Errno 21] Is a directory")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "out"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        (["--backend", "lexicon", "--reorder", "revrse"],
         "error: reorder must be none, reverse or seed:<int>, got 'revrse'\n"),
        (["--backend", "lexicon", "--reorder", "seed:x"],
         "error: reorder must be none, reverse or seed:<int>, got 'seed:x'\n"),
        (["--backend", "http"], "error: --backend http requires --mt-url or SPANBRIDGE_MT_URL\n"),
        (["--backend", "cache"], "error: --backend cache requires --cache PATH\n"),
    ])
    def test_setting_that_never_works_exit_1(self, tmp_path, corpus_file, capsys, monkeypatch,
                                             flags, message):
        monkeypatch.delenv("SPANBRIDGE_MT_URL", raising=False)
        path, _ = corpus_file
        code = run(["project", "--in", str(path), "--out", str(tmp_path / "o")] + flags)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == message
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("env, url", [("", "localhost:9"), ("localhost:8", "localhost:8")])
    def test_a_non_empty_mt_url_variable_overrides_the_flag(self, tmp_path, corpus_file, capsys,
                                                            monkeypatch, env, url):
        # the URL in use is the one the scheme check names; nothing is sent
        monkeypatch.setenv("SPANBRIDGE_MT_URL", env)
        path, _ = corpus_file
        code = run(["project", "--in", str(path), "--out", str(tmp_path / "o"),
                    "--backend", "http", "--mt-url", "localhost:9"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: MT URL {url!r} must start with ")

    @pytest.mark.parametrize("jobs, problem", [("0", "must be at least 1, got 0"),
                                               ("-3", "must be at least 1, got -3"),
                                               ("x", "invalid int value: 'x'")],
                             ids=["0", "-3", "x"])
    def test_jobs_below_one_is_refused_where_the_flag_is_parsed(self, tmp_path, capsys, jobs,
                                                                problem):
        # the input does not exist: the flag is refused before any file is read
        code = run(["project", "--in", str(tmp_path / "missing.jsonl"),
                    "--out", str(tmp_path / "o"), "--jobs", jobs])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument --jobs: {problem}\n")
        assert "missing.jsonl" not in err

    @pytest.mark.parametrize("lexicon, message", [
        ('{"a": 5}', "error: lexicon entry ('a', 5) is not a pair of strings\n"),
        ('{"a": null}', "error: lexicon entry ('a', None) is not a pair of strings\n"),
        ('[["a", "b"]]', "error: --lexicon {path}: expected a JSON object, got list\n"),
        ('"a"', "error: --lexicon {path}: expected a JSON object, got str\n"),
    ])
    def test_lexicon_file_contents_are_a_usage_error(self, tmp_path, corpus_file, capsys,
                                                     lexicon, message):
        path, _ = corpus_file
        lex = tmp_path / "lex.json"
        lex.write_text(lexicon, encoding="utf-8")
        code = run(["project", "--in", str(path), "--out", str(tmp_path / "o"),
                    "--backend", "lexicon", "--lexicon", str(lex)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == message.format(path=lex)
        assert not (tmp_path / "o").exists()

    def test_meta_must_be_an_object_with_free_form_values(self, tmp_path, capsys):
        path, out = tmp_path / "in.jsonl", tmp_path / "o"
        path.write_text('{"text": "ab"}\n{"text": "ab", "meta": [1, 2]}\n', encoding="utf-8")
        code = run(["project", "--in", str(path), "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: line 2: meta must be a JSON object, got list\n"
        assert not out.exists()
        line = '{"meta": {"k": [1], "n": {"m": null}}, "spans": [], "text": "ab"}\n'
        path.write_text(line, encoding="utf-8")
        assert run(["project", "--in", str(path), "--out", str(out)]) == EXIT_OK
        assert out.read_text(encoding="utf-8") == line

    def test_jobs_determinism(self, tmp_path, corpus_file):
        path, _ = corpus_file
        outputs = []
        for jobs in ("1", "8"):
            out = tmp_path / f"out{jobs}.jsonl"
            rep = tmp_path / f"rep{jobs}.json"
            assert run(["project", "--in", str(path), "--out", str(out),
                        "--report", str(rep), "--jobs", jobs]) == EXIT_OK
            outputs.append((out.read_bytes(), rep.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_jobs_defaults_to_the_translate_default(self):
        args = build_parser().parse_args(["project", "--in", "x", "--out", "y"])
        jobs = inspect.signature(easyproject.project_corpus).parameters["jobs"].default
        max_in_flight = inspect.signature(tr.translate).parameters["max_in_flight"].default
        assert args.jobs == jobs == max_in_flight == tr.DEFAULT_MAX_IN_FLIGHT

    def test_lexicon_backend_flags(self, tmp_path):
        sentences, token_map = make_entity_corpus(10, seed=6)
        path = tmp_path / "in.jsonl"
        path.write_text(emit_jsonl(sentences), encoding="utf-8")
        lex = tmp_path / "lex.json"
        lex.write_text(json.dumps(token_map), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        code = run(["project", "--in", str(path), "--out", str(out),
                    "--backend", "lexicon", "--lexicon", str(lex),
                    "--reorder", "reverse", "--matcher", "fuzzy"])
        assert code == EXIT_OK
        projected = parse_jsonl(out.read_text(encoding="utf-8"))
        assert len(projected) == 10

    @pytest.mark.parametrize("scheme, flags, ignored", [
        ("xml", ["--threshold", "1", "--drop-unmatched"], True),
        ("placeholder", ["--threshold", "1", "--drop-unmatched"], True),
        ("placeholder", ["--no-pad"], True),
        # at threshold 1 no match is confident, so anonymous markers drop every sentence
        ("brackets", ["--threshold", "1", "--drop-unmatched"], False),
        ("quotes", ["--threshold", "1", "--drop-unmatched"], False),
    ])
    def test_matching_flags_ignored_under_identity_markers(self, tmp_path, scheme, flags,
                                                           ignored):
        # identity markers need no matching, and a placeholder is not padded
        sentences, token_map = make_entity_corpus(50, seed=6)
        path = tmp_path / "in.jsonl"
        path.write_text(emit_jsonl(sentences), encoding="utf-8")
        lex = tmp_path / "lex.json"
        lex.write_text(json.dumps(token_map), encoding="utf-8")
        written = []
        for extra in ([], flags):
            out, report = tmp_path / "out.jsonl", tmp_path / "report.json"
            code = run(["project", "--in", str(path), "--out", str(out), "--report", str(report),
                        "--scheme", scheme, "--backend", "lexicon", "--lexicon", str(lex),
                        "--reorder", "reverse", *extra])
            written.append((code, out.read_bytes(), report.read_bytes()))
        assert written[0][0] == EXIT_OK
        assert (written[1] == written[0]) == ignored

    def test_conll_input(self, tmp_path):
        path = tmp_path / "in.conll"
        path.write_text("John\tB-PER\nlives\tO\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        code = run(["project", "--in", str(path), "--format", "conll",
                    "--out", str(out)])
        assert code == EXIT_OK
        sent = parse_jsonl(out.read_text(encoding="utf-8"))[0]
        assert sent.text == "John lives"
        assert sent.spans[0].label == "PER"

    def test_conll_token_holding_a_space_exit_1(self, tmp_path, capsys):
        path = tmp_path / "in.conll"
        path.write_text("New York\tB-LOC\nis\tO\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        code = run(["project", "--in", str(path), "--format", "conll",
                    "--out", str(out)])
        assert code == EXIT_USAGE
        assert "line 1: token holds a space" in capsys.readouterr().err
        assert not out.exists()


class TestMarkCommand:
    def test_mark_output(self, tmp_path, corpus_file):
        path, corpus = corpus_file
        out = tmp_path / "marked.jsonl"
        assert run(["mark", "--in", str(path), "--out", str(out),
                    "--scheme", "xml"]) == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(corpus)
        first = json.loads(lines[0])
        expected = insert_markers(corpus[0], MarkerScheme("xml"))
        assert first["text"] == expected.text

    def test_mark_line_bytes_keep_non_ascii_and_sorted_keys(self, tmp_path):
        sentence = AnnotatedSentence("Ünal lebt in 北京 .", (LabeledSpan(0, 13, 15, "LOC"),))
        path = tmp_path / "in.jsonl"
        path.write_text(emit_jsonl([sentence]), encoding="utf-8")
        out = tmp_path / "marked.jsonl"
        assert run(["mark", "--in", str(path), "--out", str(out)]) == EXIT_OK
        marked = insert_markers(sentence, MarkerScheme("brackets"))
        expected = json.dumps({"text": marked.text, "marker_map": list(marked.marker_map)},
                              ensure_ascii=False, sort_keys=True) + "\n"
        assert out.read_bytes() == expected.encode("utf-8")
        assert "北京" in out.read_text(encoding="utf-8")

    def test_placeholder_span_before_a_digit_is_skipped(self, tmp_path, capsys):
        sentences = [AnnotatedSentence("在北京2008年", (LabeledSpan(0, 1, 3, "LOC"),)),
                     AnnotatedSentence("Anna met Bob", (LabeledSpan(0, 0, 4, "PER"),))]
        path = tmp_path / "in.jsonl"
        path.write_text(emit_jsonl(sentences), encoding="utf-8")
        out = tmp_path / "marked.jsonl"
        assert run(["mark", "--in", str(path), "--out", str(out),
                    "--scheme", "placeholder"]) == EXIT_PARTIAL
        assert capsys.readouterr().err == (
            "skipped: span 0 is followed directly by digit '2', "
            "which would extend its placeholder 'LOC0'\n")
        assert [json.loads(line)["text"] for line in out.read_text(encoding="utf-8")
                .splitlines()] == ["PER0 met Bob"]


@pytest.fixture
def umask():
    """os.umask for one test; the umask in force before it is restored after it."""
    old = os.umask(0o022)
    yield os.umask
    os.umask(old)


def _one_sentence_inputs(tmp_path):
    sentence = AnnotatedSentence("Anna met Bob", (LabeledSpan(0, 0, 4, "PER"),))
    (tmp_path / "one.jsonl").write_text(emit_jsonl([sentence]), encoding="utf-8")
    (tmp_path / "tgt.txt").write_text("Anna met Bob\n", encoding="utf-8")


OUTPUT_COMMANDS = {
    "project": ["project", "--in", "one.jsonl", "--out", "out.txt", "--report", "rep.txt"],
    "mark": ["mark", "--in", "one.jsonl", "--out", "out.txt"],
    "build-ftdata": ["build-ftdata", "--src", "one.jsonl", "--tgt", "tgt.txt",
                     "--out", "out.txt"],
}


class TestAtomicWrite:
    """Outputs are renamed into place from a temp file, and get the mode a plain
    open(path, "w") would leave."""

    @pytest.mark.parametrize("mask", [0o022, 0o027, 0o077])
    @pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
    def test_a_new_file_gets_0666_less_the_umask(self, tmp_path, monkeypatch, umask, mask,
                                                 command):
        _one_sentence_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        umask(mask)
        (tmp_path / "touched").touch()
        assert run(OUTPUT_COMMANDS[command]) == EXIT_OK
        written = [name for name in ("out.txt", "rep.txt") if (tmp_path / name).exists()]
        assert written == (["out.txt", "rep.txt"] if command == "project" else ["out.txt"])
        for name in ["touched", *written]:
            assert (tmp_path / name).stat().st_mode & 0o7777 == 0o666 & ~mask, name

    @pytest.mark.parametrize("mode", [0o644, 0o604, 0o660])
    @pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
    def test_an_existing_file_keeps_its_mode(self, tmp_path, monkeypatch, umask, mode,
                                             command):
        _one_sentence_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        umask(0o077)
        out = tmp_path / "out.txt"
        out.write_text("old\n", encoding="utf-8")
        out.chmod(mode)
        assert run(OUTPUT_COMMANDS[command]) == EXIT_OK
        assert out.read_text(encoding="utf-8") != "old\n"
        assert out.stat().st_mode & 0o7777 == mode

    def test_a_write_that_raises_leaves_the_old_file(self, tmp_path):
        out = tmp_path / "out.txt"
        out.write_bytes(b"old bytes\n")
        with pytest.raises(UnicodeEncodeError):
            cli._atomic_write(str(out), "a lone surrogate \ud800")
        assert out.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


class TestAlignProjectCommand:
    def test_identity_alignment(self, tmp_path, corpus_file):
        path, corpus = corpus_file
        translations = tmp_path / "t.txt"
        alignments = tmp_path / "a.txt"
        translations.write_text(
            "".join(s.text + "\n" for s in corpus), encoding="utf-8")
        alignments.write_text(
            "".join(" ".join(f"{i}-{i}" for i in range(len(s.text.split(" ")))) + "\n"
                    for s in corpus), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        code = run(["align-project", "--in", str(path),
                    "--translations", str(translations),
                    "--alignments", str(alignments), "--out", str(out)])
        assert code == EXIT_OK
        projected = parse_jsonl(out.read_text(encoding="utf-8"))
        assert [s.text for s in projected] == [s.text for s in corpus]
        assert [s.spans for s in projected] == [s.spans for s in corpus]

    def test_filtered_sentence_exit_2_with_summary(self, tmp_path, capsys):
        path = tmp_path / "in.jsonl"
        path.write_text(emit_jsonl([
            AnnotatedSentence("a b", (LabeledSpan(0, 0, 1, "X"),)),
            AnnotatedSentence("c d", (LabeledSpan(0, 2, 3, "Y"),)),
        ]), encoding="utf-8")
        (tmp_path / "t.txt").write_text("p\nr s\n", encoding="utf-8")
        (tmp_path / "a.txt").write_text("1-0\n0-0 1-1\n", encoding="utf-8")  # "a" unaligned
        code = run(["align-project", "--in", str(path),
                    "--translations", str(tmp_path / "t.txt"),
                    "--alignments", str(tmp_path / "a.txt"),
                    "--out", str(tmp_path / "o")])
        assert code == EXIT_PARTIAL
        assert capsys.readouterr().err == "projected 1/2 (filtered 1, failed 0)\n"

    def test_index_mismatch_exit_1(self, tmp_path, corpus_file):
        path, _ = corpus_file
        (tmp_path / "t.txt").write_text("one line\n", encoding="utf-8")
        (tmp_path / "a.txt").write_text("0-0\n", encoding="utf-8")
        code = run(["align-project", "--in", str(path),
                    "--translations", str(tmp_path / "t.txt"),
                    "--alignments", str(tmp_path / "a.txt"),
                    "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE


    @pytest.mark.parametrize("alignments, spans, message", [
        ("0-0 x-1", [(0, 1)], "malformed alignment pair 'x-1' at position 1"),
        ("0-0 1-5", [(0, 1)],
         "alignment pair '1-5' at position 1 out of range (2 source / 2 target tokens)"),
        ("0-0 1-1", [(0, 2)], "span 0 (0,2) not on token boundary"),
    ])
    def test_errors_name_the_input_line(self, tmp_path, capsys, alignments, spans, message):
        path = tmp_path / "in.jsonl"
        path.write_text(emit_jsonl([
            AnnotatedSentence("a b", (LabeledSpan(0, 0, 1, "X"),)),
            AnnotatedSentence("c d", [LabeledSpan(k, s, e, "Y") for k, (s, e) in enumerate(spans)]),
        ]), encoding="utf-8")
        (tmp_path / "t.txt").write_text("p q\nr s\n", encoding="utf-8")
        (tmp_path / "a.txt").write_text(f"0-0 1-1\n{alignments}\n", encoding="utf-8")
        code = run(["align-project", "--in", str(path),
                    "--translations", str(tmp_path / "t.txt"),
                    "--alignments", str(tmp_path / "a.txt"),
                    "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: line 2: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_a_pharaoh_fault_is_reported_before_a_span_fault_on_an_earlier_line(
            self, tmp_path, capsys):
        # alignments are parsed for every line before any span is projected
        path = tmp_path / "in.jsonl"
        path.write_text(emit_jsonl([
            AnnotatedSentence("a b", (LabeledSpan(0, 0, 2, "X"),)),
            AnnotatedSentence("c d", (LabeledSpan(0, 0, 1, "Y"),)),
        ]), encoding="utf-8")
        (tmp_path / "t.txt").write_text("p q\nr s\n", encoding="utf-8")
        (tmp_path / "a.txt").write_text("0-0 1-1\n0-0 x-1\n", encoding="utf-8")
        code = run(["align-project", "--in", str(path),
                    "--translations", str(tmp_path / "t.txt"),
                    "--alignments", str(tmp_path / "a.txt"),
                    "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: line 2: malformed alignment pair 'x-1' at position 1\n"

    def test_relations_follow_their_spans(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text(emit_jsonl([AnnotatedSentence(
            "A met B", (LabeledSpan(0, 0, 1, "PER"), LabeledSpan(1, 6, 7, "LOC")),
            relations=(RelationLink("MEET", 0, 1),))]), encoding="utf-8")
        (tmp_path / "t.txt").write_text("B traf A\n", encoding="utf-8")
        (tmp_path / "a.txt").write_text("0-2 1-1 2-0\n", encoding="utf-8")
        out = tmp_path / "o.jsonl"
        code = run(["align-project", "--in", str(path),
                    "--translations", str(tmp_path / "t.txt"),
                    "--alignments", str(tmp_path / "a.txt"), "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text(encoding="utf-8")) == {
            "text": "B traf A", "meta": {},
            "spans": [{"start": 0, "end": 1, "label": "LOC"},
                      {"start": 7, "end": 8, "label": "PER"}],
            "relations": [{"kind": "MEET", "head": 1, "tail": 0}]}

    def test_line_files_split_at_newline_only(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text(emit_jsonl([
            AnnotatedSentence("a b", (LabeledSpan(0, 0, 1, "X"),)),
            AnnotatedSentence("c d", (LabeledSpan(0, 2, 3, "Y"),)),
        ]), encoding="utf-8")
        # U+0085 is a line break to str.splitlines(), and whitespace to str.split()
        (tmp_path / "t.txt").write_text("x\x85y z\nr s\n", encoding="utf-8")
        (tmp_path / "a.txt").write_text("0-2 1-0\n0-0 1-1\n", encoding="utf-8")
        out = tmp_path / "o.jsonl"
        code = run(["align-project", "--in", str(path),
                    "--translations", str(tmp_path / "t.txt"),
                    "--alignments", str(tmp_path / "a.txt"), "--out", str(out)])
        assert code == EXIT_OK
        projected = parse_jsonl(out.read_text(encoding="utf-8"))
        assert [s.span_texts() for s in projected] == [["z"], ["s"]]

    def test_build_ftdata_reads_one_target_per_newline(self, tmp_path):
        src = tmp_path / "src.jsonl"
        src.write_text(emit_jsonl([AnnotatedSentence("alpha bravo", (LabeledSpan(0, 0, 5, "X"),))]),
                       encoding="utf-8")
        (tmp_path / "tgt.txt").write_text("p\u2028alpha q\n", encoding="utf-8")
        out = tmp_path / "pairs.tsv"
        code = run(["build-ftdata", "--src", str(src), "--tgt", str(tmp_path / "tgt.txt"),
                    "--out", str(out), "--backend", "identity"])
        assert code == EXIT_OK
        assert out.read_text(encoding="utf-8") == "[ alpha ] bravo\tp\u2028[ alpha ] q\n"

    def test_build_ftdata_index_mismatch_exit_1(self, tmp_path, capsys):
        src = tmp_path / "src.jsonl"
        src.write_text(emit_jsonl([AnnotatedSentence("alpha", ()), AnnotatedSentence("bravo", ())]),
                       encoding="utf-8")
        (tmp_path / "tgt.txt").write_text("alpha\n", encoding="utf-8")
        out = tmp_path / "pairs.tsv"
        code = run(["build-ftdata", "--src", str(src), "--tgt", str(tmp_path / "tgt.txt"),
                    "--out", str(out), "--backend", "identity"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: index mismatch: 2 source sentences, 1 target lines\n"
        assert not out.exists()

    @pytest.mark.parametrize("src_text, tgt_line", [
        ("alpha bravo", "p\talpha q"),
        ("alpha\tbravo", "p alpha q"),
    ])
    def test_build_ftdata_refuses_a_tab_before_translating(self, tmp_path, capsys, monkeypatch,
                                                            src_text, tgt_line):
        def no_translation(*args, **kwargs):
            raise AssertionError("build_ft_pairs ran")

        monkeypatch.setattr("spanbridge.ftdata.build_ft_pairs", no_translation)
        src = tmp_path / "src.jsonl"
        src.write_text(emit_jsonl([
            AnnotatedSentence("charlie delta", (LabeledSpan(0, 0, 7, "X"),)),
            AnnotatedSentence(src_text, (LabeledSpan(0, 0, 5, "X"),)),
        ]), encoding="utf-8")
        (tmp_path / "tgt.txt").write_text(f"charlie d\n{tgt_line}\n", encoding="utf-8")
        out = tmp_path / "pairs.tsv"
        code = run(["build-ftdata", "--src", str(src), "--tgt", str(tmp_path / "tgt.txt"),
                    "--out", str(out), "--backend", "identity"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: line 2: ")
        assert not out.exists()


    @pytest.mark.parametrize("src_text", ["alpha\nbravo", "alpha\rbravo"])
    def test_build_ftdata_refuses_a_line_break_in_a_source_text(self, tmp_path, capsys, src_text):
        src = tmp_path / "src.jsonl"
        src.write_text(emit_jsonl([
            AnnotatedSentence("charlie delta", (LabeledSpan(0, 0, 7, "X"),)),
            AnnotatedSentence(src_text, (LabeledSpan(0, 0, 5, "X"),)),
        ]), encoding="utf-8")
        (tmp_path / "tgt.txt").write_text("charlie d\np alpha q\n", encoding="utf-8")
        out = tmp_path / "pairs.tsv"
        code = run(["build-ftdata", "--src", str(src), "--tgt", str(tmp_path / "tgt.txt"),
                    "--out", str(out), "--backend", "identity"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: line 2: a line break in the source text would split pairs.tsv\n"
        assert not out.exists()


class TestMetricsCommands:
    def test_stats(self, tmp_path, corpus_file, capsys):
        path, corpus = corpus_file
        assert run(["stats", "--in", str(path)]) == EXIT_OK
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_sentences"] == 30

    def test_stats_prints_the_corpus_stats_dict(self, corpus_file, capsys):
        path, corpus = corpus_file
        assert run(["stats", "--in", str(path)]) == EXIT_OK
        stats = metrics.corpus_stats(corpus)
        assert capsys.readouterr().out == json.dumps(stats, sort_keys=True) + "\n"
        assert list(stats["label_histogram"]) == sorted(stats["label_histogram"])

    def test_stats_of_a_conll_label_with_whitespace_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "in.conll"
        path.write_text("w\tO\n\nx\tB-a b\ny\tO\n", encoding="utf-8")
        assert run(["stats", "--in", str(path), "--format", "conll"]) == EXIT_USAGE
        assert capsys.readouterr() == \
            ("", "error: span 0: label must be non-empty without whitespace at line 3\n")

    def test_bleu_with_strip(self, tmp_path, corpus_file, capsys):
        _, corpus = corpus_file
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        scheme = MarkerScheme("brackets")
        hyp.write_text("".join(
            insert_markers(s, scheme).text + "\n" for s in corpus), encoding="utf-8")
        ref.write_text("".join(s.text + "\n" for s in corpus), encoding="utf-8")
        assert run(["bleu", "--hyp", str(hyp), "--ref", str(ref),
                    "--strip-scheme", "brackets"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["bleu"] == 1.0

    def test_rate(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        report.write_text(json.dumps({"total": 4, "projected": 3, "filtered": 1,
                                      "failed": 0, "reasons": {}}), encoding="utf-8")
        assert run(["rate", "--report", str(report)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["projection_rate"] == 0.75

    @pytest.mark.parametrize("content", [
        "[]", '{"total": 2}', '{"total": "2", "projected": 1}',
        '{"total": 2, "projected": 5}', '{"total": 2, "projected": -1}',
    ])
    def test_rate_rejects_a_malformed_report(self, tmp_path, capsys, content):
        report = tmp_path / "r.json"
        report.write_text(content, encoding="utf-8")
        assert run(["rate", "--report", str(report)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {report}: not a projection report\n"

    def test_rate_of_an_empty_report_is_undefined(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        report.write_text('{"total": 0, "projected": 0}', encoding="utf-8")
        assert run(["rate", "--report", str(report)]) == EXIT_USAGE
        assert capsys.readouterr() == \
            ("", "error: projection rate undefined: report has no sentences\n")

    def test_bleu_reads_one_line_per_newline(self, tmp_path, capsys):
        (tmp_path / "h.txt").write_text("a b c d\x85e\n", encoding="utf-8")
        (tmp_path / "r.txt").write_text("a b c d e\n", encoding="utf-8")
        assert run(["bleu", "--hyp", str(tmp_path / "h.txt"),
                    "--ref", str(tmp_path / "r.txt")]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["bleu"] == pytest.approx(1.0)

    def test_bleu_ends_a_line_at_a_carriage_return_too(self, tmp_path, capsys):
        # line files are read with universal newlines: "\r\n" and a lone "\r" end a line
        (tmp_path / "r.txt").write_bytes(b"a b c d\r\n")
        (tmp_path / "h.txt").write_bytes(b"a b\rc d\n")
        assert run(["bleu", "--hyp", str(tmp_path / "h.txt"),
                    "--ref", str(tmp_path / "r.txt")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: 2 hypotheses but 1 references\n"

    def test_stats_rejects_a_wrongly_typed_field(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "ok"}\n'
                        '{"text": "ab", "spans": [{"start": "0", "end": 1, "label": "X"}]}\n',
                        encoding="utf-8")
        assert run(["stats", "--in", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: line 2: span 0: offsets must be integers, got '0' and 1\n"


@pytest.mark.parametrize("command", [
    ["bleu", "--hyp", "missing.txt", "--ref", "missing.txt", "--max-n"],
    ["build-ftdata", "--src", "missing.jsonl", "--tgt", "missing.txt", "--out", "o", "--k"],
    # no URL is set, so no backend would ever check these
    ["project", "--in", "missing.jsonl", "--out", "o", "--backend", "cache", "--cache", "c.jsonl",
     "--offline", "--retries"],
    ["project", "--in", "missing.jsonl", "--out", "o", "--backend", "cache", "--cache", "c.jsonl",
     "--offline", "--timeout-ms"],
], ids=["bleu-max-n", "build-ftdata-k", "project-retries", "project-timeout-ms"])
@pytest.mark.parametrize("value, problem", [("0", "must be at least 1, got 0"),
                                            ("-3", "must be at least 1, got -3"),
                                            ("x", "invalid int value: 'x'")],
                         ids=["0", "-3", "x"])
def test_count_below_one_is_refused_where_the_flag_is_parsed(tmp_path, capsys, monkeypatch,
                                                             command, value, problem):
    # the inputs do not exist: the flag is refused before any file is read
    monkeypatch.chdir(tmp_path)
    assert run(command + [value]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {command[-1]}: {problem}\n")
    assert "missing" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["project", "--in", "bad", "--out", "o"],
    ["project", "--in", "in", "--out", "o", "--backend", "lexicon", "--lexicon", "bad"],
    ["align-project", "--in", "in", "--translations", "bad", "--alignments", "align",
     "--out", "o"],
    ["align-project", "--in", "in", "--translations", "lines", "--alignments", "bad",
     "--out", "o"],
    ["build-ftdata", "--src", "bad", "--tgt", "lines", "--out", "o"],
    ["build-ftdata", "--src", "in", "--tgt", "bad", "--out", "o"],
    ["bleu", "--hyp", "bad", "--ref", "lines"],
    ["bleu", "--hyp", "lines", "--ref", "bad"],
    ["rate", "--report", "bad"],
    ["warm-cache", "--in", "bad", "--cache-out", "o"],
], ids=["project-in", "project-lexicon", "align-project-translations",
        "align-project-alignments", "build-ftdata-src", "build-ftdata-tgt", "bleu-hyp", "bleu-ref",
        "rate-report", "warm-cache-in"])
def test_an_input_file_that_is_not_utf8_is_named(tmp_path, capsys, monkeypatch, command):
    # every other input is valid UTF-8, so only the file `bad` can be at fault
    monkeypatch.chdir(tmp_path)
    Path("in").write_text('{"text": "ab", "spans": []}\n', encoding="utf-8")
    Path("lines").write_text("ab\n", encoding="utf-8")
    Path("align").write_text("0-0\n", encoding="utf-8")
    Path("bad").write_bytes(b"\xff\xfe{}\n")
    assert run(command) == EXIT_USAGE
    assert capsys.readouterr().err == \
        "error: bad: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    assert not Path("o").exists()


def test_python_dash_m_runs_the_cli(tmp_path, corpus_file):
    path, _ = corpus_file
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "spanbridge", "stats", "--in", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout)["n_sentences"] == 30
    usage = subprocess.run([sys.executable, "-m", "spanbridge", "stats"],
                           capture_output=True, text=True, env=env, timeout=60)
    assert usage.returncode == EXIT_USAGE
    assert usage.stderr.startswith("usage: spanbridge stats")


class TestWarmCacheAndOffline:
    def test_warm_then_offline_project(self, tmp_path, capsys):
        corpus = make_corpus(5, seed=19)
        path = tmp_path / "in.jsonl"
        path.write_text(emit_jsonl(corpus), encoding="utf-8")
        cache = tmp_path / "cache.jsonl"
        # warm with every text the projector will request: impossible to know
        # statically here, so warm via the same pipeline using a writable cache
        # backend is exercised in test_translate; this test uses offline mode
        out = tmp_path / "out.jsonl"
        code = run(["project", "--in", str(path), "--out", str(out),
                    "--backend", "cache", "--cache", str(cache), "--offline",
                    "--report", str(tmp_path / "rep.json")])
        assert code == EXIT_PARTIAL  # everything uncached -> failed
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["failed"] == 5

    def test_warm_cache_command(self, tmp_path, capsys, monkeypatch):
        texts = tmp_path / "texts.txt"
        texts.write_text("hello\nworld\n", encoding="utf-8")
        cache = tmp_path / "cache.jsonl"
        # identity backend stands in for a live MT system
        code = run(["warm-cache", "--in", str(texts), "--backend", "identity",
                    "--cache-out", str(cache)])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"new_entries": 2, "errors": 0}
        code = run(["warm-cache", "--in", str(texts), "--backend", "identity",
                    "--cache-out", str(cache)])
        assert json.loads(capsys.readouterr().out)["new_entries"] == 0

    def test_warm_cache_reads_one_text_per_newline(self, tmp_path, capsys):
        texts = tmp_path / "texts.txt"
        texts.write_text("a\u2028b\nc\x85d\n\ne", encoding="utf-8")
        code = run(["warm-cache", "--in", str(texts), "--backend", "identity",
                    "--cache-out", str(tmp_path / "cache.jsonl")])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"new_entries": 3, "errors": 0}

    def test_warm_cache_unwritable_exit_3(self, tmp_path, capsys):
        texts = tmp_path / "texts.txt"
        texts.write_text("hello\nworld\n", encoding="utf-8")
        code = run(["warm-cache", "--in", str(texts), "--backend", "identity",
                    "--cache-out", str(tmp_path / "no-such-dir" / "c.jsonl")])
        assert code == EXIT_FATAL
        assert capsys.readouterr().err.startswith("fatal:")


class TestCorruptCache:
    """A cache with a corrupt line before the last is an unreadable file: exit 3."""

    @pytest.fixture
    def bad_cache(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = '{"src_lang": "src", "tgt_lang": "tgt", "input": "one", "output": "eins"}\n'
        path.write_text(record + '{"inp\n' + record, encoding="utf-8")
        return path

    def test_warm_cache_exit_3(self, tmp_path, bad_cache, capsys):
        texts = tmp_path / "texts.txt"
        texts.write_text("hello\n", encoding="utf-8")
        code = run(["warm-cache", "--in", str(texts), "--backend", "identity",
                    "--cache-out", str(bad_cache)])
        assert code == EXIT_FATAL
        assert "line 2: corrupt record" in capsys.readouterr().err

    @pytest.mark.parametrize("output", ["5", "null"])
    def test_non_string_output_exit_3(self, tmp_path, capsys, output):
        cache = tmp_path / "c.jsonl"
        cache.write_text('{"src_lang": "src", "tgt_lang": "tgt", "input": "hello", '
                         f'"output": {output}}}\n', encoding="utf-8")
        texts = tmp_path / "texts.txt"
        texts.write_text("hello\n", encoding="utf-8")
        code = run(["warm-cache", "--in", str(texts), "--backend", "identity",
                    "--cache-out", str(cache)])
        assert code == EXIT_FATAL
        assert "line 1: corrupt record: input and output must be strings" in \
            capsys.readouterr().err

    def test_project_exit_3(self, tmp_path, corpus_file, bad_cache, capsys):
        path, _ = corpus_file
        code = run(["project", "--in", str(path), "--out", str(tmp_path / "o"),
                    "--backend", "cache", "--cache", str(bad_cache), "--offline"])
        assert code == EXIT_FATAL
        assert "line 2: corrupt record" in capsys.readouterr().err


DEEP_JSON = "[" * 100_000 + "]" * 100_000  # nested deeper than json.loads can recurse


class TestDeeplyNestedJson:
    """JSON nested too deep to decode is malformed input: one diagnostic line and the
    exit code of any other malformed file, not a traceback."""

    @pytest.mark.parametrize("argv, code, err", [
        (["stats", "--in", "{deep}"], EXIT_USAGE, "error: line 1: "),
        (["project", "--in", "{corpus}", "--out", "{out}", "--backend", "lexicon",
          "--lexicon", "{deep}"], EXIT_USAGE, "error: "),
        (["rate", "--report", "{deep}"], EXIT_USAGE, "error: "),
        (["warm-cache", "--in", "{texts}", "--backend", "identity", "--cache-out", "{deep}"],
         EXIT_FATAL, "fatal: {deep}: line 1: corrupt record: "),
    ], ids=["stats", "lexicon", "rate", "cache"])
    def test_is_malformed_input(self, tmp_path, corpus_file, capsys, argv, code, err):
        files = {"deep": tmp_path / "deep.json", "corpus": corpus_file[0],
                 "out": tmp_path / "o", "texts": tmp_path / "texts.txt"}
        files["deep"].write_text(DEEP_JSON + "\n", encoding="utf-8")
        files["texts"].write_text("hello\n", encoding="utf-8")
        assert run([arg.format(**files) for arg in argv]) == code
        out, stderr = capsys.readouterr()
        assert stderr.startswith(err.format(**files) + "maximum recursion depth exceeded")
        assert stderr.count("\n") == 1
        assert out == ""
        assert not files["out"].exists()

    def test_as_the_torn_final_cache_line_it_is_skipped_and_cut(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(DEEP_JSON, encoding="utf-8")  # no newline: an interrupted append
        (tmp_path / "texts.txt").write_text("hello\n", encoding="utf-8")
        assert run(["warm-cache", "--in", str(tmp_path / "texts.txt"), "--backend", "identity",
                    "--cache-out", str(cache)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"new_entries": 1, "errors": 0}
        assert cache.read_text(encoding="utf-8") == \
            '{"input": "hello", "output": "hello", "src_lang": "src", "tgt_lang": "tgt"}\n'


class TestConfigFile:
    def test_config_presets_flags_and_flags_win(self, tmp_path, corpus_file):
        path, corpus = corpus_file
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("scheme=xml\njobs=2\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        # config sets xml; the explicit flag overrides back to brackets
        code = run(["project", "--config", str(cfg), "--in", str(path),
                    "--out", str(out), "--scheme", "brackets"])
        assert code == EXIT_OK
        assert parse_jsonl(out.read_text(encoding="utf-8")) == corpus

    def test_config_comments_blank_lines_and_switches(self, tmp_path, corpus_file):
        path, corpus = corpus_file
        cfg = tmp_path / "cfg.ini"
        # "no_pad = TRUE" sets the switch, "lenient_bio=false" leaves it off
        cfg.write_text("# marking\n\n  scheme = xml\nno_pad = TRUE\n  # lenient_bio=true\n"
                       "lenient_bio=false\n", encoding="utf-8")
        out = tmp_path / "marked.jsonl"
        assert run(["mark", "--config", str(cfg), "--in", str(path), "--out", str(out)]) == EXIT_OK
        texts = [json.loads(line)["text"] for line in out.read_text(encoding="utf-8").splitlines()]
        assert texts == [insert_markers(s, MarkerScheme("xml", pad_with_space=False)).text
                         for s in corpus]
        assert texts != [insert_markers(s, MarkerScheme("xml")).text for s in corpus]

    def test_config_equals_form_applies_file(self, tmp_path, corpus_file):
        path, corpus = corpus_file
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("scheme=xml\n", encoding="utf-8")
        out = tmp_path / "marked.jsonl"
        assert run(["mark", f"--config={cfg}", "--in", str(path), "--out", str(out)]) == EXIT_OK
        first = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
        assert first["text"] == insert_markers(corpus[0], MarkerScheme("xml")).text

    def test_trailing_config_without_file_is_usage_error(self, tmp_path, corpus_file, capsys):
        path, _ = corpus_file
        code = run(["mark", "--in", str(path), "--out", str(tmp_path / "m.jsonl"), "--config"])
        assert code == EXIT_USAGE
        assert "--config requires a FILE" in capsys.readouterr().err

    @pytest.mark.parametrize("content, reason", [
        (b"\xff\xfe=1\n",
         "{cfg}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (None, "[Errno 2] No such file or directory: '{cfg}'"),
    ], ids=["not-utf-8", "missing"])
    def test_unreadable_config_is_usage_error(self, tmp_path, corpus_file, capsys, content,
                                              reason):
        path, _ = corpus_file
        cfg, out = tmp_path / "cfg.ini", tmp_path / "m.jsonl"
        if content is not None:
            cfg.write_bytes(content)
        assert run(["mark", "--config", str(cfg), "--in", str(path), "--out", str(out)]) \
            == EXIT_USAGE
        assert capsys.readouterr().err == \
            f"error: cannot read config file: {reason.format(cfg=cfg)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("separator", ["\u2028", "\x85"], ids=["U+2028", "U+0085"])
    def test_config_line_ends_only_at_a_newline(self, tmp_path, corpus_file, separator):
        # as in every other line file, a Unicode line separator stays inside its line
        path, _ = corpus_file
        lexicon = tmp_path / f"le{separator}x.json"
        lexicon.write_text('{"alpha": "ALPHA"}', encoding="utf-8")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"backend=lexicon\nlexicon={lexicon}\n", encoding="utf-8")
        by_config, by_flag = tmp_path / "config.jsonl", tmp_path / "flag.jsonl"
        assert run(["project", "--config", str(cfg), "--in", str(path),
                    "--out", str(by_config)]) == EXIT_OK
        assert run(["project", "--in", str(path), "--out", str(by_flag),
                    "--backend", "lexicon", "--lexicon", str(lexicon)]) == EXIT_OK
        assert by_config.read_bytes() == by_flag.read_bytes()
        assert "ALPHA" in by_flag.read_text(encoding="utf-8")

    def test_abbreviated_config_is_usage_error(self, tmp_path, corpus_file):
        path, _ = corpus_file
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("scheme=xml\n", encoding="utf-8")
        out = tmp_path / "m.jsonl"
        assert run(["--conf", str(cfg), "mark", "--in", str(path), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
