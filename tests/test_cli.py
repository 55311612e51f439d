import json

import pytest

from conftest import make_corpus, make_entity_corpus
from spanbridge.cli import EXIT_FATAL, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, run
from spanbridge.core import emit_jsonl, parse_jsonl
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
        from spanbridge.core import AnnotatedSentence, LabeledSpan

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

    def test_index_mismatch_exit_1(self, tmp_path, corpus_file):
        path, _ = corpus_file
        (tmp_path / "t.txt").write_text("one line\n", encoding="utf-8")
        (tmp_path / "a.txt").write_text("0-0\n", encoding="utf-8")
        code = run(["align-project", "--in", str(path),
                    "--translations", str(tmp_path / "t.txt"),
                    "--alignments", str(tmp_path / "a.txt"),
                    "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE


class TestMetricsCommands:
    def test_stats(self, tmp_path, corpus_file, capsys):
        path, corpus = corpus_file
        assert run(["stats", "--in", str(path)]) == EXIT_OK
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_sentences"] == 30

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

    def test_project_exit_3(self, tmp_path, corpus_file, bad_cache, capsys):
        path, _ = corpus_file
        code = run(["project", "--in", str(path), "--out", str(tmp_path / "o"),
                    "--backend", "cache", "--cache", str(bad_cache), "--offline"])
        assert code == EXIT_FATAL
        assert "line 2: corrupt record" in capsys.readouterr().err


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

    def test_abbreviated_config_is_usage_error(self, tmp_path, corpus_file):
        path, _ = corpus_file
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("scheme=xml\n", encoding="utf-8")
        out = tmp_path / "m.jsonl"
        assert run(["--conf", str(cfg), "mark", "--in", str(path), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
