import pytest

from aslmt.align_model import NULL, SIGN_GIVEN_ENGLISH, ENGLISH_GIVEN_SIGN, TranslationTable
from aslmt.cli import main
from aslmt.corpus import mini_corpus_path
from aslmt.lang_model import AslUnigramModel, NgramModel, ngram_counts, save_asl_model, save_ngram_file


def _write_corpus(path, lines):
    path.write_text("".join(f"{g}\t{e}\n" for g, e in lines), encoding="utf-8")
    return path


def _write_models(
    directory,
    table_se,
    table_es=None,
    english_sentences=(("x", "y"),),
    asl_counts=None,
    threshold=0.5,
):
    directory.mkdir(parents=True, exist_ok=True)
    table_se.save(directory / "tm_sign_given_english.tsv")
    if table_es is None:
        table_es = TranslationTable(
            {(e, s): p for (s, e), p in table_se.t.items() if e is not NULL},
            ENGLISH_GIVEN_SIGN,
        )
    table_es.save(directory / "tm_english_given_sign.tsv")
    for order in (1, 2, 3):
        model = NgramModel(order, ngram_counts(english_sentences, order))
        save_ngram_file(model, directory / f"lm_english.{order}.ngrams")
    if asl_counts is None:
        asl_counts = {"X": 1, "Y": 1}
    save_asl_model(AslUnigramModel(asl_counts), directory / "lm_asl.tsv")
    (directory / "train_config.txt").write_text(
        f"unigram_cost_threshold={threshold}\n", encoding="utf-8"
    )
    return directory


def _records(output, name):
    rows = []
    for line in output.splitlines():
        if line.startswith(f"record={name} "):
            rows.append(dict(part.split("=", 1) for part in line.split()[1:]))
    return rows


@pytest.fixture()
def identity_models(tmp_path):
    table = TranslationTable(
        {("X", "x"): 1.0, ("Y", "y"): 1.0, ("X", NULL): 0.001, ("Y", NULL): 0.001},
        SIGN_GIVEN_ENGLISH,
    )
    return _write_models(tmp_path / "models", table)


class TestSplit:
    def test_large_corpus_split_counts(self, tmp_path, capsys):
        corpus = _write_corpus(tmp_path / "c.txt", [(f"S{i}", f"w{i}") for i in range(579)])
        assert main(["split", str(corpus), "--out", str(tmp_path / "out"), "--seed", "0"]) == 0
        out = capsys.readouterr().out
        parts = {r["part"]: int(r["pairs"]) for r in _records(out, "split")}
        assert parts == {"train": 453, "dev": 10, "test": 116}
        for name, expect in parts.items():
            lines = (tmp_path / "out" / f"{name}.txt").read_text(encoding="utf-8").splitlines()
            assert len(lines) == expect

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        corpus = _write_corpus(tmp_path / "c.txt", [(f"S{i}", f"w{i}") for i in range(60)])
        assert main(["split", str(corpus), "--out", str(tmp_path / "a"), "--seed", "5"]) == 0
        assert main(["split", str(corpus), "--out", str(tmp_path / "b"), "--seed", "5"]) == 0
        for name in ("train", "dev", "test"):
            assert (tmp_path / "a" / f"{name}.txt").read_bytes() == (
                tmp_path / "b" / f"{name}.txt"
            ).read_bytes()

    def test_too_small_corpus_is_data_error(self, tmp_path, capsys):
        corpus = _write_corpus(tmp_path / "c.txt", [("A", "a"), ("B", "b")])
        assert main(["split", str(corpus), "--out", str(tmp_path / "out")]) == 2
        assert "at least 3" in capsys.readouterr().err


class TestTrain:
    def test_writes_normalized_tables(self, tmp_path, capsys):
        out = tmp_path / "models"
        assert main(["train", str(mini_corpus_path()), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        rows = _records(stdout, "train")
        assert {r["table"] for r in rows} == {"sign_given_english", "english_given_sign"}
        table = TranslationTable.load(out / "tm_sign_given_english.tsv")
        sums = {}
        for (_, e), p in table.t.items():
            sums[e] = sums.get(e, 0.0) + p
        for e, total in sums.items():
            assert total == pytest.approx(1.0, abs=1e-9), e

    def test_gesture_tokens_enter_the_table(self, tmp_path):
        out = tmp_path / "models"
        assert main(["train", str(mini_corpus_path()), "--out", str(out)]) == 0
        text = (out / "tm_sign_given_english.tsv").read_text(encoding="utf-8")
        assert "[point]\t" in text

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        corpus = _write_corpus(
            tmp_path / "c.txt",
            [("A B", "a b"), ("A", "a"), ("B C", "b c"), ("C", "c")],
        )
        assert main(["train", str(corpus), "--out", str(tmp_path / "m1")]) == 0
        assert main(["train", str(corpus), "--out", str(tmp_path / "m2")]) == 0
        for name in [p.name for p in (tmp_path / "m1").iterdir()]:
            assert (tmp_path / "m1" / name).read_bytes() == (tmp_path / "m2" / name).read_bytes()

    def test_empty_corpus_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("# only comments\n", encoding="utf-8")
        assert main(["train", str(corpus), "--out", str(tmp_path / "m")]) == 2


class TestTranslate:
    def test_forced_choice_model(self, tmp_path, capsys, identity_models):
        source = tmp_path / "in.txt"
        source.write_text("X Y\n\nY\n", encoding="utf-8")
        code = main(
            ["translate", str(source), "--models", str(identity_models), "--direction", "asl_to_eng"]
        )
        assert code == 0
        assert capsys.readouterr().out == "x y\n\ny\n"

    def test_lm_weight_flag_changes_output(self, tmp_path, capsys):
        table = TranslationTable(
            {("X", "good"): 0.9, ("X", "common"): 0.02, ("X", NULL): 0.001},
            SIGN_GIVEN_ENGLISH,
        )
        models = _write_models(
            tmp_path / "models", table, english_sentences=[["common"]] * 999 + [["good"]]
        )
        source = tmp_path / "in.txt"
        source.write_text("X\n", encoding="utf-8")
        base = ["translate", str(source), "--models", str(models), "--direction", "asl_to_eng",
                "--lm-kind", "unigram"]
        assert main(base + ["--lm-weight", "0.1"]) == 0
        favored_table = capsys.readouterr().out
        assert main(base + ["--lm-weight", "1.0"]) == 0
        favored_lm = capsys.readouterr().out
        assert favored_table == "good\n"
        assert favored_lm == "common\n"

    def test_missing_models_is_data_error(self, tmp_path, capsys):
        source = tmp_path / "in.txt"
        source.write_text("X\n", encoding="utf-8")
        code = main(
            ["translate", str(source), "--models", str(tmp_path / "nope"), "--direction", "asl_to_eng"]
        )
        assert code == 2
        assert "missing model file" in capsys.readouterr().err

    def test_bad_line_is_reported_and_the_rest_translated(self, tmp_path, capsys, identity_models):
        source = tmp_path / "in.txt"
        source.write_text("X, Y\nX [point\nY\n", encoding="utf-8")
        code = main(
            ["translate", str(source), "--models", str(identity_models), "--direction", "asl_to_eng"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "x y\ny\n"
        errors = captured.err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("record=error line=2 message=")
        assert "unclosed gesture" in errors[0]

    def test_non_utf8_line_is_reported_and_the_rest_translated(self, tmp_path, capsys, identity_models):
        source = tmp_path / "in.txt"
        source.write_bytes(b"X, Y\n\xff\nY\n")
        code = main(
            ["translate", str(source), "--models", str(identity_models), "--direction", "asl_to_eng"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "x y\ny\n"
        errors = captured.err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("record=error line=2 message=")
        assert errors[0].endswith("not valid UTF-8")

    def test_non_utf8_stdin_line_is_reported(self, capsys, monkeypatch, identity_models):
        import io

        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"X\nY \xfe\nY\n"), encoding="utf-8"))
        code = main(["translate", "--models", str(identity_models), "--direction", "asl_to_eng"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "x\ny\n"
        assert captured.err.startswith("record=error line=2 message=")

    def test_reads_stdin_by_default(self, capsys, monkeypatch, identity_models):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("X\nY\n"))
        code = main(["translate", "--models", str(identity_models), "--direction", "asl_to_eng"])
        assert code == 0
        assert capsys.readouterr().out == "x\ny\n"

    def test_external_ngram_file_overrides_models(self, tmp_path, capsys, identity_models):
        # an external bigram table that prefers "y x" reverses the output order
        external = tmp_path / "external.ngrams"
        external.write_text("9\t<null> y\n9\ty x\n", encoding="utf-8")
        source = tmp_path / "in.txt"
        source.write_text("X Y\n", encoding="utf-8")
        base = ["translate", str(source), "--models", str(identity_models),
                "--direction", "asl_to_eng", "--lm-kind", "bigram", "--lm-weight", "0.5"]
        assert main(base) == 0
        default_order = capsys.readouterr().out
        assert main(base + ["--english-ngrams", str(external)]) == 0
        external_order = capsys.readouterr().out
        assert default_order == "x y\n"
        assert external_order == "y x\n"


class TestEvaluate:
    def test_perfect_model_scores_one(self, tmp_path, capsys, identity_models):
        corpus = _write_corpus(tmp_path / "test.txt", [("X Y", "x y"), ("X Y", "x y")])
        code = main(
            ["evaluate", str(corpus), "--models", str(identity_models), "--direction", "asl_to_eng"]
        )
        assert code == 0
        out = capsys.readouterr().out
        summary = _records(out, "summary")[0]
        assert float(summary["mean_bleu2"]) == pytest.approx(1.0)
        assert summary["command"] == "evaluate"

    def test_mean_matches_rows_and_human_line(self, tmp_path, capsys, identity_models):
        corpus = _write_corpus(tmp_path / "test.txt", [("X Y", "x y"), ("X Y", "y q")])
        main(["evaluate", str(corpus), "--models", str(identity_models), "--direction", "asl_to_eng"])
        out = capsys.readouterr().out
        rows = _records(out, "pair")
        summary = _records(out, "summary")[0]
        mean = sum(float(r["bleu2"]) for r in rows) / len(rows)
        assert float(summary["mean_bleu2"]) == pytest.approx(mean, abs=1e-12)
        human = next(line for line in out.splitlines() if line.startswith("mean BLEU-2"))
        assert f"{mean:.6f}" in human

    def test_subset_without_matches_is_error(self, tmp_path, capsys, identity_models):
        corpus = _write_corpus(tmp_path / "test.txt", [("X Y", "x y")])
        code = main(
            [
                "evaluate", str(corpus), "--models", str(identity_models),
                "--direction", "asl_to_eng", "--subset", "gesture",
            ]
        )
        assert code == 2
        assert "no matching pairs" in capsys.readouterr().err

    def test_config_file_and_flag_override(self, tmp_path, capsys, identity_models):
        corpus = _write_corpus(tmp_path / "test.txt", [("X Y", "x y")])
        config = tmp_path / "run.cfg"
        config.write_text("lm_weight=0.25\nqueue_size=7\n", encoding="utf-8")
        main(
            ["evaluate", str(corpus), "--models", str(identity_models), "--direction",
             "asl_to_eng", "--config", str(config)]
        )
        summary = _records(capsys.readouterr().out, "summary")[0]
        assert summary["lm_weight"] == "0.25"
        assert summary["queue_size"] == "7"
        main(
            ["evaluate", str(corpus), "--models", str(identity_models), "--direction",
             "asl_to_eng", "--config", str(config), "--lm-weight", "0.3"]
        )
        summary = _records(capsys.readouterr().out, "summary")[0]
        assert summary["lm_weight"] == "0.3"
        assert summary["queue_size"] == "7"

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys, identity_models):
        corpus = _write_corpus(tmp_path / "test.txt", [("X Y", "x y")])
        config = tmp_path / "run.cfg"
        config.write_text("beam_girth=9\n", encoding="utf-8")
        code = main(
            ["evaluate", str(corpus), "--models", str(identity_models), "--direction",
             "asl_to_eng", "--config", str(config)]
        )
        assert code == 1


class TestModelFiles:
    @pytest.mark.parametrize(
        "name, text, line",
        [
            pytest.param("tm_sign_given_english.tsv", "direction sign_given_english epsilon 1.0\nX\tx\tabc\n", 2, id="table-prob"),
            pytest.param("tm_english_given_sign.tsv", "direction english_given_sign epsilon one\n", 1, id="table-epsilon"),
            pytest.param("lm_asl.tsv", "asl_unigram comma_boost 2.0 floor_prob 1e-07\nx\tX\n", 2, id="asl-count-x"),
            pytest.param("lm_asl.tsv", "asl_unigram comma_boost 2.0 floor_prob 1e-07\n1\tX\n-1\tY\n", 3, id="asl-count-negative"),
            pytest.param("lm_asl.tsv", "asl_unigram comma_boost 2.0 floor_prob 5.0\n1\tX\n", 1, id="asl-floor-above-one"),
            pytest.param("lm_english.2.ngrams", "1\tx y\nmany\ty x\n", 2, id="ngram-count"),
            pytest.param("train_config.txt", "unigram_cost_threshold=0.5\nepsilon\n", 2, id="train-config-no-equals"),
        ],
    )
    def test_bad_model_file_is_data_error(self, tmp_path, capsys, identity_models, name, text, line):
        (identity_models / name).write_text(text, encoding="utf-8")
        corpus = _write_corpus(tmp_path / "t.txt", [("X", "x")])
        code = main(
            ["evaluate", str(corpus), "--models", str(identity_models), "--direction", "asl_to_eng"]
        )
        assert code == 2
        assert f"{identity_models / name}:{line}:" in capsys.readouterr().err

    def test_non_utf8_model_file_is_data_error(self, tmp_path, capsys, identity_models):
        path = identity_models / "lm_english.1.ngrams"
        path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
        corpus = _write_corpus(tmp_path / "t.txt", [("X", "x")])
        code = main(
            ["evaluate", str(corpus), "--models", str(identity_models), "--direction", "asl_to_eng"]
        )
        assert code == 2
        lines = path.read_bytes().count(b"\n")
        assert f"{path}:{lines}: not valid UTF-8" in capsys.readouterr().err


class TestSweep:
    def test_default_grid_shapes(self, tmp_path, capsys, identity_models):
        corpus = _write_corpus(tmp_path / "dev.txt", [("X Y", "x y"), ("Y X", "y x")])
        assert main(
            ["sweep", str(corpus), "--models", str(identity_models), "--direction", "asl_to_eng"]
        ) == 0
        out = capsys.readouterr().out
        rows = _records(out, "sweep")
        assert len(rows) == 18
        best = _records(out, "best")[0]
        assert float(best["mean_bleu2"]) == max(float(r["mean_bleu2"]) for r in rows)

    def test_eng_to_asl_grid_has_nine_cells(self, tmp_path, capsys, identity_models):
        corpus = _write_corpus(tmp_path / "dev.txt", [("X Y", "x y")])
        assert main(
            ["sweep", str(corpus), "--models", str(identity_models), "--direction", "eng_to_asl"]
        ) == 0
        assert len(_records(capsys.readouterr().out, "sweep")) == 9

    def test_deterministic_across_reruns(self, tmp_path, capsys, identity_models):
        corpus = _write_corpus(tmp_path / "dev.txt", [("X Y", "x y")])
        args = ["sweep", str(corpus), "--models", str(identity_models), "--direction", "asl_to_eng"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_custom_grid(self, tmp_path, capsys, identity_models):
        corpus = _write_corpus(tmp_path / "dev.txt", [("X Y", "x y")])
        assert main(
            [
                "sweep", str(corpus), "--models", str(identity_models), "--direction", "asl_to_eng",
                "--queue-sizes", "4", "--lm-weights", "0.1,0.9", "--lm-kinds", "bigram",
            ]
        ) == 0
        assert len(_records(capsys.readouterr().out, "sweep")) == 2


class TestBaseline:
    def test_identity_lexicon_scores_one(self, tmp_path, capsys, identity_models):
        corpus = _write_corpus(tmp_path / "test.txt", [("X Y", "x y")])
        code = main(
            ["baseline", str(corpus), "--models", str(identity_models), "--direction", "asl_to_eng"]
        )
        assert code == 0
        summary = _records(capsys.readouterr().out, "summary")[0]
        assert summary["command"] == "baseline"
        assert float(summary["mean_bleu2"]) == pytest.approx(1.0)

    def test_eng_to_asl_baseline_runs(self, tmp_path, capsys, identity_models):
        corpus = _write_corpus(tmp_path / "test.txt", [("X Y", "x y")])
        code = main(
            ["baseline", str(corpus), "--models", str(identity_models), "--direction", "eng_to_asl"]
        )
        assert code == 0
        summary = _records(capsys.readouterr().out, "summary")[0]
        assert float(summary["mean_bleu2"]) == pytest.approx(1.0)

    def test_empty_corpus_is_error(self, tmp_path, capsys, identity_models):
        corpus = tmp_path / "test.txt"
        corpus.write_text("", encoding="utf-8")
        code = main(
            ["baseline", str(corpus), "--models", str(identity_models), "--direction", "asl_to_eng"]
        )
        assert code == 2


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        import subprocess
        import sys

        corpus = _write_corpus(tmp_path / "c.txt", [(f"S{i}", f"w{i}") for i in range(10)])
        proc = subprocess.run(
            [sys.executable, "-m", "aslmt", "split", str(corpus), "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "record=split" in proc.stdout

    def test_train_config_echo(self, tmp_path):
        corpus = _write_corpus(tmp_path / "c.txt", [("A B", "a b"), ("A", "a"), ("B", "b")])
        assert main(["train", str(corpus), "--out", str(tmp_path / "m"), "--em-tol", "0.001"]) == 0
        echo = (tmp_path / "m" / "train_config.txt").read_text(encoding="utf-8")
        assert "em_convergence_tol=0.001" in echo
        assert "epsilon=1.0" in echo
        assert "unigram_cost_threshold=" in echo


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_bad_direction_choice(self, tmp_path, capsys):
        assert main(["translate", "--models", "m", "--direction", "sideways"]) == 1

    def test_eng_to_asl_rejects_english_lm_kind(self, tmp_path, capsys, identity_models):
        corpus = _write_corpus(tmp_path / "t.txt", [("X", "x")])
        code = main(
            ["evaluate", str(corpus), "--models", str(identity_models), "--direction",
             "eng_to_asl", "--lm-kind", "trigram"]
        )
        assert code == 1

    def test_missing_direction(self, tmp_path, capsys, identity_models):
        corpus = _write_corpus(tmp_path / "t.txt", [("X", "x")])
        assert main(["evaluate", str(corpus), "--models", str(identity_models)]) == 1

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("translate", ["--lm-weight", "-1"]),
            ("translate", ["--lm-weight", "nan"]),
            ("translate", ["--lm-weight", "inf"]),
            ("translate", ["--queue-size", "0"]),
            ("translate", ["--queue-size", "abc"]),
            ("evaluate", ["--fanout", "0"]),
            ("sweep", ["--queue-sizes", "0"]),
            ("sweep", ["--queue-sizes", "4,x"]),
            ("sweep", ["--lm-weights", "0.1,nan"]),
            ("sweep", ["--lm-kinds", "bigram,pentagram"]),
        ],
    )
    def test_bad_flag_values(self, tmp_path, capsys, identity_models, command, extra):
        corpus = _write_corpus(tmp_path / "t.txt", [("X", "x")])
        source = [] if command == "translate" else [str(corpus)]
        code = main(
            [command, *source, "--models", str(identity_models), "--direction", "asl_to_eng", *extra]
        )
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        ["queue_size=abc", "lm_weight=nan", "capped_brevity=maybe", "queue_sizes=", "direction"],
    )
    def test_bad_config_values(self, tmp_path, capsys, identity_models, line):
        corpus = _write_corpus(tmp_path / "t.txt", [("X", "x")])
        config = tmp_path / "run.cfg"
        config.write_text(f"# run settings\n\n{line}\n", encoding="utf-8")
        code = main(
            ["sweep", str(corpus), "--models", str(identity_models), "--config", str(config),
             "--direction", "asl_to_eng"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "usage error" in err
        if line != "lm_weight=nan":
            assert f"{config}:3:" in err

    @pytest.mark.parametrize(
        "extra",
        [["--em-tol", "nan"], ["--em-tol", "0"], ["--em-iterations", "0"], ["--comma-boost", "0.5"]],
    )
    def test_bad_train_values(self, tmp_path, capsys, extra):
        corpus = _write_corpus(tmp_path / "c.txt", [("A", "a")])
        assert main(["train", str(corpus), "--out", str(tmp_path / "m"), *extra]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_usage_checks_run_before_model_loading(self, tmp_path, capsys):
        corpus = _write_corpus(tmp_path / "t.txt", [("X", "x")])
        code = main(["evaluate", str(corpus), "--models", str(tmp_path / "missing")])
        assert code == 1
        assert "usage error" in capsys.readouterr().err
