"""Command-line harness: split, train, translate, evaluate, sweep, baseline.

Every command is deterministic given its inputs and flags. Numeric results
are printed twice: a short human-readable section and line-oriented
``record=...`` key=value lines meant for scripts and tests.

Exit codes: 0 success, 1 usage error, 2 data or model error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .align_model import (
    ENGLISH_GIVEN_SIGN,
    SIGN_GIVEN_ENGLISH,
    EmConfig,
    TranslationTable,
    em_train,
)
from .baselines import (
    DEFAULT_HELPERS,
    BilingualLexicon,
    UnigramCost,
    baseline_asl_to_eng,
    baseline_eng_to_asl,
    load_helper_words,
)
from .bleu_eval import bleu2, corpus_mean_bleu
from .corpus import (
    Corpus,
    RecordReader,
    SentencePair,
    TokenSequence,
    filter_subset,
    is_utf8,
    load_corpus,
    save_corpus,
    split_dataset,
    tokenize_asl,
    tokenize_english,
)
from .decoder import ASL_TO_ENG, DIRECTIONS, ENG_TO_ASL, DecoderConfig, decode, translate_corpus
from .errors import AslmtError, EmptyCorpusError, UsageError
from .lang_model import (
    AslUnigramModel,
    NgramModel,
    build_asl_model,
    build_english_model,
    load_asl_model,
    load_ngram_file,
    save_asl_model,
    save_ngram_file,
)

LM_ORDERS = {"unigram": 1, "bigram": 2, "trigram": 3}
SUBSETS = ("all", "comma", "gesture")

TABLE_FILES = {
    SIGN_GIVEN_ENGLISH: "tm_sign_given_english.tsv",
    ENGLISH_GIVEN_SIGN: "tm_english_given_sign.tsv",
}
ASL_MODEL_FILE = "lm_asl.tsv"
TRAIN_CONFIG_FILE = "train_config.txt"

DEFAULT_SWEEP = {
    ASL_TO_ENG: {"lm_kinds": ["bigram", "trigram"], "queue_sizes": [8, 10, 20], "lm_weights": [0.1, 0.2, 0.3]},
    ENG_TO_ASL: {"lm_kinds": ["unigram"], "queue_sizes": [13, 15, 20], "lm_weights": [0.1, 0.2, 0.3]},
}


def _english_lm_file(order: int) -> str:
    return f"lm_english.{order}.ngrams"


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


def _choice(allowed: Sequence[str]) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in allowed:
            raise UsageError(f"expected one of {', '.join(allowed)}; got {text!r}")
        return text

    parse.metavar = "{" + ",".join(allowed) + "}"  # --help lists the choices
    return parse


def _list(item: Callable[[str], object]) -> Callable[[str], list]:
    """Parser for a comma-separated list of values that ``item`` parses."""

    def parse(text: str) -> list:
        try:
            values = [item(part.strip()) for part in text.split(",") if part.strip()]
        except ValueError:
            raise UsageError(f"expected a comma-separated list, got {text!r}") from None
        if not values:
            raise UsageError("list flag needs at least one value")
        return values

    return parse


class Option(NamedTuple):
    default: object
    parse: Callable[[str], object]
    commands: tuple[str, ...] | None = None  # subcommands with this flag; None is all


# The one declaration of every option: each becomes the flag --name-with-
# dashes on its commands (booleans take no value) and the config-file key
# name. Config files may set any key for any command.
OPTIONS: dict[str, Option] = {
    "direction": Option(None, _choice(DIRECTIONS)),
    "lm_kind": Option(None, _choice(tuple(LM_ORDERS))),
    "lm_weight": Option(0.1, float),
    "queue_size": Option(20, int),
    "fanout": Option(5, int),
    "max_words_per_source": Option(3, int),
    "epsilon": Option(1.0, float),
    "seed": Option(0, int),
    "capped_brevity": Option(False, _parse_bool),
    "literal_log_sum": Option(False, _parse_bool),
    "subset": Option("all", _choice(SUBSETS)),
    "comma_boost": Option(2.0, float),
    "em_iterations": Option(100, int, ("train",)),
    "em_tol": Option(1e-4, float, ("train",)),
    "queue_sizes": Option(None, _list(int), ("sweep",)),
    "lm_weights": Option(None, _list(float), ("sweep",)),
    "lm_kinds": Option(None, _list(_choice(tuple(LM_ORDERS))), ("sweep",)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="aslmt", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    split = commands.add_parser("split", help="write train/dev/test corpus files")
    split.add_argument("corpus")
    split.add_argument("--out", required=True, help="output directory")
    split.set_defaults(func=cmd_split)

    train = commands.add_parser("train", help="train translation tables and language models")
    train.add_argument("corpus")
    train.add_argument("--out", required=True, help="model directory")
    train.set_defaults(func=cmd_train)

    translate = commands.add_parser("translate", help="translate sentences, one per line")
    translate.add_argument("input", nargs="?", help="input file (default: stdin)")
    translate.add_argument("--models", required=True)
    translate.add_argument("--english-ngrams", dest="english_ngrams", help="external n-gram count file for the English LM")
    translate.set_defaults(func=cmd_translate)

    evaluate = commands.add_parser("evaluate", help="translate a test corpus and score with BLEU-2")
    evaluate.add_argument("corpus")
    evaluate.add_argument("--models", required=True)
    evaluate.add_argument("--english-ngrams", dest="english_ngrams")
    evaluate.set_defaults(func=cmd_evaluate)

    sweep = commands.add_parser("sweep", help="grid-evaluate queue sizes, weights, and LM kinds")
    sweep.add_argument("corpus", help="development corpus")
    sweep.add_argument("--models", required=True)
    sweep.set_defaults(func=cmd_sweep)

    baseline = commands.add_parser("baseline", help="score the rule-based baseline on a corpus")
    baseline.add_argument("corpus")
    baseline.add_argument("--models", required=True)
    baseline.add_argument("--helpers", help="helper-word list, one word per line")
    baseline.set_defaults(func=cmd_baseline)

    for command, sub in commands.choices.items():
        sub.add_argument("--config", help="key=value config file; flags override it")
        for name, option in OPTIONS.items():
            if option.commands is not None and command not in option.commands:
                continue
            flag = "--" + name.replace("_", "-")
            if option.parse is _parse_bool:
                sub.add_argument(flag, dest=name, action="store_const", const=True)
            else:
                metavar = getattr(option.parse, "metavar", None)
                sub.add_argument(flag, dest=name, type=option.parse, metavar=metavar)
    return parser


def _load_config_file(path: str) -> dict[str, object]:
    reader = RecordReader(path, UsageError, comments=True)
    values: dict[str, object] = {}
    try:
        for line in reader:
            key, text = reader.key_value(line)
            key = key.replace("-", "_")
            if key not in OPTIONS:
                reader.fail(f"unknown config key {key!r}")
            try:
                values[key] = OPTIONS[key].parse(text)
            except (UsageError, ValueError) as exc:
                reader.fail(f"bad value for {key}: {exc}")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    return values


def resolve_options(args: argparse.Namespace) -> dict[str, object]:
    opts = {name: option.default for name, option in OPTIONS.items()}
    if args.config:
        opts.update(_load_config_file(args.config))
    for name in OPTIONS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            opts[name] = flag_value
    return opts


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _record(name: str, fields: Iterable[tuple[str, object]]) -> str:
    return " ".join([f"record={name}"] + [f"{key}={_fmt(value)}" for key, value in fields])


@dataclass
class ModelSet:
    tables: dict[str, TranslationTable]
    english: dict[int, NgramModel]
    asl: AslUnigramModel
    config: dict[str, str]

    @classmethod
    def load(cls, directory: str | Path) -> "ModelSet":
        directory = Path(directory)

        def require(name: str) -> Path:
            path = directory / name
            if not path.exists():
                raise AslmtError(f"missing model file {path}; run 'aslmt train' first")
            return path

        tables = {tag: TranslationTable.load(require(name)) for tag, name in TABLE_FILES.items()}
        english = {order: load_ngram_file(require(_english_lm_file(order)), order) for order in (1, 2, 3)}
        asl = load_asl_model(require(ASL_MODEL_FILE))
        reader = RecordReader(require(TRAIN_CONFIG_FILE), AslmtError)
        config = dict(reader.key_value(line) for line in reader)
        return cls(tables, english, asl, config)


def _require_direction(opts: dict[str, object]) -> str:
    direction = opts["direction"]
    if direction is None:
        raise UsageError("--direction is required for this command")
    return str(direction)


def _resolve_lm_kind(direction: str, lm_kind: object) -> str:
    if direction == ENG_TO_ASL:
        if lm_kind not in (None, "unigram"):
            raise UsageError("eng_to_asl always scores with the ASL unigram model")
        return "unigram"
    return str(lm_kind) if lm_kind is not None else "trigram"


@contextmanager
def _as_usage_error() -> Iterator[None]:
    """Configs and models validate their parameters with ValueError; here
    the values come from flags and config files, so report bad usage."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _decoder_config(opts: dict[str, object]) -> DecoderConfig:
    with _as_usage_error():
        return DecoderConfig(
            lm_weight=float(opts["lm_weight"]),
            max_queue_size=int(opts["queue_size"]),
            fanout=int(opts["fanout"]),
            max_words_per_source=int(opts["max_words_per_source"]),
            epsilon=float(opts["epsilon"]),
            literal_log_sum=bool(opts["literal_log_sum"]),
        )


def _select_models(
    models: ModelSet, direction: str, lm_kind: str, english_ngrams: str | None
):
    if direction == ASL_TO_ENG:
        table = models.tables[SIGN_GIVEN_ENGLISH]
        order = LM_ORDERS[lm_kind]
        lm = load_ngram_file(english_ngrams, order) if english_ngrams else models.english[order]
    else:
        table = models.tables[ENGLISH_GIVEN_SIGN]
        lm = models.asl
    return table, lm


def _reference(pair: SentencePair, direction: str) -> TokenSequence:
    return pair.english_side if direction == ASL_TO_ENG else pair.sign_side


def _load_scored_corpus(path: str, subset: str) -> Corpus:
    corpus = load_corpus(path)
    if subset != "all":
        corpus = filter_subset(corpus, f"has_{subset}")
        if not len(corpus):
            raise AslmtError(f"no matching pairs for subset {subset!r}")
    if not len(corpus):
        raise AslmtError("no pairs to evaluate")
    return corpus


def _print_scored(
    heading: str,
    direction: str,
    opts: dict[str, object],
    corpus: Corpus,
    preds: Sequence[TokenSequence],
    summary_fields: Sequence[tuple[str, object]],
) -> None:
    subset, capped = str(opts["subset"]), bool(opts["capped_brevity"])
    print(f"{heading} direction={direction} subset={subset} pairs={len(corpus)}")
    reports = []
    for pair, pred in zip(corpus, preds):
        ref = _reference(pair, direction)
        reports.append((pair.pair_id, bleu2(pred, ref, capped), pred, ref))
    for pair_id, report, pred, ref in reports:
        print(f"  {pair_id:>4}  {report.score:.6f}  pred: {pred.render()}")
        print(f"        {'':8}  ref:  {ref.render()}")
    mean = sum(r.score for _, r, _, _ in reports) / len(reports)
    print(f"mean BLEU-2 = {mean:.6f} over {len(reports)} pairs")
    for pair_id, report, _, _ in reports:
        print(
            _record(
                "pair",
                [
                    ("id", pair_id),
                    ("bleu2", report.score),
                    ("p1", report.p1),
                    ("p2", report.p2),
                    ("brevity", report.brevity),
                    ("pred_len", report.pred_len),
                    ("ref_len", report.ref_len),
                ],
            )
        )
    summary = [("capped", capped), ("subset", subset), ("pairs", len(reports))]
    print(_record("summary", [*summary_fields, *summary, ("mean_bleu2", mean)]))


def cmd_split(args: argparse.Namespace, opts: dict[str, object]) -> int:
    corpus = load_corpus(args.corpus)
    split = split_dataset(corpus, int(opts["seed"]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(
        f"split {len(corpus)} pairs with seed {split.seed}: "
        f"train={len(split.train)} dev={len(split.dev)} test={len(split.test)}"
    )
    for name, part in (("train", split.train), ("dev", split.dev), ("test", split.test)):
        path = out / f"{name}.txt"
        save_corpus(part, path)
        print(_record("split", [("part", name), ("pairs", len(part)), ("path", path)]))
    return 0


def cmd_train(args: argparse.Namespace, opts: dict[str, object]) -> int:
    with _as_usage_error():
        em_config = EmConfig(
            max_iterations=int(opts["em_iterations"]),
            convergence_tol=float(opts["em_tol"]),
            epsilon=float(opts["epsilon"]),
        )
    corpus = load_corpus(args.corpus)
    if not len(corpus):
        raise EmptyCorpusError(f"no pairs in {args.corpus}")
    with _as_usage_error():
        asl_model = build_asl_model(corpus, comma_boost=float(opts["comma_boost"]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(f"training on {len(corpus)} pairs from {args.corpus}")
    for tag in (SIGN_GIVEN_ENGLISH, ENGLISH_GIVEN_SIGN):
        result = em_train(corpus, em_config, tag)
        result.table.save(out / TABLE_FILES[tag])
        print(
            _record(
                "train",
                [
                    ("table", tag),
                    ("iterations", result.iterations),
                    ("log_likelihood", result.final_log_likelihood),
                ],
            )
        )
    for order in (1, 2, 3):
        save_ngram_file(build_english_model(corpus, order), out / _english_lm_file(order))
    save_asl_model(asl_model, out / ASL_MODEL_FILE)
    cost = UnigramCost.from_corpus(corpus, build_english_model(corpus, 1))
    echo = [
        ("corpus", args.corpus),
        ("train_pairs", len(corpus)),
        ("em_max_iterations", em_config.max_iterations),
        ("em_convergence_tol", em_config.convergence_tol),
        ("epsilon", em_config.epsilon),
        ("comma_boost", float(opts["comma_boost"])),
        ("unigram_cost_threshold", cost.threshold),
    ]
    with open(out / TRAIN_CONFIG_FILE, "w", encoding="utf-8") as handle:
        for key, value in echo:
            handle.write(f"{key}={_fmt(value)}\n")
    print(f"wrote models to {out}")
    return 0


def _input_lines(path: str | None) -> list[str]:
    """The lines of ``path`` or of stdin, read as UTF-8 with undecodable
    bytes kept as lone surrogates, so that one bad line can be reported
    without losing the others."""
    if path:
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            return handle.read().splitlines()
    stdin = getattr(sys.stdin, "buffer", None)
    if stdin is None:  # a text stream with no bytes under it, such as io.StringIO
        return sys.stdin.read().splitlines()
    return stdin.read().decode("utf-8", "surrogateescape").splitlines()


def cmd_translate(args: argparse.Namespace, opts: dict[str, object]) -> int:
    direction = _require_direction(opts)
    lm_kind = _resolve_lm_kind(direction, opts["lm_kind"])
    config = _decoder_config(opts)
    models = ModelSet.load(args.models)
    table, lm = _select_models(models, direction, lm_kind, args.english_ngrams)
    tokenize = tokenize_asl if direction == ASL_TO_ENG else tokenize_english
    # A bad line is reported on stderr and skipped; the rest still decode.
    failed = False
    for lineno, line in enumerate(_input_lines(args.input), start=1):
        try:
            if not is_utf8(line):
                raise AslmtError("not valid UTF-8")
            result = decode(tokenize(line), table, lm, config)
        except AslmtError as exc:
            print(_record("error", [("line", lineno), ("message", exc)]), file=sys.stderr)
            failed = True
            continue
        print(result.output.render())
    return 2 if failed else 0


def cmd_evaluate(args: argparse.Namespace, opts: dict[str, object]) -> int:
    direction = _require_direction(opts)
    lm_kind = _resolve_lm_kind(direction, opts["lm_kind"])
    config = _decoder_config(opts)
    models = ModelSet.load(args.models)
    table, lm = _select_models(models, direction, lm_kind, args.english_ngrams)
    corpus = _load_scored_corpus(args.corpus, str(opts["subset"]))
    preds = [pred for _, pred in translate_corpus(corpus, direction, table, lm, config)]
    _print_scored(
        "evaluating",
        direction,
        opts,
        corpus,
        preds,
        [
            ("command", "evaluate"),
            ("direction", direction),
            ("lm_kind", lm_kind),
            ("lm_weight", config.lm_weight),
            ("queue_size", config.max_queue_size),
            ("fanout", config.fanout),
            ("epsilon", config.epsilon),
        ],
    )
    return 0


def cmd_sweep(args: argparse.Namespace, opts: dict[str, object]) -> int:
    direction = _require_direction(opts)
    defaults = DEFAULT_SWEEP[direction]
    kinds = [_resolve_lm_kind(direction, kind) for kind in opts["lm_kinds"] or defaults["lm_kinds"]]
    queues = opts["queue_sizes"] or defaults["queue_sizes"]
    weights = opts["lm_weights"] or defaults["lm_weights"]
    base = _decoder_config(opts)
    with _as_usage_error():
        configs = [
            replace(base, max_queue_size=queue_size, lm_weight=weight)
            for queue_size in sorted(queues)
            for weight in sorted(weights)
        ]
    models = ModelSet.load(args.models)
    corpus = load_corpus(args.corpus)
    if not len(corpus):
        raise AslmtError("no pairs in the development corpus")
    capped = bool(opts["capped_brevity"])
    print(f"sweep direction={direction} dev_pairs={len(corpus)} cells={len(kinds) * len(configs)}")
    fields = ("lm_kind", "queue_size", "lm_weight", "mean_bleu2")
    rows = []
    for kind in sorted(kinds):
        table, lm = _select_models(models, direction, kind, None)
        for config in configs:
            outputs = translate_corpus(corpus, direction, table, lm, config)
            scored = [(pred, _reference(pair, direction)) for pair, (_, pred) in zip(corpus, outputs)]
            mean = corpus_mean_bleu(scored, capped)
            rows.append((kind, config.max_queue_size, config.lm_weight, mean))
            print(_record("sweep", zip(fields, rows[-1])))
    print(_record("best", zip(fields, max(rows, key=lambda row: row[3]))))
    return 0


def cmd_baseline(args: argparse.Namespace, opts: dict[str, object]) -> int:
    direction = _require_direction(opts)
    models = ModelSet.load(args.models)
    corpus = _load_scored_corpus(args.corpus, str(opts["subset"]))
    lexicon = BilingualLexicon.from_table(models.tables[SIGN_GIVEN_ENGLISH])
    if direction == ASL_TO_ENG:
        helpers = load_helper_words(args.helpers) if args.helpers else DEFAULT_HELPERS
        bigram = models.english[2]
        preds = [baseline_asl_to_eng(pair.sign_side, lexicon, bigram, helpers) for pair in corpus]
    else:
        try:
            threshold = float(models.config["unigram_cost_threshold"])
        except (KeyError, ValueError):
            raise AslmtError("model directory lacks a usable unigram_cost_threshold") from None
        cost = UnigramCost(models.english[1], threshold)
        preds = [baseline_eng_to_asl(pair.english_side, cost, lexicon) for pair in corpus]
    summary = [("command", "baseline"), ("direction", direction)]
    _print_scored("baseline", direction, opts, corpus, preds, summary)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        opts = resolve_options(args)
        return args.func(args, opts)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (AslmtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
