"""The benchmark workloads and the inputs they generate from a seed.

Each workload drives aslmt through its public API from one thread, in a
closed loop: every call starts after the previous one returned. A pass is
the unit that repeats; ``run_pass`` returns the CPU time of each of its
operations, in the same order every pass, the times of the speed probe
run before the first and after each (``speed.py``) and the test-set BLEU-2
it saw, and the tracer records every call made into the package, which
``run.py`` turns into counts, checks and digests.

Why these two:

- ``paper_pipeline`` is what a user runs: the README walkthrough through
  ``aslmt.cli.main`` on seed splits of the bundled corpus. Sentences are
  3-4 tokens, so per-call overhead, file save/load and EM share the time.
  One split's work depends on which pairs it draws, so a pass runs five
  folds whose parts are dealt from the corpus sorted by sentence length:
  every pair is tested once per pass and every fold gets the same length
  mix, which keeps the work of a pass nearly the same for every seed.
- ``long_decode`` decodes sources of exactly 8, 16 and 24 tokens, made by
  concatenating seed-drawn test pairs, so the decoder and language-model
  extension calls are nearly all the time. Exact lengths keep the work per
  source steady from seed to seed, and the 40/40/20 mix puts the median
  and the p75 tail (40 latency samples) in the 16-token bucket.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import speed
from tracer import clock

DIRECTIONS = ("asl_to_eng", "eng_to_asl")

# Source lengths decoded per direction in one long_decode pass.
LONG_LENGTHS = (8,) * 8 + (16,) * 8 + (24,) * 4
# Queue sizes of long_decode's sweep stage; with the default 20 of the
# evaluate stage they make the 1/8/20 digest grid.
SWEEP_QUEUE_SIZES = (1, 8)
PIPELINE_FOLDS = 5


class Workload:
    name = ""
    # Stages whose decodes the latency metrics and per-bucket counts cover.
    latency_stages = ("evaluate",)

    def __init__(self, modules: dict, seed: int, work: Path) -> None:
        self.m = modules
        self.seed = seed
        self.work = work
        # Speed-probe times of the current pass: one before its first
        # operation and one after each (see ``done``).
        self.probes: list[float] = []

    def done(self, tracer, ops_s: list, stage: str, start: float) -> None:
        """Append the CPU time of the operation started at ``start`` to
        ``ops_s``, run the speed probe, untimed by the operation, and move
        the tracer on to the next operation."""
        ops_s.append((stage, clock() - start))
        self.probes.append(speed.probe())
        tracer.op += 1

    def run_cli(self, tracer, stage: str, argv: list) -> tuple[int, str]:
        tracer.stage = stage
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.m["cli"].main([str(a) for a in argv])
        return code, out.getvalue()

    def split(self):
        corpus = self.m["corpus"].load_corpus(self.m["corpus"].mini_corpus_path())
        return self.m["corpus"].split_dataset(corpus, self.seed)


def fold_orders(corpus_module, corpus, seed: int, folds: int) -> list[list]:
    """One ordering of the corpus pairs per fold, such that ``aslmt split
    --seed <seed>`` on the reordered file puts fold k's test and dev pairs
    in its test and dev parts.

    The pairs are sorted by sentence lengths, ties in seed order, and dealt
    to the folds in turn; fold k tests its own share (padded from the next
    fold's if it is short) and takes dev pairs evenly from the share of
    fold k+2. So every pair is tested once per pass, and every fold's test
    and dev parts have the same mix of lengths.
    """
    pairs = list(corpus.pairs)
    split = corpus_module.split_dataset(corpus, seed)
    slot = {id(p): i for i, p in enumerate(pairs)}
    slots = [[slot[id(p)] for p in part] for part in (split.test, split.dev, split.train)]
    rng = random.Random(seed)
    keyed = sorted(pairs, key=lambda p: (len(p.sign_side) + len(p.english_side), len(p.sign_side), rng.random()))
    shares = [keyed[k::folds] for k in range(folds)]
    n_test, n_dev = len(slots[0]), len(slots[1])
    orders = []
    for k in range(folds):
        test = shares[k] + shares[(k + 1) % folds][: n_test - len(shares[k])]
        other = shares[(k + 2) % folds]
        dev = [other[i * len(other) // n_dev] for i in range(n_dev)]
        chosen = {id(p) for p in test + dev}
        train = [p for p in pairs if id(p) not in chosen]
        rng.shuffle(train)
        if (len(test), len(dev), len(train)) != tuple(map(len, slots)):
            raise RuntimeError(f"{len(pairs)} pairs do not make {folds} folds of this split")
        order = [None] * len(pairs)
        for part_slots, part in zip(slots, (test, dev, train)):
            for i, pair in zip(part_slots, part):
                order[i] = pair
        orders.append(order)
    return orders


class PaperPipeline(Workload):
    name = "paper_pipeline"
    # The evaluate commands alone give equal numbers of asl->eng and
    # eng->asl decodes, whose latencies differ about twofold, so their
    # median falls in the gap between the two and jumps from run to run.
    # With the sweep decodes (two thirds asl->eng) it falls inside one.
    latency_stages = ("evaluate", "sweep")

    def setup(self) -> None:
        corpus_module = self.m["corpus"]
        corpus = corpus_module.load_corpus(corpus_module.mini_corpus_path())
        self.corpus_files = []
        for k, order in enumerate(fold_orders(corpus_module, corpus, self.seed, PIPELINE_FOLDS)):
            path = self.work / f"corpus{k}.txt"
            corpus_module.save_corpus(corpus_module.Corpus(tuple(order), corpus.provenance), path)
            self.corpus_files.append(path)

    def commands(self, folds: int = PIPELINE_FOLDS):
        for k in range(folds):
            split, models = self.work / f"split{k}", self.work / f"models{k}"
            yield "split", ["split", self.corpus_files[k], "--out", split, "--seed", self.seed]
            yield "train", ["train", split / "train.txt", "--out", models]
            for command, part in (("evaluate", "test"), ("sweep", "dev"), ("baseline", "test")):
                for direction in DIRECTIONS:
                    argv = [command, split / f"{part}.txt", "--models", models, "--direction", direction]
                    yield command, argv

    def warm_up(self, tracer) -> None:
        for stage, argv in self.commands(folds=1):
            self.run_cli(tracer, stage, argv)

    def saved_tables(self) -> dict[str, Path]:
        """Translation tables a pass saves, by name, for the table digests."""
        return {
            f"fold{k}.{tag}": self.work / f"models{k}" / name
            for k in range(PIPELINE_FOLDS)
            for tag, name in self.m["cli"].TABLE_FILES.items()
        }

    def run_pass(self, tracer) -> dict:
        bleu_sum = {d: 0.0 for d in DIRECTIONS}
        bleu_pairs = {d: 0 for d in DIRECTIONS}
        ops_s = []
        failed = 0
        self.probes = [speed.probe()]
        for stage, argv in self.commands():
            start = clock()
            code, out = self.run_cli(tracer, stage, argv)
            self.done(tracer, ops_s, stage, start)
            if code != 0:
                failed += 1
            if stage == "evaluate":
                for line in out.splitlines():
                    if line.startswith("record=summary "):
                        fields = dict(f.split("=", 1) for f in line.split()[1:])
                        pairs = int(fields["pairs"])
                        bleu_sum[fields["direction"]] += float(fields["mean_bleu2"]) * pairs
                        bleu_pairs[fields["direction"]] += pairs
        bleu = {d: bleu_sum[d] / bleu_pairs[d] for d in DIRECTIONS if bleu_pairs[d]}
        return {"ops_s": ops_s, "probe_s": self.probes, "bleu": bleu, "failed": failed}


def exact_concat(rng, pool, side, other, length):
    """Concatenate pairs drawn with replacement from ``pool`` until ``side``
    has ``length`` tokens (or the largest length at most that which pair
    lengths can add up to); returns (source surfaces, reference surfaces)."""
    sizes = {len(side(p)) for p in pool}
    reachable = {0}
    for total in range(1, length + 1):
        if any(total - size in reachable for size in sizes):
            reachable.add(total)
    remaining = max(reachable)
    source: list[str] = []
    reference: list[str] = []
    while remaining:
        pair = rng.choice([p for p in pool if remaining - len(side(p)) in reachable])
        source += side(pair).surfaces
        reference += other(pair).surfaces
        remaining -= len(side(pair))
    return tuple(source), tuple(reference)


def sign(pair):
    return pair.sign_side


def english(pair):
    return pair.english_side


class LongDecode(Workload):
    name = "long_decode"

    def setup(self) -> None:
        split = self.split()
        self.train_path = self.work / "train.txt"
        self.m["corpus"].save_corpus(split.train, self.train_path)
        models = self.work / "models"
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.m["cli"].main(["train", str(self.train_path), "--out", str(models)])
        if code != 0:
            raise RuntimeError(f"aslmt train exited {code} during set-up")
        self.models = self.m["cli"].ModelSet.load(models)
        rng = random.Random(self.seed)
        pool = list(split.test)
        self.sources = {
            "asl_to_eng": [exact_concat(rng, pool, sign, english, n) for n in LONG_LENGTHS],
            "eng_to_asl": [exact_concat(rng, pool, english, sign, n) for n in LONG_LENGTHS],
        }

    def decode_all(self, tracer, stage, jobs, config, ops_s) -> tuple[dict, int]:
        """Decode every (source, reference) job per direction, appending
        each decode's time to ``ops_s``; returns per-direction (output,
        reference) pairs and the failure count."""
        decoder, errors = self.m["decoder"], self.m["errors"]
        tracer.stage = stage
        scored: dict[str, list] = {}
        failed = 0
        for direction, (table, lm, items) in jobs.items():
            table, lm = tracer.table(table), tracer.lm(lm, direction)
            pairs = scored.setdefault(direction, [])
            for source, reference in items:
                start = clock()
                try:
                    result = decoder.decode(source, table, lm, config)
                except errors.AslmtError:
                    failed += 1
                    continue
                finally:
                    self.done(tracer, ops_s, stage, start)
                pairs.append((result.output, reference))
        return scored, failed

    def jobs(self, limit: int | None = None) -> dict:
        tags = self.m["align_model"]
        return {
            "asl_to_eng": (
                self.models.tables[tags.SIGN_GIVEN_ENGLISH],
                self.models.english[3],
                self.sources["asl_to_eng"][:limit],
            ),
            "eng_to_asl": (
                self.models.tables[tags.ENGLISH_GIVEN_SIGN],
                self.models.asl,
                self.sources["eng_to_asl"][:limit],
            ),
        }

    def warm_up(self, tracer) -> None:
        self.decode_all(tracer, "warm_up", self.jobs(limit=5), self.m["decoder"].DecoderConfig(), [])

    def saved_tables(self) -> dict[str, Path]:
        """Translation tables a pass saves, by name, for the table digests."""
        tables = self.m["cli"].TABLE_FILES.items()
        return {tag: self.work / "retrained" / name for tag, name in tables}

    def run_pass(self, tracer) -> dict:
        decoder, bleu_eval = self.m["decoder"], self.m["bleu_eval"]
        jobs = self.jobs()
        self.probes = [speed.probe()]
        ops_s: list = []
        # ``aslmt train`` on the set-up's data, into a directory the
        # decodes do not use, so train_s is measured here too.
        start = clock()
        code, _ = self.run_cli(tracer, "train", ["train", self.train_path, "--out", self.work / "retrained"])
        self.done(tracer, ops_s, "train", start)
        failed = int(code != 0)
        scored, failed_decodes = self.decode_all(tracer, "evaluate", jobs, decoder.DecoderConfig(), ops_s)
        failed += failed_decodes
        start = clock()
        bleu = {d: bleu_eval.corpus_mean_bleu(pairs) for d, pairs in scored.items() if pairs}
        self.done(tracer, ops_s, "evaluate", start)
        for queue_size in SWEEP_QUEUE_SIZES:
            config = decoder.DecoderConfig(max_queue_size=queue_size)
            failed += self.decode_all(tracer, "sweep", jobs, config, ops_s)[1]
        return {"ops_s": ops_s, "probe_s": self.probes, "bleu": bleu, "failed": failed}


WORKLOADS = {w.name: w for w in (PaperPipeline, LongDecode)}
