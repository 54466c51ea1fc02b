"""Benchmark for aslmt: one workload per process, closed loop, one caller.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paper_pipeline --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` of the same checkout; without it the
run exits with code 2 before printing a result. ``--trace 0`` prints the
end-to-end metrics. ``--trace 1`` alternates untraced and traced passes,
prints the per-layer metrics and the tracing overhead, and writes the spans
of the traced passes to ``.bench_work/``. Times are CPU times of the
process (``tracer.clock``) scaled to a reference machine speed by a probe
timed before and after every operation (``speed.py``); each operation's
time is its median over the passes of a run, latency percentiles are taken
over the decodes of all passes. ``setup_s`` is the median over fresh
processes that run only the set-up (``--setup-only``). Before the result come
``record=...`` lines: machine and load, digests, latency sample, BLEU-2 and
failures. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. ``bench/LAYERS.md`` defines
every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import speed
import tracer as tracing
from workloads import DIRECTIONS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
MODULES = ("corpus", "align_model", "lang_model", "decoder", "bleu_eval", "baselines", "cli", "errors")
TAGS = ("sign_given_english", "english_given_sign")
COMMANDS = ("split", "train", "evaluate", "sweep", "baseline")
# Source-length buckets of the decoder metrics: b4 up to 4 tokens, b8 up to
# 8, b16 up to 16, b24 above that (long_decode's longest sources are 24).
BUCKETS = ((4, "b4"), (8, "b8"), (16, "b16"), (math.inf, "b24"))
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
# Fresh processes that each time one set-up, for setup_s.
SETUP_PROCESSES = 7
# Untraced passes (and, with --trace 1, traced ones) a run makes at least.
MIN_PASSES = 3
# No pass starts later than this after process start, so a run on a slow
# machine still ends well inside its 180 s limit.
HARD_STOP_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_s": "s",
    "evaluate_s": "s",
    "sweep_s": "s",
    "decode_tok_per_s": "tok/s",
    "decode_ms.p50": "ms",
    "decode_ms.tail": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units: dict[str, str] = {}

    def add(unit, *names):
        for name in names:
            units[name] = unit

    add("ms", "corpus.load_ms", "corpus.self_ms")
    add("count", "corpus.lines")
    for tag in TAGS:
        add("ms", f"align_model.em_train_ms.{tag}", f"align_model.em_iter_ms.{tag}")
        add("count", f"align_model.em_iterations.{tag}", f"align_model.table_entries.{tag}")
    add("ms", "align_model.table_save_ms", "align_model.table_load_ms", "align_model.self_ms")
    add("count", "align_model.candidates_calls", "align_model.lookup_calls")
    add("ms", "lang_model.build_ms", "lang_model.load_ms", "lang_model.self_ms")
    for direction in DIRECTIONS:
        add("count", f"lang_model.ext_calls.{direction}")
        add("ms", f"lang_model.ext_ms.{direction}")
    for direction in DIRECTIONS:
        for _, bucket in BUCKETS:
            add("ms", f"decoder.decode_ms.{direction}.{bucket}")
            add("count", f"decoder.hyp_built.{direction}.{bucket}")
            add("count", f"decoder.hyp_popped.{direction}.{bucket}")
    add("ratio", "decoder.pop_ratio")
    add("ms", "decoder.self_ms", "bleu_eval.score_ms", "bleu_eval.self_ms")
    add("count", "bleu_eval.pairs")
    add("score", *(f"mean_bleu2.{d}" for d in DIRECTIONS))
    add("ms", "baselines.lexicon_ms", "baselines.asl_to_eng_ms", "baselines.eng_to_asl_ms")
    add("ms", "baselines.self_ms", "cli.split_ms", "cli.train_ms", "cli.models_load_ms")
    for command in ("evaluate", "sweep", "baseline"):
        add("ms", *(f"cli.{command}_ms.{d}" for d in DIRECTIONS))
    add("ms", *(f"cli.self_ms.{command}" for command in COMMANDS))
    add("ratio", "trace.overhead.pipeline_s", "trace.overhead.decode_tok_per_s")
    add("count", "trace.spans", "trace.missing_names")
    return units


def bucket_of(length: int) -> str:
    return next(name for limit, name in BUCKETS if length <= limit)


def import_aslmt() -> dict:
    package = importlib.import_module("aslmt")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"aslmt was imported from {package.__file__}, not from {SRC}")
    modules = {"aslmt": package}
    for name in MODULES:
        modules[name] = importlib.import_module(f"aslmt.{name}")
    return modules


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as handle:
            return ",".join(handle.read().split()[:3])
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip().replace(" ", "_")
    except OSError:
        pass
    return platform.processor().replace(" ", "_") or "unknown"


def sha1_file(path: Path) -> str:
    return hashlib.sha1(path.read_bytes()).hexdigest()


# -- one pass: counts, checks, digest, latency, layer times -------------------


def call_reducer(modules):
    """What the tracer keeps of each call: enough for counts, checks and
    digests, and no tables or models, which would inflate peak memory."""
    sign_given_english = modules["align_model"].SIGN_GIVEN_ENGLISH

    def reduce(name, args, result):
        if name == "align_model.em_train":
            columns: dict = defaultdict(float)
            for (_, target), prob in result.table.t.items():
                columns[target] += prob
            bad = sum(1 for total in columns.values() if abs(total - 1.0) > 1e-9)
            return args[2], result.iterations, result.log_likelihoods, len(result.table.t), bad
        if name == "decoder.decode":
            table = tracing.unwrap(args[1])
            source = tuple(getattr(args[0], "surfaces", args[0]))
            allowed = {target for s in source for target, _ in table.candidates(s)}
            direction = DIRECTIONS[0] if table.direction == sign_given_english else DIRECTIONS[1]
            return direction, source, result, set(result.output.surfaces) - allowed
        if name == "bleu_eval.bleu2":
            return result.score
        if name == "corpus.load_corpus":
            return len(result)
        if name == "cli.main":
            return list(args[0])
        return None

    return reduce


def analyse(log, latency_stages) -> dict:
    """Counts, check failures, decode digest and latency samples of one pass."""
    counts: dict[str, int] = defaultdict(int)
    decode_s: dict[str, float] = defaultdict(float)
    failures: list[str] = []
    checks = 0
    digest = hashlib.sha1()
    latency: list[tuple[float, int, int]] = []
    for call in log.calls:
        if call.name == "decoder.decode":
            direction, source, result, stray = call.data
            counts["decoder.decodes"] += 1
            digest.update(
                f"{direction}\t{' '.join(source)}\t{result.output.render()}\t"
                f"{result.priority!r}\t{result.pops_per_queue}\n".encode()
            )
            checks += 2
            if not math.isfinite(result.priority):
                failures.append(f"non-finite priority {result.priority!r} for {' '.join(source)!r}")
            if stray:
                failures.append(f"output tokens {sorted(stray)} are not source candidates")
            if call.stage in latency_stages:
                latency.append((call.seconds, len(source), call.op))
                key = f"{direction}.{bucket_of(len(source))}"
                counts[f"decoder.hyp_built.{key}"] += result.expansions
                counts[f"decoder.hyp_popped.{key}"] += sum(result.pops_per_queue)
                counts[f"decoder.decodes.{key}"] += 1
                decode_s[key] += call.seconds
        elif call.name == "align_model.em_train":
            tag, iterations, lls, entries, bad = call.data
            counts[f"align_model.em_iterations.{tag}"] += iterations
            counts[f"align_model.table_entries.{tag}"] += entries
            checks += 2
            if any(b < a - 1e-12 * abs(a) for a, b in zip(lls, lls[1:])):
                failures.append(f"EM log-likelihood decreased ({tag})")
            if bad:
                failures.append(f"{bad} table columns do not sum to 1 ({tag})")
        elif call.name == "bleu_eval.bleu2":
            counts["bleu_eval.pairs"] += 1
            checks += 1
            if not 0.0 <= call.data <= math.e:
                failures.append(f"BLEU-2 {call.data!r} outside [0, e]")
        elif call.name == "corpus.load_corpus":
            counts["corpus.lines"] += call.data
    for key, value in log.proxy_calls.items():
        counts[f"proxy.{key}"] = value
    return {
        "counts": dict(counts),
        "decode_s": dict(decode_s),
        "failures": failures,
        "checks": checks,
        "digest": digest.hexdigest(),
        "latency": latency,
    }


def layer_times(log, analysis: dict, scale: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass; times in reference-machine ms
    (``scale`` is the pass's, see ``speed.py``)."""
    to_ms = 1000 * scale
    ms: dict[str, float] = defaultdict(float)
    for call in log.calls:
        ms[call.name] += call.seconds * to_ms
        if call.name == "align_model.em_train":
            ms[f"em_train.{call.data[0]}"] += call.seconds * to_ms
        elif call.name == "cli.main":
            argv = call.data
            direction = argv[argv.index("--direction") + 1] if "--direction" in argv else ""
            ms[f"cli.{argv[0]}_ms{'.' + direction if direction else ''}"] += call.seconds * to_ms
    counts = analysis["counts"]
    out = {
        "corpus.load_ms": ms["corpus.load_corpus"],
        "align_model.table_save_ms": ms["align_model.TranslationTable.save"],
        "align_model.table_load_ms": ms["align_model.TranslationTable.load"],
        "lang_model.build_ms": ms["lang_model.build_english_model"] + ms["lang_model.build_asl_model"],
        "lang_model.load_ms": ms["lang_model.load_ngram_file"] + ms["lang_model.load_asl_model"],
        "bleu_eval.score_ms": ms["bleu_eval.bleu2"],
        "baselines.lexicon_ms": ms["baselines.BilingualLexicon.from_table"],
        "baselines.asl_to_eng_ms": ms["baselines.baseline_asl_to_eng"],
        "baselines.eng_to_asl_ms": ms["baselines.baseline_eng_to_asl"],
        "cli.models_load_ms": ms["cli.ModelSet.load"],
        "cli.split_ms": ms["cli.split_ms"],
        "cli.train_ms": ms["cli.train_ms"],
    }
    for command in ("evaluate", "sweep", "baseline"):
        for direction in DIRECTIONS:
            out[f"cli.{command}_ms.{direction}"] = ms[f"cli.{command}_ms.{direction}"]
    for tag in TAGS:
        iterations = counts.get(f"align_model.em_iterations.{tag}", 0)
        out[f"align_model.em_train_ms.{tag}"] = ms[f"em_train.{tag}"]
        out[f"align_model.em_iter_ms.{tag}"] = ms[f"em_train.{tag}"] / iterations if iterations else 0.0
    for key, seconds in analysis["decode_s"].items():
        out[f"decoder.decode_ms.{key}"] = seconds * to_ms / counts[f"decoder.decodes.{key}"]
    for direction in DIRECTIONS:
        out[f"lang_model.ext_ms.{direction}"] = log.proxy_seconds.get(f"lang_model.ext.{direction}", 0.0) * to_ms
    # Self time: span duration minus child spans and proxied calls; the
    # proxied calls count as self time of the layer they belong to.
    self_ms: dict[str, float] = defaultdict(float)
    for span in log.spans:
        own = (span["end"] - span["start"] - span["child_s"]) * to_ms
        self_ms[span["layer"]] += own
        if span["name"] == "cli.main":
            self_ms[f"cli.{span['command']}"] += own
    for key, seconds in log.proxy_seconds.items():
        self_ms[key.split(".")[0]] += seconds * to_ms
    for layer in tracing.LAYERS:
        if layer != "cli":
            out[f"{layer}.self_ms"] = self_ms[layer]
    for command in COMMANDS:
        out[f"cli.self_ms.{command}"] = self_ms[f"cli.{command}"]
    out["trace.spans"] = len(log.spans)
    return out


# -- statistics ----------------------------------------------------------------


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = pct / 100 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    return max((p for p in TAIL_LADDER if round(n * (100 - p) / 100, 6) >= 10), default=TAIL_LADDER[0])


def typical(passes: list[dict], key) -> list[float]:
    """Each operation's median time over the passes. ``key(pass)`` lists
    the operation times of a pass, which come in the same order every pass.
    On a shared machine the speed swings for seconds at a time; a median
    over passes spread across the run averages those swings, where a
    minimum depends on the one fastest moment and spreads more."""
    return [statistics.median(times) for times in zip(*(key(p) for p in passes))]


def op_times(p: dict) -> list[float]:
    return [seconds * scale for (_, seconds), scale in zip(p["ops_s"], p["op_scale"])]


def latency_times(p: dict) -> list[float]:
    return [seconds * p["op_scale"][op] for seconds, _, op in p["analysis"]["latency"]]


def stage_seconds(passes: list[dict]) -> dict[str, float]:
    """Sum of the typical times of each stage's operations, and of all."""
    stages = [stage for stage, _ in passes[0]["ops_s"]]
    totals = {"pipeline_s": 0.0, "train_s": 0.0, "evaluate_s": 0.0, "sweep_s": 0.0}
    for stage, seconds in zip(stages, typical(passes, op_times)):
        totals["pipeline_s"] += seconds
        if f"{stage}_s" in totals:
            totals[f"{stage}_s"] += seconds
    return totals


def tok_per_s(passes: list[dict]) -> float:
    tokens = sum(n for _, n, _ in passes[0]["analysis"]["latency"])
    return tokens / sum(typical(passes, latency_times))


# -- the run -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set up once, print the CPU time used so far and exit (see time_setups).
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    process_start = time.perf_counter()
    load_start = loadavg()
    if not (SRC / "aslmt" / "__init__.py").is_file():
        print(f"error: no aslmt package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.setup_only:
            set_up(args, work)
            cpu_s = tracing.clock()
            print(cpu_s, speed.setup_scale())
            return 0
        return run(args, work, process_start, load_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def set_up(args, work: Path):
    modules = import_aslmt()
    workload = WORKLOADS[args.workload](modules, args.seed, work)
    workload.setup()
    return workload, modules


def time_setups(args) -> list[tuple[float, float]]:
    """Set-up time of fresh processes: the CPU time each has used, from its
    start until its set-up is done, times the scale of the speed probes it
    runs afterwards; returns (scaled, raw) pairs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROCESSES):
        child = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=False)
        if child.returncode != 0:
            raise RuntimeError(f"set-up process exited {child.returncode}: {child.stderr.strip()[-500:]}")
        cpu_s, scale = map(float, child.stdout.split()[-2:])
        times.append((cpu_s * scale, cpu_s))
    return times


def measure(args, workload, tracer, process_start: float) -> list[dict]:
    """Warm up, then run passes (alternating untraced and traced ones when
    tracing) until the time is used and the latency window is full."""
    tracer.begin_pass(False)
    workload.warm_up(tracer)
    tracer.end_pass()
    passes: list[dict] = []
    measure_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer.begin_pass(traced)
        start = time.perf_counter()
        result = workload.run_pass(tracer)
        result["pass_s"] = time.perf_counter() - start
        result["op_scale"] = speed.op_scales(result["probe_s"])
        # The pass's own scale, for its per-layer times: the operations'
        # scales weighted by their times.
        cpu_s = [seconds for _, seconds in result["ops_s"]]
        result["scale"] = sum(t * k for t, k in zip(cpu_s, result["op_scale"])) / sum(cpu_s)
        log = tracer.end_pass()
        result["traced"] = traced
        result["analysis"] = analyse(log, workload.latency_stages)
        if traced:
            result["layer"] = layer_times(log, result["analysis"], result["scale"])
        result["tables"] = {tag: sha1_file(p) for tag, p in workload.saved_tables().items()}
        passes.append(result)

        n_traced = sum(1 for p in passes if p["traced"])
        enough = len(passes) - n_traced >= MIN_PASSES and (n_traced >= MIN_PASSES or not args.trace)
        now = time.perf_counter()
        pass_wall = statistics.median(p["pass_s"] for p in passes)
        if enough and now - measure_start + pass_wall > args.seconds:
            return passes
        if now - process_start > HARD_STOP_S and (n_traced or not args.trace):
            return passes


def check(args, passes: list[dict]) -> tuple[int, int, list[str], dict]:
    """Attempted and failed operations, check failures, and the digests."""
    failures: list[str] = []
    attempted = sum(len(p["ops_s"]) + p["analysis"]["checks"] for p in passes)
    failed_ops = sum(p["failed"] for p in passes)
    for p in passes:
        failures.extend(p["analysis"]["failures"])

    # Exact values repeat from pass to pass, traced or not; proxy counts
    # exist only in traced passes and repeat among them.
    def base_counts(p):
        return {k: v for k, v in p["analysis"]["counts"].items() if not k.startswith("proxy.")}

    traced = [p for p in passes if p["traced"]]
    repeat_checks = [
        ("counts", base_counts, passes),
        ("proxy counts", lambda p: p["analysis"]["counts"], traced),
        ("decode digests", lambda p: p["analysis"]["digest"], passes),
        ("BLEU-2 values", lambda p: p["bleu"], passes),
        ("table digests", lambda p: p["tables"], passes),
    ]
    for label, key, group in repeat_checks:
        attempted += 1
        if any(key(p) != key(group[0]) for p in group):
            failures.append(f"{label} differ between passes")

    digests = {"decodes": passes[0]["analysis"]["digest"]}
    digests.update({f"table.{tag}": sha for tag, sha in passes[0]["tables"].items()})
    reference = {}
    if args.seed == DEFAULT_SEED and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(args.workload, {})
    verdicts = {}
    for name, sha in digests.items():
        expected = reference.get(name)
        verdicts[name] = "none" if expected is None else ("match" if expected == sha else "mismatch")
        if expected is not None:
            attempted += 1
            if expected != sha:
                failures.append(f"digest {name} differs from the reference")
    return attempted, failed_ops, failures, {n: (digests[n], verdicts[n]) for n in digests}


def end_to_end_metrics(passes, latency_ms, tail, setup_s) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    return {
        "setup_s": statistics.median(scaled for scaled, _ in setup_s),
        **stage_seconds(untraced),
        "decode_tok_per_s": tok_per_s(untraced),
        "decode_ms.p50": percentile(latency_ms, 50),
        "decode_ms.tail": percentile(latency_ms, tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(passes, units: dict, missing: int) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    exact = traced[0]["analysis"]["counts"]
    values = {name: exact.get(name, 0.0) for name in units}
    built = sum(v for k, v in exact.items() if k.startswith("decoder.hyp_built."))
    popped = sum(v for k, v in exact.items() if k.startswith("decoder.hyp_popped."))
    values["decoder.pop_ratio"] = popped / built if built else 0.0
    values["align_model.candidates_calls"] = exact.get("proxy.align_model.candidates", 0)
    values["align_model.lookup_calls"] = exact.get("proxy.align_model.lookup", 0)
    for direction in DIRECTIONS:
        values[f"lang_model.ext_calls.{direction}"] = exact.get(f"proxy.lang_model.ext.{direction}", 0)
        values[f"mean_bleu2.{direction}"] = passes[0]["bleu"].get(direction, 0.0)
    for name in traced[0]["layer"]:
        values[name] = statistics.median(p["layer"][name] for p in traced)
    values["trace.overhead.pipeline_s"] = (
        stage_seconds(traced)["pipeline_s"] / stage_seconds(untraced)["pipeline_s"]
    )
    values["trace.overhead.decode_tok_per_s"] = tok_per_s(traced) / tok_per_s(untraced)
    values["trace.missing_names"] = missing
    return values


def run(args, work: Path, process_start: float, load_start: str) -> int:
    setup_s = time_setups(args)
    workload, modules = set_up(args, work)
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    tracer = tracing.Tracer(modules, run_id, call_reducer(modules))
    tracer.install()
    try:
        passes = measure(args, workload, tracer, process_start)
    finally:
        tracer.uninstall()
    attempted, failed_ops, failures, digests = check(args, passes)

    for name, (sha, verdict) in digests.items():
        print(f"record=digest workload={args.workload} seed={args.seed} name={name} sha1={sha} reference={verdict}")
    for i, p in enumerate(passes):
        stages = " ".join(f"{k}={v:.4f}" for k, v in sorted(stage_seconds([p]).items()))
        print(
            f"record=pass index={i} traced={int(p['traced'])} wall_s={p['pass_s']:.4f} "
            f"probe_ms={1000 * speed.REFERENCE_S / p['scale']:.3f} scale={p['scale']:.4f} {stages}"
        )
    bleu = passes[0]["bleu"]
    print("record=quality " + " ".join(f"mean_bleu2.{d}={bleu.get(d, 0.0)!r}" for d in DIRECTIONS))
    untraced = [p for p in passes if not p["traced"]]
    # Percentiles over the latency decodes of every untraced pass, pooled:
    # a collector pause lands in a few decodes of each pass, different ones
    # each time, so in a pool it is counted as often as it happens, where a
    # per-decode median over a few passes keeps it or drops it by chance.
    # The tail percentile comes from the decodes of one pass, a number the
    # inputs fix, so it does not depend on how many passes a run makes.
    latency_ms = [s * 1000 for p in untraced for s in latency_times(p)]
    per_pass = len(untraced[0]["analysis"]["latency"])
    tail = tail_percentile(per_pass)
    beyond = sum(1 for s in latency_ms if s > percentile(latency_ms, tail))
    print(
        f"record=latency samples_per_pass={per_pass} passes={len(untraced)} samples={len(latency_ms)} "
        f"tail_percentile={tail} beyond_tail={beyond}"
    )
    print(f"record=passes total={len(passes)} traced={sum(p['traced'] for p in passes)}")
    scaled, cpu = zip(*setup_s)
    print(f"record=setup scaled_s={','.join(f'{v:.4f}' for v in scaled)} cpu_s={','.join(f'{v:.4f}' for v in cpu)}")
    for failure in failures:
        print(f"record=failure {failure}")
    failed = failed_ops + len(failures)
    print(f"record=failures attempted={attempted} failed={failed} failed_ratio={failed / attempted!r}")
    print(
        f"record=machine nproc={len(os.sched_getaffinity(0))} cpu={cpu_model()} "
        f"python={platform.python_version()} loadavg_start={load_start} loadavg_end={loadavg()}"
    )

    if args.trace:
        units = per_layer_units()
        values = per_layer_metrics(passes, units, len(tracer.missing))
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        written = tracer.write_spans(spans_path)
        print(f"record=trace spans={written} file={spans_path.relative_to(ROOT)} run={run_id}")
        print(f"record=trace_missing count={len(tracer.missing)} names={','.join(tracer.missing) or '-'}")
    else:
        units = END_TO_END
        values = end_to_end_metrics(passes, latency_ms, tail, setup_s)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
