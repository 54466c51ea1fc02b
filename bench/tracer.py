"""Call wrappers, spans and counting proxies around the public API of aslmt.

Everything here lives outside the package: the tracer replaces public
names of the aslmt modules with wrappers (and puts counting proxies in
front of translation tables and language models), so the package itself
is measured unchanged.

Two things are always on, because the benchmark's correctness checks and
exact counts need them: every wrapped call is timed, and what ``reduce``
keeps of its arguments and result is logged for the pass. Spans and
proxies are on only while ``spans_on`` is set (the traced passes).
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

# (layer, module, attribute path) of every public name the tracer wraps.
# A path with a dot names a method on a class of that module.
TARGETS = (
    ("corpus", "corpus", "load_corpus"),
    ("corpus", "corpus", "save_corpus"),
    ("corpus", "corpus", "split_dataset"),
    ("corpus", "corpus", "filter_subset"),
    ("align_model", "align_model", "em_train"),
    ("align_model", "align_model", "TranslationTable.load"),
    ("align_model", "align_model", "TranslationTable.save"),
    ("lang_model", "lang_model", "build_english_model"),
    ("lang_model", "lang_model", "build_asl_model"),
    ("lang_model", "lang_model", "load_ngram_file"),
    ("lang_model", "lang_model", "load_asl_model"),
    ("lang_model", "lang_model", "save_ngram_file"),
    ("lang_model", "lang_model", "save_asl_model"),
    ("decoder", "decoder", "decode"),
    ("decoder", "decoder", "translate_corpus"),
    ("bleu_eval", "bleu_eval", "bleu2"),
    ("bleu_eval", "bleu_eval", "corpus_mean_bleu"),
    ("baselines", "baselines", "BilingualLexicon.from_table"),
    ("baselines", "baselines", "UnigramCost.from_corpus"),
    ("baselines", "baselines", "baseline_asl_to_eng"),
    ("baselines", "baselines", "baseline_eng_to_asl"),
    ("cli", "cli", "main"),
    ("cli", "cli", "ModelSet.load"),
)

# The clock of every operation and span: CPU time of this process. The
# program is single-threaded and CPU-bound, so on a dedicated machine this
# reads as wall time; on a shared virtual machine it leaves out the time
# the host gives this machine's CPUs to other guests (steal time). The
# slowdown while the process runs is what speed.py corrects.
clock = time.process_time

LAYERS = ("corpus", "align_model", "lang_model", "decoder", "bleu_eval", "baselines", "cli")


@dataclass
class Call:
    """One finished call of a wrapped name. ``data`` is what the tracer's
    ``reduce`` function kept of the arguments and result."""

    name: str
    data: object
    seconds: float
    stage: str
    op: int


@dataclass
class PassLog:
    """What the tracer saw during one pass."""

    calls: list[Call] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    proxy_calls: dict[str, int] = field(default_factory=dict)
    proxy_seconds: dict[str, float] = field(default_factory=dict)


class TableProxy:
    """Counts and times ``candidates``/``lookup`` on a translation table."""

    def __init__(self, table, tracer: "Tracer") -> None:
        self._table = table
        self._tracer = tracer

    def candidates(self, source):
        start = clock()
        result = self._table.candidates(source)
        self._tracer.proxy_call("align_model.candidates", start)
        return result

    def lookup(self, source, target):
        start = clock()
        result = self._table.lookup(source, target)
        self._tracer.proxy_call("align_model.lookup", start)
        return result

    def __getattr__(self, name):
        return getattr(self._table, name)


class LanguageModelProxy:
    """Counts and times the two ``LanguageModel`` protocol methods."""

    def __init__(self, lm, direction: str, tracer: "Tracer") -> None:
        self._lm = lm
        self._direction = direction
        self._tracer = tracer

    def extension_logprob(self, prefix, token):
        start = clock()
        result = self._lm.extension_logprob(prefix, token)
        self._tracer.proxy_call(f"lang_model.ext.{self._direction}", start)
        return result

    def sequence_logprob(self, tokens):
        start = clock()
        result = self._lm.sequence_logprob(tokens)
        self._tracer.proxy_call(f"lang_model.seq.{self._direction}", start)
        return result

    def __getattr__(self, name):
        return getattr(self._lm, name)


def unwrap(obj):
    """The table or model behind a proxy (or the object itself)."""
    return getattr(obj, "_table", None) or getattr(obj, "_lm", None) or obj


class Tracer:
    def __init__(self, modules: dict, run_id: str, reduce) -> None:
        """``reduce(name, args, result)`` picks what to keep of each call;
        keeping little keeps the benchmark out of the peak-memory figure."""
        self.modules = modules
        self.run_id = run_id
        self.reduce = reduce
        self.spans_on = False
        self.stage = ""
        # Index of the workload's timed operation under way in this pass.
        self.op = 0
        self.log = PassLog()
        self.missing: list[str] = []
        self._stack: list[dict] = []
        self._next_id = 0
        self._pass_index = 0
        self._undo: list[tuple[object, str, object]] = []
        self._all_spans: list[dict] = []

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        for layer, module_name, path in TARGETS:
            module = self.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module_name}.{path}")
                continue
            raw = vars(owner)[attr]
            name = f"{layer}.{path}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, name, raw.__func__))
                self._patch(owner, attr, wrapped)
            elif owner_name:
                self._patch(owner, attr, self._wrap(layer, name, raw))
            else:
                wrapper = self._wrap(layer, name, raw)
                # Replace the name in every aslmt module that imported it,
                # so calls through ``cli`` or ``decoder.translate_corpus``
                # reach the wrapper too.
                for other in self.modules.values():
                    if vars(other).get(attr) is raw:
                        self._patch(other, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, layer: str, name: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.spans_on:
                start = clock()
                result = original(*args, **kwargs)
                seconds = clock() - start
            else:
                span = tracer._open(layer, name, args)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(span)
                seconds = span["end"] - span["start"]
                if name == "cli.ModelSet.load":
                    tracer._proxy_models(result)
            data = tracer.reduce(name, args, result)
            tracer.log.calls.append(Call(name, data, seconds, tracer.stage, tracer.op))
            return result

        return wrapper

    # -- spans ---------------------------------------------------------------

    def _open(self, layer: str, name: str, args: tuple) -> dict:
        self._next_id += 1
        span = {
            "id": self._next_id,
            "name": name,
            "layer": layer,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "pass": self._pass_index,
            "start": 0.0,
            "end": 0.0,
            "child_s": 0.0,
        }
        if name == "cli.main" and args:
            argv = list(args[0])
            span["command"] = argv[0]
            if "--direction" in argv:
                span["direction"] = argv[argv.index("--direction") + 1]
        self._stack.append(span)
        span["start"] = clock()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = clock()
        self._stack.pop()
        if self._stack:
            self._stack[-1]["child_s"] += span["end"] - span["start"]
        self.log.spans.append(span)

    def proxy_call(self, key: str, start: float) -> None:
        seconds = clock() - start
        log = self.log
        log.proxy_calls[key] = log.proxy_calls.get(key, 0) + 1
        log.proxy_seconds[key] = log.proxy_seconds.get(key, 0.0) + seconds
        if self._stack:
            self._stack[-1]["child_s"] += seconds

    # -- proxies -------------------------------------------------------------

    def table(self, table):
        return TableProxy(table, self) if self.spans_on else table

    def lm(self, lm, direction: str):
        return LanguageModelProxy(lm, direction, self) if self.spans_on else lm

    def _proxy_models(self, models) -> None:
        models.tables = {tag: self.table(t) for tag, t in models.tables.items()}
        models.english = {order: self.lm(m, "asl_to_eng") for order, m in models.english.items()}
        models.asl = self.lm(models.asl, "eng_to_asl")

    # -- passes --------------------------------------------------------------

    def begin_pass(self, traced: bool) -> None:
        self._pass_index += 1
        self.spans_on = traced
        self.stage = ""
        self.op = 0
        self.log = PassLog()

    def end_pass(self) -> PassLog:
        self.spans_on = False
        log = self.log
        self._all_spans.extend(log.spans)
        self.log = PassLog()
        return log

    def write_spans(self, path) -> int:
        """Write every span recorded so far as JSON lines; returns the count."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self._all_spans:
                record = {k: v for k, v in span.items() if k != "child_s"}
                record["self_s"] = span["end"] - span["start"] - span["child_s"]
                handle.write(json.dumps(record) + "\n")
        return len(self._all_spans)
