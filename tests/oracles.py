"""Independent brute-force oracles used by the tests.

Everything here recomputes results from first principles (explicit
enumeration, or a search without the decoder's shortcuts) without reusing
the search or update code under test; only model primitives (probability
lookups, window scoring) are shared.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter


def uniform_start(pairs):
    """The t(s, e) dict EM starts from, with None as the NULL target:
    uniform per target column over co-occurring source tokens, and
    uniform over the whole source vocabulary for NULL.

    ``pairs`` is a list of (source_tokens, target_tokens) tuples.
    """
    source_vocab: dict[str, None] = {}
    support: dict[str, dict[str, None]] = {}
    for src, tgt in pairs:
        for s in src:
            source_vocab[s] = None
        for e in tgt:
            bucket = support.setdefault(e, {})
            for s in src:
                bucket[s] = None
    t: dict[tuple[str, str | None], float] = {}
    for e, bucket in support.items():
        for s in bucket:
            t[(s, e)] = 1.0 / len(bucket)
    for s in source_vocab:
        t[(s, None)] = 1.0 / len(source_vocab)
    return t


def enumeration_em(pairs, iterations):
    """EM over a toy parallel corpus with the E-step done by enumerating
    every alignment vector and weighting it by its joint probability.

    ``pairs`` is a list of (source_tokens, target_tokens) tuples. Returns
    the t(s, e) dict after the given number of iterations, starting from
    ``uniform_start``.
    """
    t = uniform_start(pairs)
    for _ in range(iterations):
        counts: dict[tuple[str, str | None], float] = {}
        for src, tgt in pairs:
            targets = [None, *tgt]
            weights = {}
            total = 0.0
            for alignment in itertools.product(range(len(targets)), repeat=len(src)):
                w = 1.0
                for j, a in enumerate(alignment):
                    w *= t.get((src[j], targets[a]), 0.0)
                weights[alignment] = w
                total += w
            for alignment, w in weights.items():
                posterior = w / total
                for j, a in enumerate(alignment):
                    key = (src[j], targets[a])
                    counts[key] = counts.get(key, 0.0) + posterior
        column_totals: dict[str | None, float] = {}
        for (s, e), c in counts.items():
            column_totals[e] = column_totals.get(e, 0.0) + c
        t = {key: c / column_totals[key[1]] for key, c in counts.items()}
    return t


def dict_em_update(pairs, t, epsilon):
    """One EM update keyed by (s, e) dicts, and the raw log-likelihood of
    ``t``, with every float operation in corpus order.

    Per source position, the row t(s, NULL), t(s, e_1), ... is summed
    left to right; each non-zero cell adds value / row total to its
    key's count and to its target's column total, and the new table is
    each count over its column total. Keys in the order first counted.
    """
    counts: dict[tuple[str, str | None], float] = {}
    column_totals: dict[str | None, float] = {}
    log_likelihood = 0.0
    for src, tgt in pairs:
        targets = [None, *tgt]
        log_likelihood += math.log(epsilon) - len(src) * math.log(1 + len(tgt))
        for s in src:
            row = [t.get((s, e), 0.0) for e in targets]
            total = 0.0
            for value in row:
                total += value
            log_likelihood += math.log(total)
            for e, value in zip(targets, row):
                if value == 0.0:
                    continue
                weight = value / total
                counts[(s, e)] = counts.get((s, e), 0.0) + weight
                column_totals[e] = column_totals.get(e, 0.0) + weight
    return {key: c / column_totals[key[1]] for key, c in counts.items()}, log_likelihood


def dict_em_train(pairs, epsilon, max_iterations, tolerance):
    """``dict_em_update`` from ``uniform_start`` until no entry moves by
    ``tolerance`` (a missing key reads 0.0) or ``max_iterations`` runs.
    Returns the final t, the iteration count, and the log-likelihood of
    every table from the start to the final one."""
    t = uniform_start(pairs)
    log_likelihoods = []
    iterations = 0
    for _ in range(max_iterations):
        updated, log_likelihood = dict_em_update(pairs, t, epsilon)
        log_likelihoods.append(log_likelihood)
        iterations += 1
        delta = max(abs(updated.get(k, 0.0) - t.get(k, 0.0)) for k in set(t) | set(updated))
        t = updated
        if delta < tolerance:
            break
    log_likelihoods.append(dict_em_update(pairs, t, epsilon)[1])
    return t, iterations, tuple(log_likelihoods)


def best_priority_by_enumeration(source, table, lm, config):
    """Highest achievable decoder priority, found by depth-first
    enumeration of every reachable hypothesis.

    A hypothesis grows one step at a time: any source position may emit
    one of its top-``fanout`` candidate words (at most
    ``max_words_per_source`` word emissions per position), and an
    uncovered position may be skipped. Hypotheses stop growing once every
    position is covered, mirroring the search's final queue.
    """
    length = len(source)
    best: float | None = None

    def complete(tm_score, targets):
        nonlocal best
        lm_score = lm.sequence_logprob(targets)
        if config.literal_log_sum:
            raise NotImplementedError("oracle covers the default priority only")
        value = tm_score + config.lm_weight * lm_score
        if best is None or value > best:
            best = value

    def grow(covered, word_counts, tm_score, targets):
        if len(covered) == length:
            complete(tm_score, targets)
            return
        for index in range(length):
            token = source[index]
            if word_counts[index] < config.max_words_per_source:
                for target, prob in table.candidates(token)[: config.fanout]:
                    bumped = dict(word_counts)
                    bumped[index] += 1
                    grow(
                        covered | {index},
                        bumped,
                        tm_score + math.log(max(prob, table.floor)),
                        targets + (target,),
                    )
            if index not in covered:
                grow(
                    covered | {index},
                    word_counts,
                    tm_score + math.log(table.lookup(token, None)),
                    targets,
                )

    grow(frozenset(), {i: 0 for i in range(length)}, 0.0, ())
    return best


def unbounded_beam_search(source, table, lm, config):
    """The decoder's beam search done the plain way: every child is built
    and pushed, and no queue is ever trimmed.

    Queues are indexed by the number of covered source positions; each
    non-final queue is popped at most ``max_queue_size`` times, in index
    order, best (priority, targets, push order) first. A child appends one
    of a position's top-``fanout`` words (at most ``max_words_per_source``
    per position) or, for an uncovered position, a skip. The best entry of
    the final queue is re-scored with the complete-sentence LM. Returns
    (targets, priority, expansions, pops per queue), or None when the final
    queue is empty.
    """
    length = len(source)
    if not length:
        return (), 0.0, 0, ()

    def score(steps, tm_score, lm_score):
        if config.literal_log_sum:
            total = 0.0
            for _, _, tm_log in steps:
                total += math.exp(tm_log)
            tm_score = math.log(total)
        return tm_score + config.lm_weight * lm_score

    queues = [[] for _ in range(length + 1)]
    order = itertools.count()
    queues[0].append((0.0, (), next(order), (), 0.0, 0.0))

    def push(steps, tm_score, lm_score, targets):
        covered = {index for _, index, _ in steps}
        entry = (-score(steps, tm_score, lm_score), targets, next(order), steps, tm_score, lm_score)
        heapq.heappush(queues[len(covered)], entry)

    expansions = 0
    pops = [0] * length
    for queue_index in range(length):
        while pops[queue_index] < config.max_queue_size and queues[queue_index]:
            _, targets, _, steps, tm_score, lm_score = heapq.heappop(queues[queue_index])
            pops[queue_index] += 1
            covered = {index for _, index, _ in steps}
            words = Counter(index for target, index, _ in steps if target is not None)
            for index, token in enumerate(source):
                if words[index] < config.max_words_per_source:
                    for target, prob in table.candidates(token)[: config.fanout]:
                        tm_log = math.log(max(prob, table.floor))
                        expansions += 1
                        push(
                            steps + ((target, index, tm_log),),
                            tm_score + tm_log,
                            lm_score + lm.extension_logprob(targets, target),
                            targets + (target,),
                        )
                if index not in covered:
                    tm_log = math.log(table.lookup(token, None))
                    expansions += 1
                    push(steps + ((None, index, tm_log),), tm_score + tm_log, lm_score, targets)
    if not queues[length]:
        return None
    _, targets, _, steps, tm_score, _ = heapq.heappop(queues[length])
    return targets, score(steps, tm_score, lm.sequence_logprob(targets)), expansions, tuple(pops)


def best_insertion_by_enumeration(skeleton, helpers, bigram):
    """Best helper-word assignment by trying every combination of 0-or-1
    helper per gap. Returns (score, insertions, words) with the same tie
    rules as the dynamic program: fewer insertions, then lexicographic."""
    options = [None, *helpers]
    best = None
    for choice in itertools.product(options, repeat=len(skeleton) + 1):
        words: list[str] = []
        inserted = 0
        for gap in range(len(skeleton) + 1):
            if choice[gap] is not None:
                words.append(choice[gap])
                inserted += 1
            if gap < len(skeleton):
                words.append(skeleton[gap])
        score = 0.0
        for i, word in enumerate(words):
            score += bigram.extension_logprob(tuple(words[:i]), word)
        candidate = (score, inserted, tuple(words))
        if best is None:
            best = candidate
        elif candidate[0] > best[0]:
            best = candidate
        elif candidate[0] == best[0] and (candidate[1], candidate[2]) < (best[1], best[2]):
            best = candidate
    return best


def clipped_precision_by_counting(pred, ref, n):
    """Reference implementation of clipped n-gram precision."""
    pred_grams = [tuple(pred[i : i + n]) for i in range(len(pred) - n + 1)]
    if not pred_grams:
        return 0.0
    ref_counts = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
    matched = 0
    seen: Counter = Counter()
    for gram in pred_grams:
        seen[gram] += 1
        if seen[gram] <= ref_counts[gram]:
            matched += 1
    return matched / len(pred_grams)
