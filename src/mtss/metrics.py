"""Corpus evaluation: BLEU-4, episode-level Inform and Success, Entity Recall.

Inform holds for an episode iff every goal domain that requires an entity
offer saw a system response emitting that domain's offer placeholder while
the goal constraints match at least one database entity. Success
additionally needs every requested slot's placeholder to appear in some
system response tagged with that domain. Entity Recall is turn-level and
skips turns whose gold response carries no placeholders.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

from mtss.corpus import Corpus, CorpusError, DomainSchema, query_db
from mtss.corpus.delex import placeholder

Tokens = Sequence[str]
GeneratedMap = Mapping[tuple[str, int], Tokens]


# -- BLEU ----------------------------------------------------------------------


def _ngram_counts(tokens: Tokens, n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _bleu_counts(cand: Tokens, ref: Tokens) -> tuple[int, ...]:
    """One pair's BLEU-4 statistics, case-insensitive: the clipped n-gram
    matches for n=1..4, the candidate's n-gram totals for n=1..4, then the
    candidate and reference lengths. A corpus sums them pair by pair."""
    cand = [t.lower() for t in cand]
    ref = [t.lower() for t in ref]
    matched, total = [], []
    for n in range(1, 5):
        counts = _ngram_counts(cand, n)
        ref_counts = _ngram_counts(ref, n)
        total.append(sum(counts.values()))
        matched.append(sum(min(c, ref_counts[g]) for g, c in counts.items()))
    return (*matched, *total, len(cand), len(ref))


def _corpus_bleu(pair_counts: Sequence[tuple[int, ...]]) -> float:
    """Corpus-level BLEU-4 from the ``_bleu_counts`` of each pair."""
    if not pair_counts:
        raise ValueError("need equally many candidates and references, at least one pair")
    sums = [sum(column) for column in zip(*pair_counts)]
    matched, total, cand_len, ref_len = sums[:4], sums[4:8], sums[8], sums[9]
    if cand_len == 0:
        return 0.0
    log_precision = 0.0
    for n in range(4):
        if matched[n] == 0 or total[n] == 0:
            return 0.0
        log_precision += 0.25 * math.log(matched[n] / total[n])
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * brevity * math.exp(log_precision)


def bleu4(candidates: Sequence[Tokens], references: Sequence[Tokens]) -> float:
    """Corpus-level BLEU-4 in [0, 100]: modified n-gram precisions for n=1..4,
    geometric mean, brevity penalty, no smoothing, case-insensitive.
    """
    if len(candidates) != len(references):
        raise ValueError("need equally many candidates and references, at least one pair")
    return _corpus_bleu([_bleu_counts(cand, ref) for cand, ref in zip(candidates, references)])


# -- entity recall ----------------------------------------------------------------


def extract_placeholders(tokens: Tokens) -> set[str]:
    return {t for t in tokens if t.startswith("[") and t.endswith("]")}


def entity_recall(generated: Tokens, gold: Tokens) -> float | None:
    """Recall of gold entity placeholders; None when the gold has none."""
    wanted = extract_placeholders(gold)
    if not wanted:
        return None
    return len(wanted & extract_placeholders(generated)) / len(wanted)


def mean_entity_recall(pairs: Iterable[tuple[Tokens, Tokens]]) -> float | None:
    scores = [r for gen, gold in pairs if (r := entity_recall(gen, gold)) is not None]
    if not scores:
        return None
    return sum(scores) / len(scores)


# -- inform / success ----------------------------------------------------------------


def offer_slot(schema: DomainSchema) -> str:
    """The slot whose placeholder counts as an entity offer for the domain."""
    for candidate in ("name", "contact"):
        if candidate in schema.requestable or candidate in schema.informable:
            return candidate
    return sorted(schema.requestable)[0] if schema.requestable else sorted(schema.informable)[0]


def _episode_outcome(episode, corpus: Corpus, generated: GeneratedMap) -> dict[str, tuple[bool, bool]]:
    """Per goal domain: (informed, succeeded) for one episode."""
    outcome = {}
    for domain, goal in episode.goal.items():
        if domain not in corpus.schemas:
            raise CorpusError(f"{episode.episode_id}: goal references unknown domain {domain!r}")
        emitted: set[str] = set()
        for index, turn in enumerate(episode.turns):
            if turn.domain != domain:
                continue
            tokens = generated.get((episode.episode_id, index), ())
            emitted |= extract_placeholders(tokens)
        informed = True
        if goal.offer:
            offer_tag = placeholder(domain, offer_slot(corpus.schemas[domain]))
            informed = offer_tag in emitted and bool(
                query_db(corpus.database, domain, goal.constraints)
            )
        succeeded = informed and all(
            placeholder(domain, slot) in emitted for slot in goal.requested
        )
        outcome[domain] = (informed, succeeded)
    return outcome


# -- combined report ----------------------------------------------------------------


@dataclass
class DomainMetrics:
    bleu4: float = 0.0
    entity_recall: float | None = None
    inform: float | None = None
    success: float | None = None
    turns: int = 0
    episodes: int = 0


@dataclass
class MetricReport:
    bleu4: float
    inform: float
    success: float
    entity_recall: float | None
    per_domain: dict[str, DomainMetrics] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def format_table(self) -> str:
        def pct(x):
            return "   -" if x is None else f"{100.0 * x:5.1f}"

        lines = [
            f"{'domain':<12} {'BLEU':>6} {'ER':>6} {'Inform':>7} {'Success':>8} {'turns':>6}",
            f"{'overall':<12} {self.bleu4:6.1f} {pct(self.entity_recall):>6} "
            f"{pct(self.inform):>7} {pct(self.success):>8} {sum(m.turns for m in self.per_domain.values()):>6}",
        ]
        for domain in sorted(self.per_domain):
            m = self.per_domain[domain]
            lines.append(
                f"{domain:<12} {m.bleu4:6.1f} {pct(m.entity_recall):>6} "
                f"{pct(m.inform):>7} {pct(m.success):>8} {m.turns:>6}"
            )
        return "\n".join(lines)


def score_corpus(corpus: Corpus, generated: GeneratedMap) -> MetricReport:
    """Full report over generated responses keyed by (episode id, turn index).

    An episode informs (succeeds) iff every one of its goal domains does;
    the per-domain rows are in sorted domain order. Each turn's BLEU
    statistics are counted once and summed into the overall and its
    domain's score.
    """
    all_pairs = []
    all_counts = []
    by_domain_pairs: dict[str, list] = {}
    by_domain_counts: dict[str, list] = {}
    domain_outcomes: dict[str, list[tuple[bool, bool]]] = {}
    informed = succeeded = 0
    for episode in corpus.episodes:
        for index, turn in enumerate(episode.turns):
            pair = (generated.get((episode.episode_id, index), []), turn.system)
            counts = _bleu_counts(*pair)
            all_pairs.append(pair)
            all_counts.append(counts)
            by_domain_pairs.setdefault(turn.domain, []).append(pair)
            by_domain_counts.setdefault(turn.domain, []).append(counts)
        outcome = _episode_outcome(episode, corpus, generated)
        for domain, result in outcome.items():
            domain_outcomes.setdefault(domain, []).append(result)
        if all(ok for ok, _ in outcome.values()):
            informed += 1
            succeeded += all(ok for _, ok in outcome.values())

    report = MetricReport(
        bleu4=_corpus_bleu(all_counts),
        inform=informed / len(corpus.episodes),
        success=succeeded / len(corpus.episodes),
        entity_recall=mean_entity_recall(all_pairs),
    )
    for domain in sorted(set(by_domain_pairs) | set(domain_outcomes)):
        pairs = by_domain_pairs.get(domain, [])
        outcomes = domain_outcomes.get(domain, [])
        report.per_domain[domain] = DomainMetrics(
            bleu4=_corpus_bleu(by_domain_counts[domain]) if pairs else 0.0,
            entity_recall=mean_entity_recall(pairs),
            inform=sum(i for i, _ in outcomes) / len(outcomes) if outcomes else None,
            success=sum(s for _, s in outcomes) / len(outcomes) if outcomes else None,
            turns=len(pairs),
            episodes=len(outcomes),
        )
    return report
