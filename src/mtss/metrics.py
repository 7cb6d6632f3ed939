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

from mtss.corpus import Corpus, DomainSchema, query_db
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


def _corpus_bleu(sums: Sequence[int]) -> float:
    """Corpus-level BLEU-4 from the column sums of its pairs' ``_bleu_counts``."""
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
    pair_counts = [_bleu_counts(cand, ref) for cand, ref in zip(candidates, references)]
    return _corpus_bleu([sum(column) for column in zip(*pair_counts)])


# -- entity recall ----------------------------------------------------------------


def extract_placeholders(tokens: Tokens) -> set[str]:
    return {t for t in tokens if t.startswith("[") and t.endswith("]")}


def entity_recall(generated: Tokens, gold: Tokens) -> float | None:
    """Recall of gold entity placeholders; None when the gold has none."""
    wanted = extract_placeholders(gold)
    return len(wanted & extract_placeholders(generated)) / len(wanted) if wanted else None


def _mean(scores: Sequence[float]) -> float | None:
    """``sum / len`` in the given order, so a report keeps its bits; None when empty."""
    return sum(scores) / len(scores) if scores else None


def mean_entity_recall(pairs: Iterable[tuple[Tokens, Tokens]]) -> float | None:
    return _mean([r for gen, gold in pairs if (r := entity_recall(gen, gold)) is not None])


# -- inform / success ----------------------------------------------------------------


def offer_slot(schema: DomainSchema) -> str:
    """The slot whose placeholder counts as an entity offer for the domain."""
    for candidate in ("name", "contact"):
        if candidate in schema.requestable or candidate in schema.informable:
            return candidate
    return sorted(schema.requestable)[0] if schema.requestable else sorted(schema.informable)[0]


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

        def line(name, m, turns):
            return (f"{name:<12} {m.bleu4:6.1f} {pct(m.entity_recall):>6} "
                    f"{pct(m.inform):>7} {pct(m.success):>8} {turns:>6}")

        return "\n".join([
            f"{'domain':<12} {'BLEU':>6} {'ER':>6} {'Inform':>7} {'Success':>8} {'turns':>6}",
            line("overall", self, sum(m.turns for m in self.per_domain.values())),
            *(line(domain, m, m.turns) for domain, m in sorted(self.per_domain.items())),
        ])


@dataclass
class _Tally:
    """One report row's running sums: its turns' BLEU statistics and entity
    recalls in corpus order, and its episodes' goal outcomes."""
    bleu: list[int] = field(default_factory=lambda: [0] * 10)
    recalls: list[float] = field(default_factory=list)
    turns: int = 0
    outcomes: list[tuple[bool, bool]] = field(default_factory=list)

    def add_turn(self, counts: tuple[int, ...], recall: float | None) -> None:
        self.bleu = [total + count for total, count in zip(self.bleu, counts)]
        if recall is not None:
            self.recalls.append(recall)
        self.turns += 1

    def row(self) -> DomainMetrics:
        return DomainMetrics(_corpus_bleu(self.bleu), _mean(self.recalls),
                             _mean([i for i, _ in self.outcomes]), _mean([s for _, s in self.outcomes]),
                             self.turns, len(self.outcomes))


def score_corpus(corpus: Corpus, generated: GeneratedMap) -> MetricReport:
    """Full report over generated responses keyed by (episode id, turn index).

    One pass reads each turn once: its BLEU statistics, its reply's
    placeholders and its entity recall go to its domain's row and to the
    overall one. Each goal domain of an episode is then judged from the
    placeholders of the episode's turns in that domain; the episode informs
    (succeeds) iff every goal domain does. Rows are in sorted domain order.
    ``Corpus.validate`` has checked that every goal domain is a schema domain.
    """
    overall, rows = _Tally(), {}
    informed = succeeded = 0
    for episode in corpus.episodes:
        emitted: dict[str, set[str]] = {}
        for index, turn in enumerate(episode.turns):
            reply = generated.get((episode.episode_id, index), ())
            said, wanted = extract_placeholders(reply), extract_placeholders(turn.system)
            counts = _bleu_counts(reply, turn.system)
            recall = len(wanted & said) / len(wanted) if wanted else None
            overall.add_turn(counts, recall)
            rows.setdefault(turn.domain, _Tally()).add_turn(counts, recall)
            emitted.setdefault(turn.domain, set()).update(said)
        judged = []
        for domain, goal in episode.goal.items():
            said = emitted.get(domain, set())
            inform = not goal.offer or (
                placeholder(domain, offer_slot(corpus.schemas[domain])) in said
                and bool(query_db(corpus.database, domain, goal.constraints)))
            judged.append((inform, inform and all(placeholder(domain, slot) in said for slot in goal.requested)))
            rows.setdefault(domain, _Tally()).outcomes.append(judged[-1])
        informed += all(i for i, _ in judged)
        succeeded += all(s for _, s in judged)
    return MetricReport(_corpus_bleu(overall.bleu), informed / len(corpus.episodes),
                        succeeded / len(corpus.episodes), _mean(overall.recalls),
                        {domain: rows[domain].row() for domain in sorted(rows)})
