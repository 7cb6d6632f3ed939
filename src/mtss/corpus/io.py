"""Corpus file format (JSON) and a reader for MultiWOZ-style data dumps."""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path

from mtss.corpus.delex import Delexicalizer
from mtss.corpus.types import (
    GENERAL_DOMAIN,
    Corpus,
    CorpusError,
    Database,
    DomainGoal,
    DomainSchema,
    EntityRecord,
    Episode,
    Turn,
)
from mtss.corpus.vocab import Vocabulary

log = logging.getLogger(__name__)


def _corpus_to_dict(corpus: Corpus) -> dict:
    return {
        "schemas": {
            name: {"informable": s.informable, "requestable": s.requestable}
            for name, s in corpus.schemas.items()
        },
        "database": {
            domain: [{"id": r.entity_id, "values": r.values} for r in records]
            for domain, records in corpus.database.records.items()
        },
        "episodes": [
            {
                "id": e.episode_id,
                "goal": {
                    d: {"constraints": g.constraints, "requested": g.requested, "offer": g.offer}
                    for d, g in e.goal.items()
                },
                "turns": [
                    {
                        "user": " ".join(t.user),
                        "system": " ".join(t.system),
                        "domain": t.domain,
                        "belief": t.belief,
                        "placeholders": sorted(t.placeholders),
                    }
                    for t in e.turns
                ],
            }
            for e in corpus.episodes
        ],
    }


def _corpus_from_dict(doc: dict) -> Corpus:
    schemas = {
        name: DomainSchema(name, raw["informable"], raw["requestable"])
        for name, raw in doc["schemas"].items()
    }
    database = Database(
        {
            domain: [EntityRecord(r["id"], r["values"]) for r in records]
            for domain, records in doc.get("database", {}).items()
        }
    )
    episodes = []
    for raw in doc.get("episodes", []):
        goal = {
            d: DomainGoal(g.get("constraints", {}), g.get("requested", []), g.get("offer", True))
            for d, g in raw.get("goal", {}).items()
        }
        turns = [
            Turn(
                user=t["user"].split(),
                system=t["system"].split(),
                domain=t["domain"],
                belief=t.get("belief", {}),
                placeholders=t.get("placeholders", []),
            )
            for t in raw["turns"]
        ]
        episodes.append(Episode(raw["id"], turns, goal))
    corpus = Corpus(schemas, database, episodes)
    corpus.validate()
    return corpus


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(_corpus_to_dict(corpus), sort_keys=True, indent=1), encoding="utf-8"
    )


def load_corpus(path: str | Path) -> Corpus:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return _corpus_from_dict(doc)
    except (KeyError, TypeError, AttributeError, json.JSONDecodeError) as exc:
        raise CorpusError(f"{path}: malformed corpus file ({exc})") from exc


def save_vocab(vocab: Vocabulary, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps({"role": vocab.role, "tokens": vocab.tokens}, indent=1), encoding="utf-8"
    )


def load_vocab(path: str | Path) -> Vocabulary:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return Vocabulary(doc["role"], doc["tokens"])
    except (KeyError, TypeError, AttributeError, json.JSONDecodeError) as exc:
        raise CorpusError(f"{path}: malformed vocabulary file ({exc!r})") from exc


def schema_hash(schemas: dict[str, DomainSchema]) -> str:
    """Stable digest of the schema set, used to pair checkpoints with corpora."""
    doc = {
        name: {"informable": {k: sorted(v) for k, v in s.informable.items()},
               "requestable": sorted(s.requestable)}
        for name, s in schemas.items()
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()[:16]


# -- MultiWOZ-style input -----------------------------------------------------

_SKIP_BELIEF_VALUES = {"", "not mentioned", "none"}


def _act_domain(act_block, schemas: dict[str, DomainSchema]) -> str | None:
    """Majority schema domain among dialogue-act labels like 'Restaurant-Inform'.

    Pure general-* acts tag the turn as the generic domain; booking or other
    unknown labels leave the decision to later fallbacks.
    """
    if not isinstance(act_block, dict):
        return None
    votes: dict[str, int] = {}
    saw_general = False
    for label in act_block:
        domain = label.split("-")[0].lower()
        if domain in schemas:
            votes[domain] = votes.get(domain, 0) + 1
        elif domain == GENERAL_DOMAIN:
            saw_general = True
    if votes:
        return sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
    return GENERAL_DOMAIN if saw_general else None


def _belief_from_metadata(metadata, schemas: dict[str, DomainSchema], dropped: list) -> dict:
    belief: dict[str, dict[str, str]] = {}
    if not isinstance(metadata, dict):
        return belief
    for domain, block in metadata.items():
        domain = domain.lower()
        if domain not in schemas:
            continue
        semi = block.get("semi", {}) if isinstance(block, dict) else {}
        for slot, value in semi.items():
            slot = slot.lower()
            if not isinstance(value, str):
                continue
            value = value.lower().strip()
            if value in _SKIP_BELIEF_VALUES:
                continue
            if value in schemas[domain].informable.get(slot, []):
                belief.setdefault(domain, {})[slot] = value
            else:
                dropped.append((domain, slot, value))
    return belief


def read_multiwoz(
    data_path: str | Path,
    schemas: dict[str, DomainSchema],
    database: Database,
    test_ids: set[str] | None = None,
) -> tuple[Corpus, Corpus, dict]:
    """Normalize a MultiWOZ-style data.json into the corpus schema.

    Turn domain tags come from embedded dialog_act labels when present, then
    from the belief-state delta, then from the previous turn, else 'general'.
    Belief values missing from the schema are dropped and counted in the
    returned report.
    """
    raw = json.loads(Path(data_path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise CorpusError(f"{data_path}: expected an object keyed by dialogue id")
    delex = Delexicalizer(schemas, database)
    test_ids = test_ids or set()
    dropped: list = []
    train_eps, test_eps = [], []

    for dialogue_id in sorted(raw):
        dialogue = raw[dialogue_id]
        log_entries = dialogue.get("log", [])
        turns = []
        prev_belief: dict[str, dict[str, str]] = {}
        prev_domain = GENERAL_DOMAIN
        for k in range(0, len(log_entries) - 1, 2):
            user_entry, system_entry = log_entries[k], log_entries[k + 1]
            belief = _belief_from_metadata(system_entry.get("metadata", {}), schemas, dropped)
            domain = _act_domain(system_entry.get("dialog_act"), schemas)
            if domain is None:
                changed = [d for d in belief if belief.get(d) != prev_belief.get(d)]
                domain = sorted(changed)[0] if changed else None
            if domain is None:
                domain = prev_domain if prev_domain in schemas else GENERAL_DOMAIN
            user_tokens, _ = delex(user_entry.get("text", ""))
            system_tokens, placeholders = delex(system_entry.get("text", ""))
            turns.append(
                Turn(
                    user=user_tokens,
                    system=system_tokens,
                    domain=domain,
                    belief={d: dict(s) for d, s in belief.items()},
                    placeholders=sorted(placeholders),
                )
            )
            prev_belief = belief
            prev_domain = domain

        goal = {}
        for domain, block in dialogue.get("goal", {}).items():
            domain = domain.lower()
            if domain not in schemas or not isinstance(block, dict) or not block:
                continue
            info = {
                slot.lower(): str(value).lower()
                for slot, value in (block.get("info") or {}).items()
                if str(value).lower() in schemas[domain].informable.get(slot.lower(), [])
            }
            requested = [
                slot.lower()
                for slot in (block.get("reqt") or [])
                if slot.lower() in schemas[domain].requestable
            ]
            goal[domain] = DomainGoal(info, requested, offer=bool(block.get("info")))

        episode = Episode(dialogue_id, turns, goal)
        (test_eps if dialogue_id in test_ids else train_eps).append(episode)

    if dropped:
        log.warning("dropped %d belief entries not covered by the schemas", len(dropped))
    report = {"dropped_belief_entries": len(dropped)}
    train = Corpus(schemas, database, train_eps)
    test = Corpus(schemas, database, test_eps)
    train.validate()
    test.validate()
    return train, test, report
