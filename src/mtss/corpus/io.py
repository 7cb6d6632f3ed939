"""Corpus file format (JSON) and a reader for MultiWOZ-style data dumps."""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path
from typing import Callable, TypeVar

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

T = TypeVar("T")


def read_input(path: str | Path, parse: Callable[[str], T]) -> T:
    """``parse`` of the UTF-8 text of the file at ``path``.

    Every failure to read, decode, parse or check that file, ``CorpusError``
    included, is raised as one ``CorpusError`` that names the path once.
    """
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CorpusError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # UTF-8, JSON, CorpusError and other value checks
        raise CorpusError(f"{path}: {exc}") from exc
    except (LookupError, TypeError, AttributeError) as exc:
        raise CorpusError(f"{path}: malformed ({exc!r})") from exc


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
                    }
                    for t in e.turns
                ],
            }
            for e in corpus.episodes
        ],
    }


def _database_from_dict(doc: dict) -> Database:
    return Database(
        {
            domain: [EntityRecord(r["id"], r["values"]) for r in records]
            for domain, records in doc.get("database", {}).items()
        }
    )


def _schemas_from_dict(doc: dict) -> dict[str, DomainSchema]:
    return {name: DomainSchema(name, raw["informable"], raw["requestable"]) for name, raw in doc["schemas"].items()}


def _corpus_from_dict(doc: dict) -> Corpus:
    schemas = _schemas_from_dict(doc)
    database = _database_from_dict(doc)
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


def _read_corpus(path: str | Path) -> Corpus:
    return read_input(path, lambda text: _corpus_from_dict(json.loads(text)))


def _read_schemas(path: str | Path) -> dict[str, DomainSchema]:
    """The ``schemas`` object of the corpus-format file at ``path``, each
    schema checked; nothing else in the file is read."""

    def parse(text: str) -> dict[str, DomainSchema]:
        schemas = _schemas_from_dict(json.loads(text))
        Corpus(schemas, Database({}), []).validate()
        return schemas

    return read_input(path, parse)


def _read_database(path: str | Path) -> Database:
    """The ``database`` object of the corpus-format file at ``path``, its
    records checked; nothing else in the file is read."""

    def parse(text: str) -> Database:
        database = _database_from_dict(json.loads(text))
        Corpus({}, database, []).validate()
        return database

    return read_input(path, parse)


def _check_database_keys(path: str | Path, schemas: dict, database: Database) -> None:
    """Raise one ``CorpusError`` naming ``path``, the file holding ``database``,
    at the first schema domain without a key (an empty record list is one)."""
    for domain in schemas:
        if domain not in database.records:
            raise CorpusError(f"{path}: database has no key for schema domain {domain!r}")


def load_corpus(path: str | Path) -> Corpus:
    """The corpus in the file at ``path``, checked whole."""
    corpus = _read_corpus(path)
    _check_database_keys(path, corpus.schemas, corpus.database)
    return corpus


def load_schemas_and_database(
    schema_path: str | Path, database_path: str | Path
) -> tuple[dict[str, DomainSchema], Database]:
    """The ``schemas`` object of one corpus-format file and the ``database``
    object of another, or the same, as ``prepare --data`` pairs them; nothing
    else in either file is read. The database-key rule is checked for the
    pair, naming ``database_path``."""
    schemas, database = _read_schemas(schema_path), _read_database(database_path)
    _check_database_keys(database_path, schemas, database)
    return schemas, database


def save_vocab(vocab: Vocabulary, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps({"role": vocab.role, "tokens": vocab.tokens}, indent=1), encoding="utf-8"
    )


def load_vocab(path: str | Path) -> Vocabulary:
    return read_input(path, lambda text: Vocabulary(**json.loads(text)))


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
    for domain, block in metadata.items():
        domain = domain.lower()
        if domain not in schemas:
            continue
        for slot, value in block.get("semi", {}).items():
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


def _check_dialogue(dialogue_id: str, dialogue) -> None:
    """The dialogue, each log entry, and any goal, metadata and dialog_act
    must be JSON objects; the log must be a list, each text a string, each
    metadata block an object whose semi is an object, and each goal block's
    info an object and reqt a list of strings."""

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise CorpusError(f"dialogue {dialogue_id}: {what}")

    need(isinstance(dialogue, dict), "expected an object")
    need(isinstance(dialogue.get("goal", {}), dict), "goal must be an object")
    for domain, block in dialogue.get("goal", {}).items():
        if isinstance(block, dict):
            reqt = block.get("reqt") or []
            need(isinstance(block.get("info") or {}, dict), f"goal {domain}: info must be an object")
            need(isinstance(reqt, list) and all(isinstance(slot, str) for slot in reqt),
                 f"goal {domain}: reqt must be a list of slot names")
    need(isinstance(dialogue.get("log", []), list), "log must be a list")
    for k, entry in enumerate(dialogue.get("log", [])):
        need(isinstance(entry, dict), f"log entry {k} must be an object")
        need(isinstance(entry.get("text", ""), str), f"log entry {k}: text must be a string")
        for key in ("metadata", "dialog_act"):
            need(isinstance(entry.get(key, {}), dict), f"log entry {k}: {key} must be an object")
        for domain, block in entry.get("metadata", {}).items():
            need(isinstance(block, dict) and isinstance(block.get("semi", {}), dict),
                 f"log entry {k}: metadata {domain} must be an object whose semi is an object")


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
    test_ids = test_ids or set()
    return read_input(data_path, lambda text: _from_multiwoz(json.loads(text), schemas, database, test_ids))


def _from_multiwoz(raw, schemas: dict[str, DomainSchema], database: Database,
                   test_ids: set[str]) -> tuple[Corpus, Corpus, dict]:
    if not isinstance(raw, dict):
        raise CorpusError("expected an object keyed by dialogue id")
    delex = Delexicalizer(schemas, database)
    dropped: list = []
    train_eps, test_eps = [], []

    for dialogue_id in sorted(raw):
        dialogue = raw[dialogue_id]
        _check_dialogue(dialogue_id, dialogue)
        log_entries = dialogue.get("log", [])
        turns = []
        prev_belief: dict[str, dict[str, str]] = {}
        prev_domain = GENERAL_DOMAIN
        for k in range(0, len(log_entries) - 1, 2):
            user_entry, system_entry = log_entries[k], log_entries[k + 1]
            belief = _belief_from_metadata(system_entry.get("metadata", {}), schemas, dropped)
            domain = _act_domain(system_entry.get("dialog_act", {}), schemas)
            if domain is None:
                changed = [d for d in belief if belief.get(d) != prev_belief.get(d)]
                domain = sorted(changed)[0] if changed else None
            if domain is None:
                domain = prev_domain if prev_domain in schemas else GENERAL_DOMAIN
            turns.append(
                Turn(
                    user=delex(user_entry.get("text", "")),
                    system=delex(system_entry.get("text", "")),
                    domain=domain,
                    belief={d: dict(s) for d, s in belief.items()},
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
    return Corpus(schemas, database, train_eps), Corpus(schemas, database, test_eps), report
