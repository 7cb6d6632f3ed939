"""Core dialogue data types: schemas, database, turns, episodes, corpora."""

from __future__ import annotations

from dataclasses import dataclass, field

GENERAL_DOMAIN = "general"


class CorpusError(ValueError):
    """Invalid or inconsistent dialogue data."""


@dataclass
class DomainSchema:
    """Informable slots (with closed value sets) and requestable slots of one domain."""

    name: str
    informable: dict[str, list[str]]
    requestable: list[str]

    def __post_init__(self):
        if not self.name:
            raise CorpusError("domain name must be non-empty")
        if not isinstance(self.informable, dict):
            raise CorpusError(f"{self.name}: informable must map each slot to a list of values")
        for slot, values in self.informable.items():
            if not _string_list(values):
                raise CorpusError(f"{self.name}.{slot}: value set must be a list of strings")
            if not values:
                raise CorpusError(f"{self.name}.{slot}: empty value set")
        if not _string_list(self.requestable):
            raise CorpusError(f"{self.name}: requestable must be a list of strings")
        if len(set(self.requestable)) != len(self.requestable):
            raise CorpusError(f"{self.name}: duplicate requestable slots")


@dataclass
class EntityRecord:
    """One database entity: id plus a value for every schema slot."""

    entity_id: str
    values: dict[str, str]


@dataclass
class Database:
    """Per-domain entity records."""

    records: dict[str, list[EntityRecord]]


@dataclass
class Turn:
    """One exchange: delexicalized user and system token sequences.

    ``belief`` is cumulative up to and including this turn.
    """

    user: list[str]
    system: list[str]
    domain: str
    belief: dict[str, dict[str, str]] = field(default_factory=dict)


@dataclass
class DomainGoal:
    constraints: dict[str, str] = field(default_factory=dict)
    requested: list[str] = field(default_factory=list)
    offer: bool = True


@dataclass
class Episode:
    episode_id: str
    turns: list[Turn]
    goal: dict[str, DomainGoal] = field(default_factory=dict)


@dataclass
class Corpus:
    schemas: dict[str, DomainSchema]
    database: Database
    episodes: list[Episode]

    def validate(self) -> None:
        """Raise ``CorpusError`` at the first schema domain without slots,
        unknown domain tag, belief entry that is no informable value of its
        schema, or goal or record field of the wrong type."""
        for domain, schema in self.schemas.items():
            if not (schema.informable or schema.requestable):
                raise CorpusError(f"schema {domain!r} has no informable or requestable slots")
        for domain, records in self.database.records.items():
            for record in records:
                if not _strings(record.values):
                    raise CorpusError(f"database {domain} record {record.entity_id!r} has non-string values")
        for episode in self.episodes:
            for domain, goal in episode.goal.items():
                if domain not in self.schemas:
                    raise CorpusError(f"{episode.episode_id}: goal domain {domain!r} not in schemas")
                if not (_strings(goal.constraints) and isinstance(goal.requested, list)
                        and all(isinstance(slot, str) for slot in goal.requested)):
                    raise CorpusError(f"{episode.episode_id}: goal {domain} constraints or requested mistyped")
            for i, turn in enumerate(episode.turns):
                if turn.domain not in self.schemas and turn.domain != GENERAL_DOMAIN:
                    raise CorpusError(f"{episode.episode_id} turn {i}: domain tag {turn.domain!r} "
                                      f"not in schemas or {GENERAL_DOMAIN!r}")
                if not self._is_belief(turn.belief):
                    raise CorpusError(f"{episode.episode_id} turn {i}: belief {turn.belief!r} is off the schemas")

    def _is_belief(self, belief) -> bool:
        if not isinstance(belief, dict):
            return False
        for domain, slots in belief.items():
            if domain not in self.schemas or not isinstance(slots, dict):
                return False
            informable = self.schemas[domain].informable
            for slot, value in slots.items():
                if value not in informable.get(slot, ()):
                    return False
        return True


def _strings(doc) -> bool:
    return isinstance(doc, dict) and all(isinstance(v, str) for v in doc.values())


def _string_list(values) -> bool:
    return isinstance(values, list) and all(isinstance(v, str) for v in values)


def query_db(database: Database, domain: str, constraints: dict[str, str]) -> list[EntityRecord]:
    """Entities of ``domain`` whose slots equal every constraint, by exact
    string match. The corpus loaders ensure every schema domain has a key."""
    matches = []
    for record in database.records[domain]:
        if all(record.values.get(slot) == value for slot, value in constraints.items()):
            matches.append(record)
    return matches
