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
        for slot, values in self.informable.items():
            if not values:
                raise CorpusError(f"{self.name}.{slot}: empty value set")
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

    def for_domain(self, domain: str) -> list[EntityRecord]:
        if domain not in self.records:
            raise CorpusError(f"unknown domain in database query: {domain!r}")
        return self.records[domain]


@dataclass
class Turn:
    """One exchange: delexicalized user and system token sequences.

    ``belief`` is cumulative up to and including this turn. ``placeholders``
    is the set of entity placeholders present in the gold system response.
    """

    user: list[str]
    system: list[str]
    domain: str
    belief: dict[str, dict[str, str]] = field(default_factory=dict)
    placeholders: list[str] = field(default_factory=list)


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
        domains = set(self.schemas)
        for episode in self.episodes:
            for domain in episode.goal:
                if domain not in domains:
                    raise CorpusError(f"{episode.episode_id}: goal domain {domain!r} not in schemas")
            for i, turn in enumerate(episode.turns):
                if turn.domain not in domains and turn.domain != GENERAL_DOMAIN:
                    raise CorpusError(
                        f"{episode.episode_id} turn {i}: domain tag {turn.domain!r} "
                        f"not in schemas or {GENERAL_DOMAIN!r}"
                    )


def query_db(database: Database, domain: str, constraints: dict[str, str]) -> list[EntityRecord]:
    """Entities of ``domain`` whose slots equal every constraint, by exact string match."""
    matches = []
    for record in database.for_domain(domain):
        if all(record.values.get(slot) == value for slot, value in constraints.items()):
            matches.append(record)
    return matches
