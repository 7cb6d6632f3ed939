"""Deterministic generator of small multi-domain corpora for desk-scale runs.

Episodes follow a goal: greet (sometimes), then per domain one or two
constraint turns ending in an entity offer, one request turn answering the
requested slots, and a closing general turn. System templates are paired
with the user template index so the gold response is a pure function of the
user utterance, the cumulative belief and the database match count; that
keeps the corpus memorizable under teacher forcing. All surface values are
globally unique strings so delexicalization is unambiguous.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from mtss.corpus import (
    GENERAL_DOMAIN,
    Corpus,
    Database,
    Delexicalizer,
    DomainGoal,
    DomainSchema,
    EntityRecord,
    Episode,
    Turn,
)
from mtss.corpus.types import query_db

DOMAIN_NAMES = ["restaurant", "hotel", "attraction", "train", "taxi", "hospital", "police"]
SLOT_NAMES = ["area", "price", "kind", "rating", "zone", "style"]
REQUESTABLE = ["name", "phone", "address"]

VALUE_WORDS = [
    "north", "south", "centre", "cheap", "moderate", "expensive", "italian", "chinese",
    "thai", "riverside", "downtown", "hillside", "budget", "standard", "luxury", "modern",
    "classic", "rustic", "east", "west", "village", "lively", "quiet", "cosy", "grand",
    "small", "sunny", "shaded", "urban", "coastal", "alpine", "royal", "ancient", "bright",
    "calm", "plush", "simple", "airy", "warm", "cool", "stellar", "minimal", "ornate",
    "breezy", "mellow", "vivid", "serene", "brisk", "noble", "quaint", "spry", "bold",
    "deft", "hale", "keen", "prim", "ripe", "sage", "tame", "wry",
]
NAME_ADJECTIVES = ["golden", "silver", "copper", "emerald", "ruby", "amber", "ivory", "jade",
                   "onyx", "pearl", "coral", "topaz"]
NAME_NOUNS = [
    "wok", "fork", "table", "spoon", "kettle", "lantern", "olive", "garden",
    "lodge", "manor", "inn", "court", "villa", "arms", "house", "retreat",
    "museum", "gallery", "tower", "park", "hall", "arch", "dome", "grove",
    "star", "bridge", "anchor", "harbor", "mill", "crown", "gate", "spring",
    "cedar", "maple", "willow", "aspen", "birch", "laurel", "hazel", "rowan",
    "finch", "heron", "swift", "wren", "crane", "raven", "plover", "teal",
    "cliff", "brook", "vale", "ridge", "glen", "moor", "fen", "heath",
]

GREET_USER = ["hello", "hi there", "good day"]
GREET_SYSTEM = [
    "hello . how can i help you ?",
    "hi . what can i do for you ?",
    "welcome . how may i assist ?",
]
INFORM_USER = [
    "i am looking for a {values} {domain}",
    "i need a {values} {domain}",
    "find me a {values} {domain}",
]
INFORM_MORE_USER = [
    "it should be {values}",
    "make it {values}",
    "i would prefer {values}",
]
COUNT_PHRASES = {
    0: "there are no matches .",
    1: "there is exactly one match .",
    2: "there are two matches .",
    3: "there are several matches .",
}
ACK_SYSTEM = [
    "{count} okay a {values} {domain} . anything else ?",
    "{count} noted a {values} {domain} . any other preference ?",
    "{count} sure a {values} {domain} . more requirements ?",
]
OFFER_SYSTEM = [
    "{count} i recommend {name} .",
    "{count} how about {name} ?",
    "{count} {name} would suit you .",
]
REQUEST_USER = [
    "what is the {slots} of the {domain} ?",
    "can you give me the {slots} of the {domain} ?",
    "tell me the {slots} of this {domain} please",
]
ANSWER_SYSTEM = [
    "{facts} .",
    "sure . {facts} .",
    "of course . {facts} .",
]
BYE_USER = ["thank you goodbye", "thanks bye", "that is all thank you"]
BYE_SYSTEM = [
    "you are welcome . goodbye",
    "happy to help . bye",
    "glad to help . goodbye",
]


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    domains: int = 3
    slots_per_domain: int = 3
    values_per_slot: int = 3
    entities_per_domain: int = 8
    train_episodes: int = 300
    test_episodes: int = 60
    max_turns: int = 6
    multi_domain_fraction: float = 0.3

    def validate(self) -> None:
        """Integer counts of at least 1, an integer seed of at least 0 and a
        fraction in [0, 1]; a bool is not a number here."""
        for name in ("seed", "domains", "slots_per_domain", "values_per_slot", "entities_per_domain",
                     "train_episodes", "test_episodes", "max_turns"):
            value, least = getattr(self, name), 0 if name == "seed" else 1
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        fraction = self.multi_domain_fraction
        if isinstance(fraction, bool) or not isinstance(fraction, (int, float)) or not 0 <= fraction <= 1:
            raise ValueError(f"multi_domain_fraction must lie in [0, 1], got {fraction!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def _domain_name(index: int) -> str:
    return DOMAIN_NAMES[index] if index < len(DOMAIN_NAMES) else f"domain{index}"


def build_schemas(config: SynthConfig) -> dict[str, DomainSchema]:
    schemas = {}
    value_cursor = 0
    for d in range(config.domains):
        informable = {}
        for s in range(config.slots_per_domain):
            slot = SLOT_NAMES[s] if s < len(SLOT_NAMES) else f"slot{s}"
            values = []
            for _ in range(config.values_per_slot):
                if value_cursor < len(VALUE_WORDS):
                    values.append(VALUE_WORDS[value_cursor])
                else:
                    values.append(f"value{value_cursor}")
                value_cursor += 1
            informable[slot] = values
        schemas[_domain_name(d)] = DomainSchema(_domain_name(d), informable, list(REQUESTABLE))
    return schemas


def build_database(config: SynthConfig, schemas: dict[str, DomainSchema]) -> Database:
    records: dict[str, list[EntityRecord]] = {}
    for d, domain in enumerate(sorted(schemas)):
        schema = schemas[domain]
        entities = []
        for i in range(config.entities_per_domain):
            adjective = NAME_ADJECTIVES[i % len(NAME_ADJECTIVES)]
            noun = NAME_NOUNS[(d * config.entities_per_domain + i) % len(NAME_NOUNS)]
            values = {"name": f"{adjective} {noun}",
                      "phone": f"0{d + 1}00555{i:02d}",
                      "address": f"{i + 1} {noun} lane"}
            for s, slot in enumerate(sorted(schema.informable)):
                pool = schema.informable[slot]
                values[slot] = pool[(i + s) % len(pool)]
            entities.append(EntityRecord(f"{domain}-{i}", values))
        records[domain] = entities
    return Database(records)


class _EpisodeBuilder:
    def __init__(self, corpus_ctx, rng: np.random.Generator, episode_id: str, config: SynthConfig):
        self.schemas, self.database, self.delex = corpus_ctx
        self.rng = rng
        self.episode_id = episode_id
        self.config = config
        self.belief: dict[str, dict[str, str]] = {}
        self.turns: list[Turn] = []
        self.goal: dict[str, DomainGoal] = {}

    def _emit(self, user: str, system: str, domain: str) -> None:
        user_tokens, _ = self.delex(user)
        system_tokens, placeholders = self.delex(system)
        belief_copy = {d: dict(slots) for d, slots in self.belief.items()}
        self.turns.append(Turn(user_tokens, system_tokens, domain, belief_copy, sorted(placeholders)))

    def _count_phrase(self, domain: str) -> str:
        constraints = self.belief.get(domain, {})
        matches = len(query_db(self.database, domain, constraints))
        return COUNT_PHRASES[min(matches, 3)]

    def _inform_turn(self, domain: str, slots: list[str], entity, first: bool, offer: bool) -> None:
        template = int(self.rng.integers(0, 3))
        values = " ".join(entity.values[slot] for slot in slots)
        user_pool = INFORM_USER if first else INFORM_MORE_USER
        user = user_pool[template].format(values=values, domain=domain)
        for slot in slots:
            self.belief.setdefault(domain, {})[slot] = entity.values[slot]
        if offer:
            system = OFFER_SYSTEM[template].format(
                count=self._count_phrase(domain), name=entity.values["name"]
            )
        else:
            system = ACK_SYSTEM[template].format(
                count=self._count_phrase(domain), values=values, domain=domain
            )
        self._emit(user, system, domain)

    def _request_turn(self, domain: str, slots: list[str], entity) -> None:
        template = int(self.rng.integers(0, 3))
        user = REQUEST_USER[template].format(slots=" and ".join(slots), domain=domain)
        facts = " and ".join(f"the {slot} is {entity.values[slot]}" for slot in slots)
        self._emit(user, ANSWER_SYSTEM[template].format(facts=facts), domain)

    def _general_turn(self, users, systems) -> None:
        template = int(self.rng.integers(0, 3))
        self._emit(users[template], systems[template], GENERAL_DOMAIN)

    def build(self) -> Episode:
        config, rng = self.config, self.rng
        domain_names = sorted(self.schemas)
        want_two = (
            len(domain_names) >= 2
            and config.max_turns >= 6
            and rng.random() < config.multi_domain_fraction
        )
        chosen = list(rng.choice(domain_names, size=2 if want_two else 1, replace=False))

        greet = config.max_turns >= 2 * len(chosen) + 2 and rng.random() < 0.6
        if greet:
            self._general_turn(GREET_USER, GREET_SYSTEM)

        budget = config.max_turns - len(self.turns) - 1  # keep room for the closing turn
        for domain in chosen:
            if budget < 2:
                break
            schema = self.schemas[domain]
            entity = self.database.records[domain][int(rng.integers(0, len(self.database.records[domain])))]
            slot_names = sorted(schema.informable)
            n_constraints = int(rng.integers(1, min(2, len(slot_names)) + 1))
            constraint_slots = sorted(
                rng.choice(slot_names, size=n_constraints, replace=False).tolist()
            )
            split_informs = n_constraints == 2 and budget >= 4 and rng.random() < 0.5
            if split_informs:
                self._inform_turn(domain, constraint_slots[:1], entity, first=True, offer=False)
                self._inform_turn(domain, constraint_slots[1:], entity, first=False, offer=True)
                budget -= 2
            else:
                self._inform_turn(domain, constraint_slots, entity, first=True, offer=True)
                budget -= 1
            n_requests = int(rng.integers(1, 3))
            requested = sorted(
                rng.choice(["phone", "address"], size=n_requests, replace=False).tolist()
            )
            self._request_turn(domain, requested, entity)
            budget -= 1
            self.goal[domain] = DomainGoal(
                constraints={slot: entity.values[slot] for slot in constraint_slots},
                requested=requested,
                offer=True,
            )

        self._general_turn(BYE_USER, BYE_SYSTEM)
        return Episode(self.episode_id, self.turns, self.goal)


def gen_corpus(config: SynthConfig) -> tuple[Corpus, Corpus]:
    """Generate (train, test) corpora sharing one schema set and database."""
    config.validate()
    schemas = build_schemas(config)
    database = build_database(config, schemas)
    delex = Delexicalizer(schemas, database)
    ctx = (schemas, database, delex)

    seeds = np.random.SeedSequence(config.seed).spawn(config.train_episodes + config.test_episodes)
    episodes = []
    for i, seed in enumerate(seeds):
        split, index = ("train", i) if i < config.train_episodes else ("test", i - config.train_episodes)
        builder = _EpisodeBuilder(ctx, np.random.default_rng(seed), f"{split}-{index:04d}", config)
        episodes.append(builder.build())

    train = Corpus(schemas, database, episodes[: config.train_episodes])
    test = Corpus(schemas, database, episodes[config.train_episodes:])
    train.validate()
    test.validate()
    return train, test

