"""Oracle dialogue state construction: belief vectors and DB match pointers.

The belief layout spans all domains (sorted), all informable slots (sorted),
all values (sorted), so every teacher shares one weight geometry and
out-of-domain blocks are simply zero.
"""

from __future__ import annotations

import numpy as np

from mtss.corpus.types import Database, DomainSchema, Turn, query_db

KB_BLOCK = 4  # match-count buckets 0, 1, 2, >=3


class BeliefLayout:
    """Deterministic flat indexing of (domain, slot, value) positions."""

    def __init__(self, schemas: dict[str, DomainSchema]):
        self.positions: dict[tuple[str, str, str], int] = {}
        self.blocks: dict[tuple[str, str], tuple[int, int]] = {}
        offset = 0
        for domain in sorted(schemas):
            schema = schemas[domain]
            for slot in sorted(schema.informable):
                values = sorted(schema.informable[slot])
                self.blocks[(domain, slot)] = (offset, offset + len(values))
                for value in values:
                    self.positions[(domain, slot, value)] = offset
                    offset += 1
        self.size = offset

    def build(self, belief: dict[str, dict[str, str]]) -> np.ndarray:
        vec = np.zeros(self.size)
        for domain, slots in belief.items():
            for slot, value in slots.items():
                vec[self.positions[(domain, slot, value)]] = 1.0
        return vec


def db_pointer(count: int) -> np.ndarray:
    """4-dim one-hot of an entity match count, saturating at the >=3 bucket."""
    vec = np.zeros(KB_BLOCK)
    vec[min(count, KB_BLOCK - 1)] = 1.0
    return vec


def kb_pointer_vector(
    schemas: dict[str, DomainSchema], database: Database, belief: dict[str, dict[str, str]]
) -> np.ndarray:
    """Concatenated per-domain match-count blocks under the belief's constraints.

    A domain without constraints counts all of its entities.
    """
    blocks = []
    for domain in sorted(schemas):
        constraints = {
            slot: value
            for slot, value in belief.get(domain, {}).items()
            if slot in schemas[domain].informable
        }
        blocks.append(db_pointer(len(query_db(database, domain, constraints))))
    return np.concatenate(blocks) if blocks else np.zeros(0)


def state_size(schemas: dict[str, DomainSchema]) -> int:
    return BeliefLayout(schemas).size + KB_BLOCK * len(schemas)


def turn_state(
    turn: Turn,
    schemas: dict[str, DomainSchema],
    database: Database,
    layout: BeliefLayout | None = None,
) -> np.ndarray:
    """Belief vector and DB pointer of one turn, concatenated."""
    layout = layout or BeliefLayout(schemas)
    return np.concatenate([layout.build(turn.belief), kb_pointer_vector(schemas, database, turn.belief)])
