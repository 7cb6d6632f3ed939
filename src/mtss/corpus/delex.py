"""Delexicalization: replace entity names and slot values with typed placeholders.

Matching is longest-first over whitespace tokens of the lowercased text;
ties at equal length break lexicographically on the placeholder name.
Placeholders have the form [domain_slot], so a second pass is a no-op.
"""

from __future__ import annotations

from mtss.corpus.types import Database, DomainSchema


def placeholder(domain: str, slot: str) -> str:
    return f"[{domain}_{slot}]"


class Delexicalizer:
    """Reusable matcher over the value surface forms of a schema set and database."""

    def __init__(self, schemas: dict[str, DomainSchema], database: Database):
        candidates: dict[tuple[str, ...], str] = {}

        def offer(value: str, tag: str) -> None:
            tokens = tuple(value.lower().split())
            if not tokens:
                return
            current = candidates.get(tokens)
            if current is None or tag < current:
                candidates[tokens] = tag

        for domain in sorted(schemas):
            schema = schemas[domain]
            for slot in sorted(schema.informable):
                for value in schema.informable[slot]:
                    offer(value, placeholder(domain, slot))
        for domain in sorted(database.records):
            for record in database.records[domain]:
                for slot, value in record.values.items():
                    offer(value, placeholder(domain, slot))

        self._by_first: dict[str, list[tuple[tuple[str, ...], str]]] = {}
        for tokens, tag in candidates.items():
            self._by_first.setdefault(tokens[0], []).append((tokens, tag))
        for entries in self._by_first.values():
            entries.sort(key=lambda item: (-len(item[0]), item[1]))

    def __call__(self, text: str) -> tuple[list[str], set[str]]:
        return self.with_matches(text)[:2]

    def with_matches(self, text: str) -> tuple[list[str], set[str], list[tuple[str, str]]]:
        """Delexicalize and also report (placeholder, matched surface form) pairs."""
        tokens = text.lower().split()
        out: list[str] = []
        seen: set[str] = set()
        matches: list[tuple[str, str]] = []
        i = 0
        while i < len(tokens):
            hit = None
            for cand, tag in self._by_first.get(tokens[i], ()):
                if tuple(tokens[i:i + len(cand)]) == cand:
                    hit = (cand, tag)
                    break
            if hit is None:
                out.append(tokens[i])
                i += 1
            else:
                cand, tag = hit
                out.append(tag)
                seen.add(tag)
                matches.append((tag, " ".join(cand)))
                i += len(cand)
        return out, seen, matches
