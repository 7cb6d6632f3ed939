"""Token vocabularies with fixed reserved ids and frequency-based selection."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from mtss.corpus.types import Corpus, CorpusError

PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN = "<pad>", "<bos>", "<eos>", "<unk>"
RESERVED = [PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN]
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3

INPUT_MIN_FREQ = 5
OUTPUT_MAX_SIZE = 500


@dataclass
class Vocabulary:
    """Bijective token/id map over non-reserved tokens; reserved ids are stable."""

    role: str
    tokens: list[str]
    token_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.tokens[: len(RESERVED)] != RESERVED:
            raise CorpusError(f"{self.role} vocabulary must start with the reserved tokens")
        self.token_to_id = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.token_to_id) != len(self.tokens):
            raise CorpusError(f"{self.role} vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, utterance: Iterable[str]) -> list[int]:
        """BOS ... EOS id sequence, mapping out-of-vocabulary tokens to UNK."""
        ids = [BOS_ID]
        ids.extend(self.token_to_id.get(tok, UNK_ID) for tok in utterance)
        ids.append(EOS_ID)
        return ids

    def decode(self, ids: Iterable[int]) -> list[str]:
        """Tokens for the given ids, dropping PAD/BOS/EOS framing."""
        out = []
        for i in ids:
            if i in (PAD_ID, BOS_ID, EOS_ID):
                continue
            out.append(self.tokens[i])
        return out


def build_vocab(
    corpus: Corpus,
    role: str,
    min_freq: int = INPUT_MIN_FREQ,
    max_size: int = OUTPUT_MAX_SIZE,
) -> Vocabulary:
    """Input vocabularies keep tokens with frequency >= min_freq over all
    utterances; output vocabularies keep the max_size most frequent response
    tokens, ties broken lexicographically. Reserved token strings in the text
    are never kept as ordinary tokens: they already hold their fixed ids.
    """
    counts: Counter[str] = Counter()
    for episode in corpus.episodes:
        for turn in episode.turns:
            if role == "input":
                counts.update(turn.user)
            counts.update(turn.system)
    if not counts:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    for token in RESERVED:
        del counts[token]

    if role == "input":
        kept = sorted(
            (tok for tok, n in counts.items() if n >= min_freq),
            key=lambda tok: (-counts[tok], tok),
        )
    else:
        ranked = sorted(counts, key=lambda tok: (-counts[tok], tok))
        kept = ranked[: max(0, max_size - len(RESERVED))]
    return Vocabulary(role, RESERVED + kept)
