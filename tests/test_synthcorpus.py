"""Synthetic corpus generator: determinism, solvability, gold-metric guarantees."""

import json

import numpy as np
import pytest

from mtss.cli import _turns_per_domain
from mtss.corpus import build_vocab, load_corpus, save_corpus, turn_state
from mtss.corpus.state import BeliefLayout, db_pointer, kb_pointer_vector
from mtss.corpus.types import query_db
from mtss.metrics import score_corpus
from mtss.synthcorpus import SynthConfig, gen_corpus

SMALL = SynthConfig(seed=7, train_episodes=25, test_episodes=8)


@pytest.fixture(scope="module")
def small_corpora():
    return gen_corpus(SMALL)


def gold_responses(corpus):
    return {
        (e.episode_id, i): list(t.system)
        for e in corpus.episodes
        for i, t in enumerate(e.turns)
    }


class TestGeneration:
    def test_same_seed_byte_identical(self):
        from mtss.corpus.io import _corpus_to_dict

        a_train, a_test = gen_corpus(SMALL)
        b_train, b_test = gen_corpus(SMALL)
        for a, b in ((a_train, b_train), (a_test, b_test)):
            assert json.dumps(_corpus_to_dict(a), sort_keys=True) == json.dumps(
                _corpus_to_dict(b), sort_keys=True
            )

    def test_different_seed_differs(self):
        a, _ = gen_corpus(SMALL)
        b, _ = gen_corpus(SynthConfig(seed=8, train_episodes=25, test_episodes=8))
        assert a != b

    def test_counts_and_turn_bounds(self, small_corpora):
        train, test = small_corpora
        assert len(train.episodes) == SMALL.train_episodes
        assert len(test.episodes) == SMALL.test_episodes
        for episode in train.episodes + test.episodes:
            assert 1 <= len(episode.turns) <= SMALL.max_turns

    def test_gold_responses_score_perfect_inform_success(self, small_corpora):
        train, test = small_corpora
        for corpus in (train, test):
            report = score_corpus(corpus, gold_responses(corpus))
            assert (report.inform, report.success) == (1.0, 1.0)
            assert report.bleu4 == pytest.approx(100.0)
            assert report.entity_recall == 1.0

    def test_every_episode_is_solvable(self, small_corpora):
        train, test = small_corpora
        for corpus in (train, test):
            for episode in corpus.episodes:
                for domain, goal in episode.goal.items():
                    assert query_db(corpus.database, domain, goal.constraints)

    def test_domain_tags_and_general_turns_present(self, small_corpora):
        train, _ = small_corpora
        counts = _turns_per_domain(train)
        assert counts["general"] > 0
        assert sum(counts.values()) == sum(len(e.turns) for e in train.episodes)
        named = [d for d, n in counts.items() if d != "general" and n]
        assert len(named) == SMALL.domains

    def test_beliefs_are_cumulative_and_schema_valid(self, small_corpora):
        train, _ = small_corpora
        for episode in train.episodes:
            seen: dict = {}
            for turn in episode.turns:
                for domain, slots in seen.items():
                    for slot, value in slots.items():
                        assert turn.belief.get(domain, {}).get(slot) == value
                seen = turn.belief
                for domain, slots in turn.belief.items():
                    for slot, value in slots.items():
                        assert value in train.schemas[domain].informable[slot]

    def test_vocab_coverage_at_least_95_percent(self, small_corpora):
        train, _ = small_corpora
        vocab = build_vocab(train, "input")
        total = 0
        covered = 0
        for episode in train.episodes:
            for turn in episode.turns:
                for token in list(turn.user) + list(turn.system):
                    total += 1
                    covered += token in vocab.token_to_id
        assert covered / total >= 0.95

    def test_round_trips_through_corpus_format(self, small_corpora, tmp_path):
        train, _ = small_corpora
        path = tmp_path / "synth.json"
        save_corpus(train, path)
        assert load_corpus(path) == train

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(domains=0).validate()
        with pytest.raises(ValueError):
            SynthConfig(multi_domain_fraction=1.5).validate()

    def test_multi_domain_fraction_respected(self):
        train, _ = gen_corpus(SynthConfig(seed=3, train_episodes=60, test_episodes=1))
        multi = sum(1 for e in train.episodes if len(e.goal) == 2)
        assert 0 < multi < 60


def state_halves(episode, turn_index, schemas, database):
    """The (belief, pointer) halves of the turn's state vector."""
    state = turn_state(episode.turns[turn_index], schemas, database)
    size = BeliefLayout(schemas).size
    return state[:size], state[size:]


class TestOracleState:
    def test_zero_belief_before_any_constraint(self, small_corpora):
        train, _ = small_corpora
        episode = next(e for e in train.episodes if e.turns[0].domain == "general")
        belief_vec, pointer = state_halves(episode, 0, train.schemas, train.database)
        assert belief_vec.sum() == 0.0
        assert pointer.shape == (4 * SMALL.domains,)

    def test_one_hot_after_first_constraint(self, small_corpora):
        train, _ = small_corpora
        episode = next(e for e in train.episodes if e.turns[0].domain != "general")
        first = episode.turns[0]
        belief_vec, _ = state_halves(episode, 0, train.schemas, train.database)
        expected_bits = sum(len(slots) for slots in first.belief.values())
        assert belief_vec.sum() == expected_bits >= 1

    def test_pointer_blocks_match_query_counts(self, small_corpora):
        train, _ = small_corpora
        domains = sorted(train.schemas)
        for episode in train.episodes[:10]:
            for index, turn in enumerate(episode.turns):
                _, pointer = state_halves(episode, index, train.schemas, train.database)
                for d, domain in enumerate(domains):
                    count = len(query_db(train.database, domain, turn.belief.get(domain, {})))
                    assert np.array_equal(pointer[4 * d:4 * (d + 1)], db_pointer(count))

    def test_state_matches_turn_state_helper(self, small_corpora):
        train, _ = small_corpora
        episode = train.episodes[0]
        belief = episode.turns[0].belief
        belief_vec, pointer = state_halves(episode, 0, train.schemas, train.database)
        assert np.array_equal(belief_vec, BeliefLayout(train.schemas).build(belief))
        assert np.array_equal(pointer, kb_pointer_vector(train.schemas, train.database, belief))

    def test_out_of_range_index_errors(self, small_corpora):
        train, _ = small_corpora
        with pytest.raises(IndexError):
            state_halves(train.episodes[0], 99, train.schemas, train.database)
