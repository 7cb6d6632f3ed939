"""Metrics: BLEU vs a brute-force oracle, ER cases, Inform/Success fixtures."""

import math

import numpy as np
import pytest

from mtss.corpus import (
    Corpus,
    CorpusError,
    Database,
    DomainGoal,
    DomainSchema,
    EntityRecord,
    Episode,
    Turn,
)
from mtss.metrics import (
    bleu4,
    entity_recall,
    extract_placeholders,
    mean_entity_recall,
    offer_slot,
    score_corpus,
)


def brute_force_bleu(candidates, references):
    """Independent BLEU-4: enumerate every n-gram position and clip by
    per-reference occurrence counts, no Counter machinery shared with the
    implementation under test.
    """
    matched = [0.0] * 4
    total = [0.0] * 4
    c_len = r_len = 0
    for cand, ref in zip(candidates, references):
        cand = [t.lower() for t in cand]
        ref = [t.lower() for t in ref]
        c_len += len(cand)
        r_len += len(ref)
        for n in range(1, 5):
            grams = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
            ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
            total[n - 1] += len(grams)
            for gram in set(grams):
                matched[n - 1] += min(grams.count(gram), ref_grams.count(gram))
    if c_len == 0 or any(t == 0 for t in total) or any(m == 0 for m in matched):
        return 0.0
    geo = math.exp(sum(0.25 * math.log(matched[n] / total[n]) for n in range(4)))
    bp = 1.0 if c_len > r_len else math.exp(1 - r_len / c_len)
    return 100.0 * bp * geo


BLEU_FIXTURES = [
    (
        ["the cat sat on the mat".split()],
        ["the cat sat on the mat".split()],
    ),
    (
        ["the cat sat on the mat today".split()],
        ["the cat sat on the mat".split()],
    ),
    (
        ["a quick brown fox jumps over".split(), "hello world how are you".split()],
        ["the quick brown fox jumped over".split(), "hello there world how are you".split()],
    ),
    (
        ["short one".split(), "the restaurant serves cheap food in the north".split()],
        ["one short".split(), "the restaurant serves cheap thai food in the north".split()],
    ),
    (
        ["i recommend [restaurant_name] in the centre .".split(), "goodbye .".split()],
        ["i would recommend [restaurant_name] in the centre .".split(), "goodbye then .".split()],
    ),
]


class TestBleu:
    def test_identical_corpus_scores_100(self):
        cands = [["hello", "world"], ["a", "b", "c", "d", "e"]]
        assert bleu4(cands, cands) == pytest.approx(100.0)

    def test_zero_fourgram_overlap_scores_0(self):
        assert bleu4([["a", "b", "c", "d"]], [["w", "x", "y", "z"]]) == 0.0

    @pytest.mark.parametrize("idx", range(len(BLEU_FIXTURES)))
    def test_matches_brute_force_oracle(self, idx):
        cands, refs = BLEU_FIXTURES[idx]
        assert bleu4(cands, refs) == pytest.approx(brute_force_bleu(cands, refs), abs=1e-6)

    def test_permutation_invariance(self):
        cands, refs = BLEU_FIXTURES[2]
        direct = bleu4(cands, refs)
        assert bleu4(list(reversed(cands)), list(reversed(refs))) == pytest.approx(direct)

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError):
            bleu4([], [])

    def test_case_insensitive(self):
        assert bleu4([["Hello", "World", "Here", "Now"]], [["hello", "world", "here", "now"]]) == 100.0

    def test_random_corpora_agree_with_oracle(self):
        rng = np.random.default_rng(0)
        words = ["a", "b", "c", "d", "e", "f"]
        for _ in range(50):
            cands, refs = [], []
            for _ in range(rng.integers(1, 5)):
                cands.append(list(rng.choice(words, size=rng.integers(1, 9))))
                refs.append(list(rng.choice(words, size=rng.integers(1, 9))))
            assert bleu4(cands, refs) == pytest.approx(brute_force_bleu(cands, refs), abs=1e-6)


class TestEntityRecall:
    def test_half_recall(self):
        gold = "the [restaurant_name] number is [restaurant_phone]".split()
        gen = "call [restaurant_name] now".split()
        assert entity_recall(gen, gold) == 0.5

    def test_superset_scores_1(self):
        gold = ["[hotel_name]"]
        gen = "try [hotel_name] at [hotel_address]".split()
        assert entity_recall(gen, gold) == 1.0

    def test_gold_without_placeholders_excluded(self):
        assert entity_recall(["anything"], ["no", "entities", "here"]) is None
        assert mean_entity_recall([(["x"], ["y"])]) is None

    def test_mean_over_defined_turns_only(self):
        pairs = [
            (["[a_b]"], ["[a_b]"]),          # 1.0
            ([], ["[a_b]", "[a_c]"]),         # 0.0
            (["hi"], ["plain", "words"]),     # skipped
        ]
        assert mean_entity_recall(pairs) == 0.5

    def test_extract_placeholders(self):
        assert extract_placeholders("go to [hotel_name] now [bad".split()) == {"[hotel_name]"}


def fixture_corpus():
    schemas = {
        "restaurant": DomainSchema(
            "restaurant",
            informable={"area": ["north", "south"]},
            requestable=["name", "phone", "address"],
        ),
        "taxi": DomainSchema(
            "taxi",
            informable={"day": ["monday", "tuesday"]},
            requestable=["contact", "car"],
        ),
    }
    database = Database(
        {
            "restaurant": [
                EntityRecord("r0", {"area": "north", "name": "golden wok", "phone": "111", "address": "1 a st"}),
                EntityRecord("r1", {"area": "south", "name": "silver fork", "phone": "222", "address": "2 b st"}),
            ],
            "taxi": [EntityRecord("t0", {"day": "monday", "contact": "555", "car": "ford"})],
        }
    )

    def episode(eid, turns, goal):
        return Episode(eid, turns, goal)

    turns = [
        Turn("i want food in the north".split(), "i recommend [restaurant_name] .".split(),
             "restaurant", {"restaurant": {"area": "north"}}, ["[restaurant_name]"]),
        Turn("what is the phone ?".split(), "the phone is [restaurant_phone] .".split(),
             "restaurant", {"restaurant": {"area": "north"}}, ["[restaurant_phone]"]),
    ]
    goal = {"restaurant": DomainGoal({"area": "north"}, ["phone"], offer=True)}
    corpus = Corpus(schemas, database, [episode("ep", turns, goal)])
    return corpus


def inform_success(corpus, generated):
    """Episode-level (Inform, Success) of the full report."""
    report = score_corpus(corpus, generated)
    return report.inform, report.success


def generated_like_gold(corpus):
    return {
        (e.episode_id, i): list(t.system)
        for e in corpus.episodes
        for i, t in enumerate(e.turns)
    }


class TestInformSuccess:
    def test_offer_and_all_requests_give_1_1(self):
        corpus = fixture_corpus()
        assert inform_success(corpus, generated_like_gold(corpus)) == (1.0, 1.0)

    def test_missing_requested_placeholder_gives_1_0(self):
        corpus = fixture_corpus()
        generated = generated_like_gold(corpus)
        generated[("ep", 1)] = "i cannot help with that .".split()
        assert inform_success(corpus, generated) == (1.0, 0.0)

    def test_no_offer_gives_0_0(self):
        corpus = fixture_corpus()
        generated = {key: "i do not know .".split() for key in generated_like_gold(corpus)}
        assert inform_success(corpus, generated) == (0.0, 0.0)

    def test_offer_with_impossible_constraints_does_not_inform(self):
        corpus = fixture_corpus()
        corpus.episodes[0].goal["restaurant"].constraints = {"area": "moon"}
        assert inform_success(corpus, generated_like_gold(corpus)) == (0.0, 0.0)

    def test_unknown_goal_domain_errors(self):
        corpus = fixture_corpus()
        corpus.episodes[0].goal["cinema"] = DomainGoal({}, [], offer=True)
        with pytest.raises(CorpusError, match="unknown domain"):
            inform_success(corpus, generated_like_gold(corpus))

    def test_taxi_offer_uses_contact_placeholder(self):
        corpus = fixture_corpus()
        assert offer_slot(corpus.schemas["taxi"]) == "contact"
        assert offer_slot(corpus.schemas["restaurant"]) == "name"

    def test_success_never_exceeds_inform_randomized(self):
        corpus = fixture_corpus()
        rng = np.random.default_rng(1)
        vocab = ["[restaurant_name]", "[restaurant_phone]", "the", "is", "here", "."]
        for _ in range(100):
            generated = {
                key: list(rng.choice(vocab, size=rng.integers(0, 6)))
                for key in generated_like_gold(corpus)
            }
            inform, success = inform_success(corpus, generated)
            assert success <= inform


class TestScoreCorpus:
    def test_gold_responses_score_perfectly(self):
        corpus = fixture_corpus()
        report = score_corpus(corpus, generated_like_gold(corpus))
        assert report.bleu4 == pytest.approx(100.0)
        assert report.entity_recall == 1.0
        assert (report.inform, report.success) == (1.0, 1.0)
        assert report.per_domain["restaurant"].inform == 1.0
        assert report.per_domain["restaurant"].turns == 2

    def test_success_le_inform_in_report(self):
        corpus = fixture_corpus()
        generated = generated_like_gold(corpus)
        generated[("ep", 1)] = ["nothing"]
        report = score_corpus(corpus, generated)
        assert report.success <= report.inform

    def test_report_serializes_and_formats(self):
        corpus = fixture_corpus()
        report = score_corpus(corpus, generated_like_gold(corpus))
        doc = report.to_dict()
        assert doc["per_domain"]["restaurant"]["success"] == 1.0
        table = report.format_table()
        assert "overall" in table and "restaurant" in table
