"""Corpus layer: delexicalization, oracle state vectors, vocabularies, IO."""

import json

import numpy as np
import pytest

from mtss.corpus import (
    BeliefLayout,
    Corpus,
    CorpusError,
    Database,
    Delexicalizer,
    DomainGoal,
    DomainSchema,
    EntityRecord,
    Episode,
    Turn,
    Vocabulary,
    build_vocab,
    db_pointer,
    kb_pointer_vector,
    load_corpus,
    query_db,
    read_multiwoz,
    save_corpus,
    schema_hash,
    state_size,
    turn_state,
)
from mtss.corpus.vocab import BOS_ID, EOS_ID, RESERVED, UNK_ID, UNK_TOKEN
from mtss.cli import _turns_per_domain


@pytest.fixture
def schemas():
    return {
        "restaurant": DomainSchema(
            "restaurant",
            informable={"area": ["north", "south", "centre"], "food": ["north indian", "thai", "pizza"]},
            requestable=["name", "phone"],
        ),
        "hotel": DomainSchema(
            "hotel",
            informable={"price": ["cheap", "expensive"]},
            requestable=["name", "address"],
        ),
    }


@pytest.fixture
def database(schemas):
    return Database(
        {
            "restaurant": [
                EntityRecord(
                    "restaurant-0",
                    {"area": "north", "food": "north indian", "name": "golden wok", "phone": "01223111"},
                ),
                EntityRecord(
                    "restaurant-1",
                    {"area": "south", "food": "thai", "name": "silver fork", "phone": "01223222"},
                ),
            ],
            "hotel": [
                EntityRecord("hotel-0", {"price": "cheap", "name": "mill lodge", "address": "12 mill lane"}),
            ],
        }
    )


def make_turn(user, system, domain, belief=None):
    return Turn(user.split(), system.split(), domain, belief or {})


@pytest.fixture
def corpus(schemas, database):
    episodes = [
        Episode(
            "ep-0",
            [
                make_turn("hello", "hello how can i help ?", "general"),
                make_turn(
                    "i want [restaurant_area] food",
                    "i recommend [restaurant_name] .",
                    "restaurant",
                    belief={"restaurant": {"area": "north"}},
                ),
                make_turn(
                    "what is the phone ?",
                    "the phone is [restaurant_phone] .",
                    "restaurant",
                    belief={"restaurant": {"area": "north"}},
                ),
            ],
            goal={"restaurant": DomainGoal({"area": "north"}, ["phone"], offer=True)},
        ),
        Episode(
            "ep-1",
            [
                make_turn(
                    "a [hotel_price] hotel please",
                    "how about [hotel_name] ?",
                    "hotel",
                    belief={"hotel": {"price": "cheap"}},
                ),
            ],
            goal={"hotel": DomainGoal({"price": "cheap"}, ["address"], offer=True)},
        ),
    ]
    return Corpus(schemas, database, episodes)


class TestDelexicalize:
    def test_direct_substitution(self, schemas, database):
        tokens, matches = Delexicalizer(schemas, database).with_matches("book the golden wok")
        assert tokens == ["book", "the", "[restaurant_name]"]
        assert matches == [("[restaurant_name]", "golden wok")]

    def test_no_db_values_pass_through(self, schemas, database):
        tokens, matches = Delexicalizer(schemas, database).with_matches("i would like something nice")
        assert tokens == "i would like something nice".split()
        assert matches == []

    def test_longest_match_wins(self, schemas, database):
        # "north indian" (food) must beat its prefix "north" (area).
        tokens, matches = Delexicalizer(schemas, database).with_matches("some north indian food")
        assert tokens == ["some", "[restaurant_food]", "food"]
        assert matches == [("[restaurant_food]", "north indian")]

    def test_longest_match_agrees_with_brute_force(self, schemas, database):
        delex = Delexicalizer(schemas, database)
        surface_forms = []
        for schema in schemas.values():
            for slot, values in schema.informable.items():
                surface_forms += [(v, schema.name, slot) for v in values]
        for domain, records in database.records.items():
            for rec in records:
                surface_forms += [(v, domain, s) for s, v in rec.values.items()]

        rng = np.random.default_rng(0)
        words = ["please", "find", "north", "indian", "cheap", "wok", "golden", "the"]
        for _ in range(200):
            text = " ".join(rng.choice(words, size=rng.integers(1, 8)))
            tokens = delex(text)
            # Brute force: at every position the longest matching surface form wins.
            raw = text.split()
            expected = []
            i = 0
            while i < len(raw):
                best = None
                for value, domain, slot in surface_forms:
                    vt = value.split()
                    if raw[i:i + len(vt)] == vt:
                        tag = f"[{domain}_{slot}]"
                        if best is None or len(vt) > len(best[0]) or (
                            len(vt) == len(best[0]) and tag < best[1]
                        ):
                            best = (vt, tag)
                if best is None:
                    expected.append(raw[i])
                    i += 1
                else:
                    expected.append(best[1])
                    i += len(best[0])
            assert tokens == expected

    def test_idempotent(self, schemas, database):
        once = Delexicalizer(schemas, database)("golden wok in the north")
        twice = Delexicalizer(schemas, database)(" ".join(once))
        assert once == twice


class TestBeliefVector:
    def test_empty_annotation_is_zero(self, schemas):
        layout = BeliefLayout(schemas)
        assert layout.build({}).sum() == 0.0
        assert layout.size == 3 + 3 + 2

    def test_single_slot_position(self, schemas):
        # Sorted layout: hotel.price block (2) precedes restaurant.area (3), restaurant.food (3).
        layout = BeliefLayout(schemas)
        vec = layout.build({"restaurant": {"area": "north"}})
        assert vec.sum() == 1.0
        assert vec[2 + 1] == 1.0  # area values sorted: centre, north, south

    def test_two_slots_two_ones(self, schemas):
        layout = BeliefLayout(schemas)
        vec = layout.build({"restaurant": {"area": "south"}, "hotel": {"price": "cheap"}})
        assert vec.sum() == 2.0

    def test_length_constant_for_fixed_schema(self, schemas):
        layout = BeliefLayout(schemas)
        total = sum(len(v) for s in schemas.values() for v in s.informable.values())
        assert layout.size == total
        for belief in ({}, {"hotel": {"price": "cheap"}}):
            assert layout.build(belief).shape == (total,)


class TestDbQueriesAndPointer:
    def test_empty_constraints_return_all(self, database):
        assert len(query_db(database, "restaurant", {})) == 2

    def test_single_match_brute_force(self, database):
        hits = query_db(database, "restaurant", {"area": "north", "food": "north indian"})
        expected = [
            r
            for r in database.records["restaurant"]
            if r.values["area"] == "north" and r.values["food"] == "north indian"
        ]
        assert hits == expected
        assert len(hits) == 1

    def test_contradictory_constraint_empty(self, database):
        assert query_db(database, "restaurant", {"area": "moon"}) == []

    def test_database_without_a_schema_domain_is_rejected(self, schemas, database, tmp_path):
        """Every schema domain needs a database key, so a query never meets
        an unknown domain; an empty record list is a key. The loader names
        the file."""
        path = tmp_path / "corpus.json"
        database.records["hotel"] = []
        save_corpus(Corpus(schemas, database, []), path)
        assert load_corpus(path).database.records["hotel"] == []
        del database.records["hotel"]
        save_corpus(Corpus(schemas, database, []), path)
        with pytest.raises(CorpusError, match=r"corpus\.json: database has no key for schema domain 'hotel'"):
            load_corpus(path)

    @pytest.mark.parametrize("count,hot", [(0, 0), (1, 1), (2, 2), (3, 3), (17, 3)])
    def test_db_pointer_positions(self, count, hot):
        vec = db_pointer(count)
        assert vec.shape == (4,)
        assert vec.sum() == 1.0
        assert vec[hot] == 1.0

    def test_db_pointer_exhaustive_0_to_10(self):
        for count in range(11):
            vec = db_pointer(count)
            assert vec.sum() == 1.0
            assert vec[min(count, 3)] == 1.0

    def test_kb_vector_blocks_match_query_counts(self, schemas, database):
        belief = {"restaurant": {"area": "north"}}
        vec = kb_pointer_vector(schemas, database, belief)
        # Domains sorted: hotel block first (1 entity), then restaurant (1 match).
        assert np.array_equal(vec[:4], db_pointer(1))
        assert np.array_equal(vec[4:], db_pointer(1))

    def test_turn_state_concatenates(self, schemas, database):
        turn = make_turn("x", "y", "restaurant", belief={"restaurant": {"area": "north"}})
        vec = turn_state(turn, schemas, database)
        assert vec.shape == (state_size(schemas),)
        assert vec.sum() == 1.0 + 2.0  # one belief bit + one pointer bit per domain


class TestSplitByDomain:
    """The per-domain turn counts that `mtss prepare` writes to split_report.json."""

    def test_buckets_by_tag(self, corpus):
        counts = _turns_per_domain(corpus)
        assert counts == {"restaurant": 2, "hotel": 1, "general": 1}
        assert list(counts) == ["restaurant", "hotel", "general"]  # schema order, then general

    def test_unknown_tag_is_rejected(self, schemas, database, tmp_path):
        corpus = Corpus(schemas, database, [Episode("e", [Turn(["x"], ["y"], "restaurant")])])
        save_corpus(corpus, tmp_path / "c.json")
        doc = json.loads((tmp_path / "c.json").read_text())
        doc["episodes"][0]["turns"][0]["domain"] = "weather"  # not a declared domain
        (tmp_path / "c.json").write_text(json.dumps(doc))
        with pytest.raises(CorpusError, match="'weather'"):
            load_corpus(tmp_path / "c.json")

    def test_partition_covers_corpus(self, corpus):
        counts = _turns_per_domain(corpus)
        assert sum(counts.values()) == sum(len(e.turns) for e in corpus.episodes)
        corpus.episodes = [corpus.episodes[1]]  # no restaurant or general turn left
        assert _turns_per_domain(corpus) == {"restaurant": 0, "hotel": 1, "general": 0}


class TestVocabulary:
    def make_corpus(self, sentences, schemas, database):
        turns = [make_turn(s, s, "general") for s in sentences]
        return Corpus(schemas, database, [Episode("e", turns)])

    def test_rare_tokens_map_to_unk(self, schemas, database):
        # Input counts cover user and system text; keep rareword at 4 total.
        turns = [make_turn("common words here", "resp", "general") for _ in range(5)]
        turns += [make_turn("rareword common", "resp", "general") for _ in range(4)]
        vocab = build_vocab(
            Corpus(schemas, database, [Episode("e", turns)]), "input"
        )
        assert "rareword" not in vocab.token_to_id
        ids = vocab.encode(["rareword", "common"])
        assert ids[1] == UNK_ID

    def test_output_vocab_capped(self, schemas, database):
        sentences = [f"tok{i} tok{i}" for i in range(700)]
        vocab = build_vocab(self.make_corpus(sentences, schemas, database), "output")
        assert len(vocab) <= 500

    def test_output_ties_break_lexicographically(self, schemas, database):
        corpus = self.make_corpus(["zebra apple zebra apple mango"], schemas, database)
        vocab = build_vocab(corpus, "output", max_size=6)
        # apple and zebra tie at 2; apple wins the first slot, mango (freq 1) drops.
        assert vocab.tokens == RESERVED + ["apple", "zebra"]

    def test_reserved_always_present(self, schemas, database):
        vocab = build_vocab(self.make_corpus(["hi"], schemas, database), "input")
        assert vocab.tokens[:4] == RESERVED

    @pytest.mark.parametrize("role", ["input", "output"])
    def test_reserved_strings_in_text_are_not_kept_twice(self, schemas, database, role):
        corpus = self.make_corpus(["<unk> <eos> hello <pad> <bos>"] * 5, schemas, database)
        vocab = build_vocab(corpus, role)
        assert vocab.tokens == RESERVED + ["hello"]
        assert vocab.encode(["<unk>", "hello"])[1:3] == [UNK_ID, len(RESERVED)]

    def test_empty_corpus_errors(self, schemas, database):
        with pytest.raises(CorpusError):
            build_vocab(Corpus(schemas, database, []), "input")

    def test_encode_empty_is_bos_eos(self):
        vocab = Vocabulary("input", RESERVED + ["hi"])
        assert vocab.encode([]) == [BOS_ID, EOS_ID]

    def test_round_trip_in_vocab(self):
        vocab = Vocabulary("input", RESERVED + ["hello", "there"])
        tokens = ["hello", "there", "hello"]
        assert vocab.decode(vocab.encode(tokens)) == tokens
        assert len(vocab.encode(tokens)) == len(tokens) + 2

    def test_oov_decodes_as_unk_token(self):
        vocab = Vocabulary("input", RESERVED + ["hello"])
        assert vocab.decode(vocab.encode(["hello", "martian"])) == ["hello", UNK_TOKEN]


class TestCorpusIO:
    def test_round_trip_lossless(self, corpus, tmp_path):
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    def test_a_file_with_turn_placeholders_still_loads(self, corpus, tmp_path):
        # Corpus files once listed each turn's gold placeholders; nothing reads them.
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        doc = json.loads(path.read_text())
        for episode in doc["episodes"]:
            for turn in episode["turns"]:
                turn["placeholders"] = sorted(t for t in turn["system"].split() if t.startswith("["))
        path.write_text(json.dumps(doc))
        assert load_corpus(path) == corpus

    def test_schema_hash_stable_and_sensitive(self, schemas):
        h1 = schema_hash(schemas)
        assert h1 == schema_hash(dict(reversed(list(schemas.items()))))
        changed = dict(schemas)
        changed["bar"] = DomainSchema("bar", {"drink": ["ale"]}, ["name"])
        assert schema_hash(changed) != h1

    def test_malformed_file_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"schemas\": 3}")
        with pytest.raises(CorpusError, match="malformed"):
            load_corpus(path)

    @pytest.mark.parametrize("edit,match", [
        (lambda doc: doc["episodes"][0]["turns"][1].update(belief={"restaurant": {"area": "mars"}}), "belief"),
        (lambda doc: doc["episodes"][0]["turns"][1].update(belief={"restaurant": {"name": "golden wok"}}),
         "belief"),
        (lambda doc: doc["episodes"][0]["turns"][1].update(belief={"bar": {"area": "north"}}), "belief"),
        (lambda doc: doc["episodes"][0]["turns"][1].update(belief={"restaurant": "north"}), "belief"),
        (lambda doc: doc["episodes"][0]["turns"][1].update(belief=["restaurant"]), "belief"),
        (lambda doc: doc["episodes"][0]["goal"]["restaurant"].update(constraints={"area": 3}), "goal"),
        (lambda doc: doc["episodes"][0]["goal"]["restaurant"].update(requested="phone"), "goal"),
        (lambda doc: doc["episodes"][0]["goal"].update(cinema={"constraints": {}, "requested": []}),
         "goal domain 'cinema' not in schemas"),
        (lambda doc: doc["database"]["hotel"][0].update(values={"price": ["cheap"]}), "hotel-0"),
    ], ids=["belief-value", "belief-slot-not-informable", "belief-domain", "belief-slots-not-an-object",
            "belief-not-an-object", "goal-constraint-not-a-string", "goal-requested-not-a-list",
            "goal-domain-off-the-schemas", "record-value-not-a-string"])
    def test_fields_the_models_read_are_checked(self, corpus, tmp_path, edit, match):
        path = tmp_path / "c.json"
        save_corpus(corpus, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CorpusError, match=match):
            load_corpus(path)


class TestMultiwozReader:
    def make_dump(self, tmp_path):
        doc = {
            "dlg001.json": {
                "goal": {"restaurant": {"info": {"area": "north"}, "reqt": ["phone"]}},
                "log": [
                    {"text": "i want north indian food in the north", "metadata": {}},
                    {
                        "text": "golden wok is a nice place",
                        "metadata": {"restaurant": {"semi": {"area": "north", "food": "north indian"}}},
                        "dialog_act": {"Restaurant-Recommend": [["Name", "golden wok"]]},
                    },
                    {"text": "thank you", "metadata": {}},
                    {
                        "text": "you are welcome",
                        "metadata": {"restaurant": {"semi": {"area": "north", "food": "north indian"}}},
                        "dialog_act": {"general-welcome": [["none", "none"]]},
                    },
                ],
            },
            "dlg002.json": {
                "goal": {"hotel": {"info": {"price": "cheap"}, "reqt": ["address"]}},
                "log": [
                    {"text": "a cheap hotel please", "metadata": {}},
                    {
                        "text": "mill lodge is cheap",
                        "metadata": {"hotel": {"semi": {"price": "cheap", "parking": "yes"}}},
                    },
                ],
            },
        }
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc))
        return path

    def test_normalizes_and_splits(self, schemas, database, tmp_path):
        path = self.make_dump(tmp_path)
        train, test, report = read_multiwoz(path, schemas, database, test_ids={"dlg002.json"})
        assert [e.episode_id for e in train.episodes] == ["dlg001.json"]
        assert [e.episode_id for e in test.episodes] == ["dlg002.json"]

        first = train.episodes[0].turns[0]
        assert first.domain == "restaurant"  # from the dialog_act label
        assert first.user == ["i", "want", "[restaurant_food]", "food", "in", "the", "[restaurant_area]"]
        assert "[restaurant_name]" in first.system
        assert first.belief == {"restaurant": {"area": "north", "food": "north indian"}}

        # Second turn has no belief change and a general act: falls back to general.
        assert train.episodes[0].turns[1].domain == "general"

        # Belief-delta fallback tags the hotel turn; off-schema 'parking' is dropped.
        hotel_turn = test.episodes[0].turns[0]
        assert hotel_turn.domain == "hotel"
        assert hotel_turn.belief == {"hotel": {"price": "cheap"}}
        assert report["dropped_belief_entries"] == 1

        goal = train.episodes[0].goal["restaurant"]
        assert goal.constraints == {"area": "north"} and goal.requested == ["phone"] and goal.offer
