"""Losses (hand-computed oracles), the teacher map, training loops, distillation wiring."""

import math

import numpy as np
import pytest

from mtss.corpus import build_vocab
from mtss.corpus.state import BeliefLayout, state_size
from mtss.corpus.types import (
    Corpus,
    Database,
    DomainGoal,
    DomainSchema,
    EntityRecord,
    Episode,
    Turn,
)
from mtss.diffnum import Tape, Tensor, grad_check_params
from mtss.models import ModelConfig, StudentModel, TeacherEnsemble, TeacherModel, ensemble_domains
from mtss.synthcorpus import SynthConfig, gen_corpus
from mtss import training
from mtss.training import (
    TrainingConfig,
    combined_loss,
    finetune_domain_teacher,
    kd_policy_loss,
    kd_text_loss,
    nll_loss,
    prepare_turns,
    split_train_val,
    train_student,
    train_teacher_ensemble,
    train_universal_teacher,
)

TINY = ModelConfig(embed_size=5, hidden_size=8)
FAST = TrainingConfig(
    epochs=2,
    teacher_epochs=2,
    finetune_epochs=1,
    lr=0.01,
    seed=0,
    model=TINY,
    max_decode_len=14,
)


def log_probs_from_rows(tape, rows):
    """(T, V) log-probabilities of the given probability rows."""
    return tape.log_softmax(Tensor(np.log(np.asarray(rows)), requires_grad=True))


def softmax(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_grad_via_probs(logits, targets):
    """Gradient of -sum(targets * log(softmax(logits))) w.r.t. the logits,
    chained through the probabilities as a softmax-then-log loss does.
    """
    s = softmax(logits)
    g = -targets / s
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


class TestNllLoss:
    def test_perfect_prediction_is_zero(self):
        tape = Tape()
        log_probs = log_probs_from_rows(tape, [[1 - 2e-16, 1e-16, 1e-16], [1e-16, 1 - 2e-16, 1e-16]])
        assert nll_loss(tape, log_probs, [0, 1]).item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_over_two_positions(self):
        tape = Tape()
        log_probs = log_probs_from_rows(tape, [[0.5, 0.5], [0.5, 0.5]])
        assert nll_loss(tape, log_probs, [0, 1]).item() == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_monotone_in_gold_probability(self):
        tape = Tape()
        low = nll_loss(tape, log_probs_from_rows(tape, [[0.3, 0.7]]), [0]).item()
        high = nll_loss(tape, log_probs_from_rows(tape, [[0.6, 0.4]]), [0]).item()
        assert high < low

    def test_extreme_logit_keeps_full_gradient(self):
        # The gold token sits 30 logits below the max: its probability is
        # ~1e-13, yet the loss is exact and the gradient is softmax - onehot.
        tape = Tape()
        logits = Tensor(np.array([[0.0, 30.0, 1.0]]), requires_grad=True)
        loss = nll_loss(tape, tape.log_softmax(logits), [0])
        tape.backward(loss)
        assert loss.item() == pytest.approx(30.0, rel=1e-12)
        assert logits.grad[0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert logits.grad[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < logits.grad[0, 2] < 1e-12

    def test_length_mismatch_errors(self):
        tape = Tape()
        with pytest.raises(ValueError, match="one distribution per gold position"):
            nll_loss(tape, log_probs_from_rows(tape, [[0.5, 0.5]]), [0, 1])


class TestGradientEquivalence:
    """Where no probability underflows, losses on log-probabilities have the
    gradient of the softmax-then-log formula."""

    @pytest.mark.parametrize("loss", ["nll", "kd_text"])
    def test_matches_softmax_then_log_reference(self, loss):
        rng = np.random.default_rng(31)
        for _ in range(20):
            logits = rng.normal(scale=3.0, size=(4, 6))
            assert softmax(logits).min() > 1e-12
            gold = rng.integers(0, 6, size=4)
            targets = np.eye(6)[gold] if loss == "nll" else rng.dirichlet(np.ones(6), size=4)
            tape = Tape()
            x = Tensor(logits, requires_grad=True)
            log_probs = tape.log_softmax(x)
            if loss == "nll":
                value = nll_loss(tape, log_probs, gold)
            else:
                value = kd_text_loss(tape, targets, log_probs)
            tape.backward(value)
            expected = -np.sum(targets * np.log(softmax(logits)))
            assert value.item() == pytest.approx(expected, rel=1e-12)
            np.testing.assert_allclose(x.grad, cross_entropy_grad_via_probs(logits, targets), rtol=1e-9, atol=0)


class TestKdTextLoss:
    def test_hand_computed_value(self):
        tape = Tape()
        student = log_probs_from_rows(tape, [[0.5, 0.5]])
        loss = kd_text_loss(tape, np.array([[0.9, 0.1]]), student)
        assert loss.item() == pytest.approx(math.log(2), abs=1e-12)

    def test_equals_entropy_when_student_matches_teacher(self):
        teacher = np.array([[0.2, 0.5, 0.3], [0.7, 0.2, 0.1]])
        tape = Tape()
        student = log_probs_from_rows(tape, teacher.tolist())
        expected = -np.sum(teacher * np.log(teacher))
        assert kd_text_loss(tape, teacher, student).item() == pytest.approx(expected, abs=1e-9)

    def test_one_hot_agreement_is_zero(self):
        tape = Tape()
        student = log_probs_from_rows(tape, [[1 - 1e-15, 1e-15]])
        loss = kd_text_loss(tape, np.array([[1.0, 0.0]]), student)
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_gibbs_inequality_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5), size=3)
            q = rng.dirichlet(np.ones(5), size=3)
            tape = Tape()
            student = log_probs_from_rows(tape, q.tolist())
            cross = kd_text_loss(tape, p, student).item()
            entropy = -np.sum(p * np.log(p))
            assert cross - entropy >= -1e-10

    def test_shape_mismatches_error(self):
        tape = Tape()
        student = log_probs_from_rows(tape, [[0.5, 0.5]])
        with pytest.raises(ValueError, match="position counts"):
            kd_text_loss(tape, np.array([[0.9, 0.1], [0.5, 0.5]]), student)
        with pytest.raises(ValueError, match="vocabulary widths"):
            kd_text_loss(tape, np.array([[0.5, 0.3, 0.2]]), student)

    def test_no_gradient_reaches_teacher_side(self):
        teacher = np.array([[0.9, 0.1]])
        tape = Tape()
        student = log_probs_from_rows(tape, [[0.4, 0.6]])
        loss = kd_text_loss(tape, teacher, student)
        tape.backward(loss)
        assert np.array_equal(teacher, [[0.9, 0.1]])


class TestKdPolicyLoss:
    def test_identical_vectors_zero(self):
        tape = Tape()
        action = Tensor(np.array([0.3, -0.4]), requires_grad=True)
        assert kd_policy_loss(tape, np.array([0.3, -0.4]), action).item() == 0.0

    def test_hand_computed_value(self):
        tape = Tape()
        action = Tensor(np.array([0.0, 1.0]), requires_grad=True)
        assert kd_policy_loss(tape, np.array([1.0, 0.0]), action).item() == 2.0

    def test_nonnegative_and_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.normal(size=4), rng.normal(size=4)
            tape = Tape()
            ab = kd_policy_loss(tape, a, Tensor(b, requires_grad=True)).item()
            ba = kd_policy_loss(tape, b, Tensor(a, requires_grad=True)).item()
            assert ab >= 0.0
            assert ab == pytest.approx(ba, abs=1e-12)

    def test_dimension_mismatch_errors(self):
        tape = Tape()
        with pytest.raises(ValueError, match="dimensions differ"):
            kd_policy_loss(tape, np.zeros(3), Tensor(np.zeros(2), requires_grad=True))


class TestCombinedLoss:
    def test_zero_weights_return_nll_bit_exactly(self):
        tape = Tape()
        j_nll = tape.sum(Tensor([1.234567], requires_grad=True))
        j_kd = tape.sum(Tensor([9.9]))
        total = combined_loss(tape, j_nll, j_kd, j_kd, 0.0, 0.0)
        assert total is j_nll

    def test_linear_combination_value(self):
        tape = Tape()
        one = lambda: tape.sum(Tensor([1.0]))
        total = combined_loss(tape, one(), one(), one(), 0.5, 0.25)
        assert total.item() == 1.75

    def test_default_weights(self):
        config = TrainingConfig()
        assert config.alpha1 == 0.005 and config.alpha2 == 0.005 and config.lr == 0.005

    def test_linearity_in_weights(self):
        tape = Tape()
        vals = (2.0, 3.0, 5.0)
        parts = [tape.sum(Tensor([v])) for v in vals]
        for a1, a2 in [(0.1, 0.2), (0.7, 0.0), (0.0, 1.3)]:
            total = combined_loss(tape, *parts, a1, a2).item()
            assert total == pytest.approx(vals[0] + a1 * vals[1] + a2 * vals[2], abs=1e-12)

    def test_negative_weights_rejected(self):
        tape = Tape()
        j = tape.sum(Tensor([1.0]))
        with pytest.raises(ValueError):
            combined_loss(tape, j, j, j, -0.1, 0.0)


@pytest.fixture(scope="module")
def tiny_world():
    config = SynthConfig(seed=5, train_episodes=12, test_episodes=4, entities_per_domain=4)
    train, test = gen_corpus(config)
    in_vocab = build_vocab(train, "input", min_freq=1)
    out_vocab = build_vocab(train, "output")
    return train, test, in_vocab, out_vocab


def prepared_split(corpus, in_vocab, out_vocab, config):
    """The prepared train and validation turns, as the ensemble makes them."""
    train_part, val_part = split_train_val(corpus, config.val_fraction)
    return prepare_turns(train_part, in_vocab, out_vocab), prepare_turns(val_part, in_vocab, out_vocab)


def universal_teacher(corpus, in_vocab, out_vocab, config):
    items, _ = prepared_split(corpus, in_vocab, out_vocab, config)
    return train_universal_teacher(items, in_vocab, out_vocab, state_size(corpus.schemas), config)


def finetune(universal, domain, corpus, in_vocab, out_vocab, config):
    items, val_items = prepared_split(corpus, in_vocab, out_vocab, config)
    return finetune_domain_teacher(
        universal, domain, sorted(corpus.schemas).index(domain),
        [i for i in items if i.domain == domain], [i for i in val_items if i.domain == domain],
        out_vocab, config,
    )


def tiny_ensemble(schemas, v_in=12, v_out=10):
    """An untrained ensemble: one teacher per schema domain plus the generic one."""
    state = state_size(schemas)
    teachers = {
        d: TeacherModel(TINY, v_in, v_out, state, domain=d, seed=i)
        for i, d in enumerate(ensemble_domains(schemas))
    }
    universal = TeacherModel(TINY, v_in, v_out, state, domain="all", seed=9)
    return TeacherEnsemble(teachers, universal)


class TestRouting:
    def test_tagged_domains_route_directly(self, tiny_world, monkeypatch):
        # Every turn, generic ones included, is distilled from the teacher of its own tag.
        train, _, in_vocab, out_vocab = tiny_world
        ensemble = tiny_ensemble(train.schemas, len(in_vocab), len(out_vocab))
        routed, targets = [], training._teacher_targets

        def recorded_targets(teacher, item):
            routed.append((teacher.domain, item.domain))
            return targets(teacher, item)

        monkeypatch.setattr(training, "_teacher_targets", recorded_targets)
        config = TrainingConfig(epochs=1, seed=0, model=TINY, select_best=False)
        train_student(train, ensemble, in_vocab, out_vocab, config)
        assert all(teacher == tag for teacher, tag in routed)
        assert {tag for _, tag in routed} == set(ensemble_domains(train.schemas))

    def test_missing_teacher_for_tagged_domain_errors(self, tiny_world):
        schemas = tiny_world[0].schemas
        ensemble = tiny_ensemble(schemas)
        ensemble.validate(schemas)
        del ensemble.teachers["hotel"]
        with pytest.raises(ValueError, match="no teacher for domain 'hotel'"):
            ensemble.validate(schemas)

    def test_teacher_for_unknown_domain_errors(self, tiny_world):
        schemas = tiny_world[0].schemas
        ensemble = tiny_ensemble(schemas)
        ensemble.teachers["weather"] = ensemble.teachers["general"]
        with pytest.raises(ValueError, match="'weather'"):
            ensemble.validate(schemas)


class TestTeacherTraining:
    def test_loss_decreases_and_is_deterministic(self, tiny_world):
        train, _, in_vocab, out_vocab = tiny_world
        config = TrainingConfig(teacher_epochs=3, lr=0.01, seed=1, model=TINY)
        model_a, stats = universal_teacher(train, in_vocab, out_vocab, config)
        assert stats[-1].nll < stats[0].nll
        model_b, _ = universal_teacher(train, in_vocab, out_vocab, config)
        assert model_a.param_bytes() == model_b.param_bytes()

    def test_zero_finetune_epochs_returns_universal_copy(self, tiny_world):
        train, _, in_vocab, out_vocab = tiny_world
        config = TrainingConfig(teacher_epochs=1, finetune_epochs=0, model=TINY, seed=1)
        universal, _ = universal_teacher(train, in_vocab, out_vocab, config)
        tuned, stats = finetune(universal, "restaurant", train, in_vocab, out_vocab, config)
        assert tuned.param_bytes() == universal.param_bytes()
        assert tuned.domain == "restaurant"
        assert stats == []

    def test_empty_bucket_warns_and_returns_universal(self, tiny_world, caplog):
        # A schema domain that no turn is tagged with gets an empty bucket.
        train, _, in_vocab, out_vocab = tiny_world
        schemas = dict(train.schemas)
        schemas["cinema"] = DomainSchema("cinema", {"genre": ["drama"]}, ["name"])
        database = Database({**train.database.records, "cinema": [
            EntityRecord("c0", {"genre": "drama", "name": "odeon hall", "phone": "1", "address": "x"})
        ]})
        widened = Corpus(schemas, database, train.episodes)
        config = TrainingConfig(teacher_epochs=1, finetune_epochs=1, model=TINY, seed=1)
        with caplog.at_level("WARNING"):
            ensemble, stats = train_teacher_ensemble(widened, in_vocab, out_vocab, config)
        assert "empty training bucket for domain 'cinema'" in caplog.text
        assert ensemble.teachers["cinema"].param_bytes() == ensemble.universal.param_bytes()
        assert ensemble.teachers["cinema"].domain == "cinema"
        assert stats["cinema"] == []

    def test_finetune_does_not_mutate_universal(self, tiny_world):
        train, _, in_vocab, out_vocab = tiny_world
        config = TrainingConfig(teacher_epochs=1, finetune_epochs=1, model=TINY, seed=1)
        universal, _ = universal_teacher(train, in_vocab, out_vocab, config)
        before = universal.param_bytes()
        finetune(universal, "restaurant", train, in_vocab, out_vocab, config)
        assert universal.param_bytes() == before

    def test_ensemble_has_domains_plus_general(self, tiny_world):
        train, _, in_vocab, out_vocab = tiny_world
        config = TrainingConfig(teacher_epochs=1, finetune_epochs=1, model=TINY, seed=2)
        ensemble, _ = train_teacher_ensemble(train, in_vocab, out_vocab, config)
        assert list(ensemble.teachers) == ensemble_domains(train.schemas) == sorted(train.schemas) + ["general"]
        ensemble.validate(train.schemas)

    def test_ensemble_prepares_each_split_once(self, tiny_world, monkeypatch):
        train, _, in_vocab, out_vocab = tiny_world
        calls = []
        prepare = training.prepare_turns

        def counted(corpus, *args):
            calls.append(len(corpus.episodes))
            return prepare(corpus, *args)

        monkeypatch.setattr(training, "prepare_turns", counted)
        config = TrainingConfig(teacher_epochs=1, finetune_epochs=1, model=TINY, seed=2)
        train_teacher_ensemble(train, in_vocab, out_vocab, config)
        train_part, val_part = split_train_val(train, config.val_fraction)
        assert calls == [len(train_part.episodes), len(val_part.episodes)]

    def test_ensemble_matches_teachers_trained_one_by_one(self, tiny_world):
        # Each domain teacher fine-tunes on its own bucket of the shared
        # prepared turns, with its own shuffling seed.
        train, _, in_vocab, out_vocab = tiny_world
        config = TrainingConfig(teacher_epochs=1, finetune_epochs=1, model=TINY, seed=2)
        ensemble, stats = train_teacher_ensemble(train, in_vocab, out_vocab, config)
        universal, _ = universal_teacher(train, in_vocab, out_vocab, config)
        assert universal.param_bytes() == ensemble.universal.param_bytes()
        for domain in sorted(train.schemas):
            tuned, tuned_stats = finetune(universal, domain, train, in_vocab, out_vocab, config)
            assert tuned.param_bytes() == ensemble.teachers[domain].param_bytes()
            assert [s.nll for s in tuned_stats] == [s.nll for s in stats[domain]]

    def test_unseen_domain_belief_columns_keep_initialization(self, tiny_world):
        # Two domains in the schema, corpus touching only one: the belief
        # columns of the untouched domain never see a gradient.
        train, _, in_vocab, out_vocab = tiny_world
        only = [
            e for e in train.episodes
            if set(e.goal) == {"restaurant"}
            and all(set(t.belief) <= {"restaurant"} for t in e.turns)
        ]
        assert only
        solo = Corpus(train.schemas, train.database, only)
        config = TrainingConfig(teacher_epochs=1, model=TINY, seed=4, val_fraction=0.0)
        model, _ = universal_teacher(solo, in_vocab, out_vocab, config)
        fresh = TeacherModel(
            TINY, len(in_vocab), len(out_vocab), state_size(train.schemas), domain="all",
            seed=int(np.random.default_rng([4, 0]).integers(2**31)),
        )
        layout = BeliefLayout(train.schemas)
        hidden = TINY.hidden_size
        for (domain, slot), (lo, hi) in layout.blocks.items():
            cols = slice(hidden + lo, hidden + hi)
            same = np.array_equal(
                model.params["policy_w"].data[:, cols], fresh.params["policy_w"].data[:, cols]
            )
            assert same == (domain != "restaurant")


class TestStudentTraining:
    def test_student_gradient_with_kd_terms_matches_fd(self):
        student = StudentModel(TINY, 12, 10, seed=3)
        teacher_probs = np.random.default_rng(0).dirichlet(np.ones(10), size=3)
        teacher_action = np.random.default_rng(1).uniform(-0.5, 0.5, TINY.hidden_size)
        history = [[1, 4, 2], [1, 5, 6, 2], [1, 7, 2]]
        gold = [1, 8, 9, 2]

        def f(tape):
            log_probs, action = student.respond_forced(tape, history, gold)
            j_nll = nll_loss(tape, log_probs, gold[1:])
            j_kd = kd_text_loss(tape, teacher_probs, log_probs)
            j_pi = kd_policy_loss(tape, teacher_action, action)
            return combined_loss(tape, j_nll, j_kd, j_pi, 0.4, 0.3)

        assert grad_check_params(f, student.parameter_list(), eps=1e-5) < 1e-4

    def test_loss_decreases_and_teachers_stay_frozen(self, tiny_world):
        train, _, in_vocab, out_vocab = tiny_world
        config = TrainingConfig(
            epochs=3, teacher_epochs=1, finetune_epochs=0, lr=0.01, seed=3,
            model=TINY, select_best=False,
        )
        ensemble, _ = train_teacher_ensemble(train, in_vocab, out_vocab, config)
        before = {d: t.param_bytes() for d, t in ensemble.teachers.items()}
        student, stats = train_student(train, ensemble, in_vocab, out_vocab, config)
        assert stats[-1].total < stats[0].total
        assert all(ensemble.teachers[d].param_bytes() == b for d, b in before.items())
        assert stats[0].kd_text > 0.0 and stats[0].kd_policy > 0.0

    def test_zero_weights_equal_plain_hred(self, tiny_world):
        # The distillation path must not perturb the baseline: with both
        # weights zero the run matches a student trained with no ensemble.
        train, _, in_vocab, out_vocab = tiny_world
        config = TrainingConfig(
            epochs=1, alpha1=0.0, alpha2=0.0, seed=5, model=TINY, select_best=False
        )
        ensemble = tiny_ensemble(train.schemas, len(in_vocab), len(out_vocab))
        student_a, stats = train_student(train, ensemble, in_vocab, out_vocab, config)
        student_b, _ = train_student(train, ensemble, in_vocab, out_vocab, config)
        assert student_a.param_bytes() == student_b.param_bytes()
        assert stats[0].kd_text == 0.0 and stats[0].kd_policy == 0.0
        assert stats[0].total == stats[0].nll

    def test_determinism_across_identical_runs(self, tiny_world):
        train, _, in_vocab, out_vocab = tiny_world
        config = TrainingConfig(
            epochs=2, teacher_epochs=1, finetune_epochs=1, seed=11, model=TINY
        )
        ensemble, _ = train_teacher_ensemble(train, in_vocab, out_vocab, config)
        student_a, _ = train_student(train, ensemble, in_vocab, out_vocab, config)
        student_b, _ = train_student(train, ensemble, in_vocab, out_vocab, config)
        assert student_a.param_bytes() == student_b.param_bytes()

    def test_teacher_cache_does_not_change_results(self, tiny_world, monkeypatch):
        # Targets are computed once per turn, and every epoch distils from
        # exactly what a fresh teacher forward gives.
        train, _, in_vocab, out_vocab = tiny_world
        ensemble = tiny_ensemble(train.schemas, len(in_vocab), len(out_vocab))
        computed, used = [], []
        targets, kd_text = training._teacher_targets, training.kd_text_loss

        def counted_targets(teacher, item):
            computed.append(item)
            return targets(teacher, item)

        def recorded_kd_text(tape, probs, log_probs):
            used.append(probs.tobytes())
            return kd_text(tape, probs, log_probs)

        monkeypatch.setattr(training, "_teacher_targets", counted_targets)
        monkeypatch.setattr(training, "kd_text_loss", recorded_kd_text)
        config = TrainingConfig(epochs=2, seed=6, model=TINY, select_best=False)
        train_student(train, ensemble, in_vocab, out_vocab, config)

        items = prepare_turns(split_train_val(train, config.val_fraction)[0], in_vocab, out_vocab)
        fresh = sorted(targets(ensemble.teachers[item.domain], item)[0].tobytes() for item in items)
        assert len(computed) == len(items)
        assert sorted(used[:len(items)]) == fresh and sorted(used[len(items):]) == fresh


class TestHelpers:
    def test_split_train_val_partitions_episodes(self, tiny_world):
        train, _, _, _ = tiny_world
        a, b = split_train_val(train, 0.25)
        assert len(a.episodes) + len(b.episodes) == len(train.episodes)
        assert {e.episode_id for e in a.episodes}.isdisjoint(e.episode_id for e in b.episodes)
        full, empty = split_train_val(train, 0.0)
        assert len(full.episodes) == len(train.episodes) and not empty.episodes

    def test_prepared_history_is_the_full_history(self, tiny_world):
        train, _, in_vocab, out_vocab = tiny_world
        items = prepare_turns(train, in_vocab, out_vocab)
        assert len(items) == sum(len(e.turns) for e in train.episodes)
        episodes = {e.episode_id: e for e in train.episodes}
        for item in items:
            turns = episodes[item.episode_id].turns
            history = []
            for past in turns[:item.turn_index]:
                history += [in_vocab.encode(past.user), in_vocab.encode(past.system)]
            history.append(in_vocab.encode(turns[item.turn_index].user))
            assert item.history_ids == history
            assert item.user_ids == history[-1]
            assert item.gold_ids == out_vocab.encode(turns[item.turn_index].system)
