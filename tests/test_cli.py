"""Command line: full tiny pipeline, manifests, exit codes, chat REPL."""

import copy
import gc
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import reference as ref
from helpers import count_context_steps, traced_peak, track_memos
from mtss import cli, models, training
from mtss.cli import (EXIT_DATA, EXIT_DIVERGED, EXIT_INTERRUPTED, EXIT_OK, EXIT_USAGE, build_parser, cmd_chat,
                      main)
from mtss.corpus import (Corpus, Database, Delexicalizer, DomainSchema, EntityRecord, Episode, Turn,
                         build_vocab, load_corpus, load_vocab, save_corpus, state_size)
from mtss.diffnum import load_checkpoint, save_checkpoint
from mtss.models import ModelConfig, StudentModel, TeacherModel, load_model
from mtss.synthcorpus import SynthConfig
from mtss.training import TrainingConfig, evaluate_model

TINY_TRAIN = {
    "model": {"embed_size": 6, "hidden_size": 8, "init_scale": 0.08},
    "epochs": 2,
    "teacher_epochs": 2,
    "finetune_epochs": 1,
    "lr": 0.02,
    "seed": 0,
    "max_decode_len": 14,
}

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SYNTH = {"seed": 7, "train_episodes": 14, "test_episodes": 5, "entities_per_domain": 4}

# Schemas and database of a one-domain MultiWOZ-style corpus.
MULTIWOZ_BASE = {
    "schemas": {
        "restaurant": {
            "informable": {"area": ["north", "south"]},
            "requestable": ["name", "phone", "address"],
        }
    },
    "database": {
        "restaurant": [
            {"id": "r0", "values": {"area": "north", "name": "golden wok",
                                    "phone": "111", "address": "1 elm lane"}}
        ]
    },
    "episodes": [],
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """prepare -> train-teachers -> train-student, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("runs")
    (root / "synth.json").write_text(json.dumps(SYNTH))
    (root / "train.json").write_text(json.dumps(TINY_TRAIN))
    assert main(["prepare", "--synth-config", str(root / "synth.json"),
                 "--out", str(root / "data")]) == EXIT_OK
    assert main(["train-teachers", "--data", str(root / "data"),
                 "--config", str(root / "train.json"),
                 "--out", str(root / "teachers")]) == EXIT_OK
    assert main(["train-student", "--data", str(root / "data"),
                 "--teachers", str(root / "teachers"),
                 "--config", str(root / "train.json"),
                 "--out", str(root / "student")]) == EXIT_OK
    return root


@pytest.fixture(scope="module")
def foreign(workspace, tmp_path_factory):
    """Data prepared from another seed (same schemas, other vocabularies) and
    untrained teachers saved on it."""
    root = tmp_path_factory.mktemp("foreign")
    (root / "synth.json").write_text(json.dumps(dict(SYNTH, seed=8)))
    (root / "train.json").write_text(json.dumps(dict(TINY_TRAIN, teacher_epochs=0, finetune_epochs=0)))
    assert main(["prepare", "--synth-config", str(root / "synth.json"), "--out", str(root / "data")]) == EXIT_OK
    assert main(["train-teachers", "--data", str(root / "data"), "--config", str(root / "train.json"),
                 "--out", str(root / "teachers")]) == EXIT_OK
    report, own = (json.loads((d / "data" / "split_report.json").read_text()) for d in (root, workspace))
    assert report["schema_hash"] == own["schema_hash"]
    for name in ("vocab_in.json", "vocab_out.json"):
        assert (root / "data" / name).read_text() != (workspace / "data" / name).read_text()
    return root


class TestPrepare:
    def test_outputs_and_report(self, workspace):
        data = workspace / "data"
        for name in ("corpus_train.json", "corpus_test.json", "vocab_in.json",
                     "vocab_out.json", "split_report.json", "prepare-manifest.json"):
            assert (data / name).exists()
        report = json.loads((data / "split_report.json").read_text())
        assert report["episodes"] == {"train": SYNTH["train_episodes"], "test": SYNTH["test_episodes"]}
        counts = report["turns_per_domain"]["train"]
        train = load_corpus(data / "corpus_train.json")
        assert sum(counts.values()) == sum(len(e.turns) for e in train.episodes)

    def test_deterministic_given_seed(self, workspace, tmp_path):
        again = tmp_path / "data2"
        assert main(["prepare", "--synth-config", str(workspace / "synth.json"),
                     "--out", str(again)]) == EXIT_OK
        for name in ("corpus_train.json", "vocab_in.json"):
            assert (again / name).read_text() == (workspace / "data" / name).read_text()

    def test_manifest_records_the_seed_used(self, workspace, tmp_path):
        manifest = json.loads((workspace / "data" / "prepare-manifest.json").read_text())
        assert manifest["seed"] == SYNTH["seed"] == manifest["config"]["synth"]["seed"]
        assert main(["prepare", "--synth-config", str(workspace / "synth.json"), "--seed", "9",
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "prepare-manifest.json").read_text())
        assert manifest["seed"] == 9 == manifest["config"]["synth"]["seed"]

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(["prepare", "--data", str(tmp_path / "nope.json"),
                     "--schemas", str(tmp_path / "s.json"),
                     "--database", str(tmp_path / "s.json"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA

    def test_multiwoz_route(self, tmp_path):
        (tmp_path / "base.json").write_text(json.dumps(MULTIWOZ_BASE))
        dump = {
            "d1.json": {
                "goal": {"restaurant": {"info": {"area": "north"}, "reqt": ["phone"]}},
                "log": [
                    {"text": "somewhere in the north please", "metadata": {}},
                    {"text": "golden wok works",
                     "metadata": {"restaurant": {"semi": {"area": "north"}}},
                     "dialog_act": {"Restaurant-Recommend": []}},
                ],
            },
            "d2.json": {
                "goal": {},
                "log": [
                    {"text": "hello", "metadata": {}},
                    {"text": "hi there", "metadata": {}, "dialog_act": {"general-greet": []}},
                ],
            },
        }
        (tmp_path / "data.json").write_text(json.dumps(dump))
        (tmp_path / "test_ids.txt").write_text("d2.json\n")
        out = tmp_path / "out"
        assert main(["prepare", "--data", str(tmp_path / "data.json"),
                     "--schemas", str(tmp_path / "base.json"),
                     "--database", str(tmp_path / "base.json"),
                     "--test-list", str(tmp_path / "test_ids.txt"),
                     "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "split_report.json").read_text())
        assert report["turns_per_domain"] == {"train": {"restaurant": 1, "general": 0},
                                              "test": {"restaurant": 0, "general": 1}}
        # Nothing is seeded on this route.
        assert json.loads((out / "prepare-manifest.json").read_text())["seed"] is None

    def test_multiwoz_schemas_file_needs_no_database(self, tmp_path):
        """The ``--schemas`` file's own database is never used, so a file of
        schemas alone pairs with a separate, complete ``--database`` file."""
        dump = {"d1.json": {"log": [{"text": "hello", "metadata": {}},
                                    {"text": "golden wok", "metadata": {}}]}}
        out = tmp_path / "out"
        assert main(["prepare", "--data", _write(tmp_path / "data.json", dump),
                     "--schemas", _write(tmp_path / "schemas.json", {"schemas": MULTIWOZ_BASE["schemas"]}),
                     "--database", _write(tmp_path / "database.json", MULTIWOZ_BASE),
                     "--out", str(out)]) == EXIT_OK
        train = load_corpus(out / "corpus_train.json")
        assert [r.entity_id for r in train.database.records["restaurant"]] == ["r0"]

    def test_multiwoz_database_file_needs_only_a_database(self, tmp_path):
        """Of the ``--database`` file only its ``database`` object is read."""
        argv = _multiwoz_prepare(tmp_path, {"d1.json": {"log": HELLO_LOG}})
        argv[argv.index("--database") + 1] = _write(tmp_path / "db.json", {"database": MULTIWOZ_BASE["database"]})
        assert main(argv) == EXIT_OK
        train = load_corpus(tmp_path / "out" / "corpus_train.json")
        assert [r.entity_id for r in train.database.records["restaurant"]] == ["r0"]

    def test_multiwoz_schemas_file_needs_only_schemas(self, tmp_path):
        """Of the ``--schemas`` file only its ``schemas`` object is read: an
        episode there without turns goes unread."""
        argv = _multiwoz_prepare(tmp_path, {"d1.json": {"log": HELLO_LOG}})
        argv[argv.index("--schemas") + 1] = _write(tmp_path / "schemas.json", {
            "schemas": MULTIWOZ_BASE["schemas"], "episodes": [{"id": "e0"}]})
        assert main(argv) == EXIT_OK
        assert list(load_corpus(tmp_path / "out" / "corpus_train.json").schemas) == ["restaurant"]


class TestTrainTeachers:
    def test_checkpoints_and_report(self, workspace):
        teachers = workspace / "teachers"
        ckpts = sorted(p.name for p in teachers.glob("*.ckpt"))
        assert "universal.ckpt" in ckpts
        # One per schema domain plus the generic teacher plus the universal base.
        assert len(ckpts) == SYNTH.get("domains", 3) + 2
        report = json.loads((teachers / "teacher_report.json").read_text())
        assert set(report) == {"restaurant", "hotel", "attraction", "general"}
        for row in report.values():
            assert "universal" in row and "individual" in row
        assert (teachers / "train-teachers-manifest.json").exists()

    def test_rerun_is_bit_identical(self, workspace, tmp_path):
        again = tmp_path / "teachers2"
        assert main(["train-teachers", "--data", str(workspace / "data"),
                     "--config", str(workspace / "train.json"),
                     "--out", str(again)]) == EXIT_OK
        for name in ("universal.ckpt", "teacher_general.ckpt"):
            assert (again / name).read_bytes() == (workspace / "teachers" / name).read_bytes()

    def test_report_decodes_each_test_turn_once_per_column(self, workspace, monkeypatch):
        data, max_len = workspace / "data", TINY_TRAIN["max_decode_len"]
        train, in_vocab, out_vocab = cli._load_prepared(data)
        test = load_corpus(data / "corpus_test.json")
        ensemble = cli.load_ensemble(workspace / "teachers", train.schemas, in_vocab, out_vocab,
                                     TrainingConfig.from_dict(TINY_TRAIN))
        decoded, decode = [], TeacherModel.decode_greedy

        def counted_decode(self, actions, *args):
            decoded.extend([self] * len(actions))
            return decode(self, actions, *args)

        monkeypatch.setattr(TeacherModel, "decode_greedy", counted_decode)
        rows = cli._teacher_report(ensemble, test, in_vocab, out_vocab, max_len)
        # One decoded row per test turn in each column: the universal
        # teacher's, then the turn's own teacher's.
        turns = [t for e in test.episodes for t in e.turns]
        assert Counter(map(id, decoded)) == Counter(
            [id(ensemble.universal)] * len(turns) + [id(ensemble.teachers[t.domain]) for t in turns])
        assert rows == json.loads((workspace / "teachers" / "teacher_report.json").read_text())
        # Reference: each teacher decodes the episodes that carry its domain.
        for domain, teacher in ensemble.teachers.items():
            bucket = [e for e in test.episodes if any(t.domain == domain for t in e.turns)]
            report, _ = evaluate_model(teacher, Corpus(test.schemas, test.database, bucket),
                                       in_vocab, out_vocab, max_len)
            m = report.per_domain[domain]
            recall = None if m.entity_recall is None else 100.0 * m.entity_recall
            assert rows[domain]["individual"] == {"bleu4": m.bleu4, "entity_recall": recall}
        no_hotel = [e for e in test.episodes if all(t.domain != "hotel" for t in e.turns)]
        rows = cli._teacher_report(ensemble, Corpus(test.schemas, test.database, no_hotel),
                                   in_vocab, out_vocab, max_len)
        assert rows["hotel"]["universal"] == rows["hotel"]["individual"] == {"bleu4": None, "entity_recall": None}

    def test_report_prepares_the_test_split_once(self, workspace, monkeypatch):
        data = workspace / "data"
        train, in_vocab, out_vocab = cli._load_prepared(data)
        test = load_corpus(data / "corpus_test.json")
        ensemble = cli.load_ensemble(workspace / "teachers", train.schemas, in_vocab, out_vocab,
                                     TrainingConfig.from_dict(TINY_TRAIN))
        prepared, prepare_turns = [], cli.prepare_turns

        def counted(corpus, *args):
            prepared.append(corpus)
            return prepare_turns(corpus, *args)

        monkeypatch.setattr(cli, "prepare_turns", counted)
        rows = cli._teacher_report(ensemble, test, in_vocab, out_vocab, TINY_TRAIN["max_decode_len"])
        assert prepared == [test]
        assert rows == json.loads((workspace / "teachers" / "teacher_report.json").read_text())


class TestTrainStudent:
    def test_checkpoint_and_loss_log(self, workspace):
        student_dir = workspace / "student"
        assert (student_dir / "student.ckpt").exists()
        lines = [json.loads(l) for l in (student_dir / "student_log.jsonl").read_text().splitlines()]
        student_lines = [l for l in lines if l["model"] == "student"]
        assert len(student_lines) == TINY_TRAIN["epochs"]
        for line in student_lines:
            for key in ("nll", "kd_text", "kd_policy", "total"):
                assert key in line

    @pytest.mark.parametrize("command", ["train-student", "sweep"])
    def test_teachers_on_other_vocabularies_are_data_error(self, workspace, foreign, tmp_path, capsys,
                                                           monkeypatch, command):
        monkeypatch.setattr(cli, "SWEEP_GRID", [(0.005, 0.005)])
        code = main([command, "--data", str(workspace / "data"), "--teachers", str(foreign / "teachers"),
                     "--config", str(workspace / "train.json"), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert len(err.strip().splitlines()) == 1 and "vocabularies" in err

    def test_the_ensemble_is_freed_before_the_student_trains(self, workspace, tmp_path, monkeypatch):
        """By the time the student's optimizer is built, the ensemble that
        ``_train_and_save`` loaded and each of its teachers are gone, with
        the cycle collector off, and the checkpoint is train-student's."""
        refs, alive = [], []
        load = cli.load_ensemble

        def tracked(*args):
            ensemble = load(*args)
            refs.extend(weakref.ref(m) for m in [ensemble, ensemble.universal, *ensemble.teachers.values()])
            return ensemble

        class CheckedAdam(training.Adam):
            def __init__(self, *args, **kwargs):
                alive.append(sum(ref() is not None for ref in refs))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "load_ensemble", tracked)
        monkeypatch.setattr(training, "Adam", CheckedAdam)
        config = TrainingConfig.from_dict(TINY_TRAIN)
        gc.disable()
        try:
            cli._train_and_save(workspace / "data", workspace / "teachers", config, tmp_path / "student.ckpt")
        finally:
            gc.enable()
        assert len(refs) == 6 and alive == [0]
        assert (tmp_path / "student.ckpt").read_bytes() == (workspace / "student" / "student.ckpt").read_bytes()

    @pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "2"])
    def test_sweep_cell_matches_train_student(self, workspace, tmp_path, monkeypatch, threads):
        """Sequential or in a process pool, a sweep cell's checkpoint is the
        train-student one byte for byte."""
        monkeypatch.setattr(cli, "SWEEP_GRID", [(0.005, 0.005), (0.0, 0.0)])
        if threads is None:
            monkeypatch.delenv("MTSS_THREADS", raising=False)
        else:
            monkeypatch.setenv("MTSS_THREADS", threads)
        out = tmp_path / "sweep"
        assert main(["sweep", "--data", str(workspace / "data"), "--teachers", str(workspace / "teachers"),
                     "--config", str(workspace / "train.json"), "--out", str(out)]) == EXIT_OK
        rows = json.loads((out / "sweep_results.json").read_text())
        assert [(r["alpha1"], r["alpha2"]) for r in rows] == cli.SWEEP_GRID
        cell = Path(rows[0]["checkpoint"])
        assert cell.read_bytes() == (workspace / "student" / "student.ckpt").read_bytes()
        assert Path(rows[1]["checkpoint"]).read_bytes() != cell.read_bytes()

    @pytest.mark.parametrize("threads", ["abc", "0", "-2", ""])
    def test_threads_must_be_a_positive_integer(self, workspace, tmp_path, monkeypatch, capsys, threads):
        monkeypatch.setattr(cli, "SWEEP_GRID", [(0.0, 0.0)])
        monkeypatch.setenv("MTSS_THREADS", threads)
        code = main(["sweep", "--data", str(workspace / "data"), "--teachers", str(workspace / "teachers"),
                     "--config", str(workspace / "train.json"), "--out", str(tmp_path / "sweep")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert len(err.strip().splitlines()) == 1 and "MTSS_THREADS" in err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("alpha2,expected", [(0.005, EXIT_USAGE), (0.0, EXIT_OK)])
    def test_a_student_of_another_hidden_size_needs_alpha2_zero(self, workspace, tmp_path, capsys, monkeypatch,
                                                              alpha2, expected):
        """J_KD_pi pulls the student's action toward its teacher's, so with
        alpha2 > 0 a student whose hidden size is not the teachers' is one
        usage line, before any teacher target is computed. With alpha2 = 0
        it trains, distilling the text-level targets only."""
        computed, targets = [], training._teacher_targets
        monkeypatch.setattr(training, "_teacher_targets", lambda *args: computed.append(args) or targets(*args))
        config = {**TINY_TRAIN, "epochs": 1, "alpha1": 0.005, "alpha2": alpha2,
                  "model": {**TINY_TRAIN["model"], "hidden_size": 12}}
        out = tmp_path / "out"
        code = main(["train-student", "--data", str(workspace / "data"), "--teachers", str(workspace / "teachers"),
                     "--config", _write(tmp_path / "train.json", config), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == expected
        if expected == EXIT_USAGE:
            assert len(err.strip().splitlines()) == 1 and "hidden_size is 12" in err and "have 8" in err
            assert not computed and not (out / "student.ckpt").exists()
        else:
            assert not err and computed
            assert load_model(out / "student.ckpt")[0].config.hidden_size == 12

    def test_missing_teachers_is_data_error(self, workspace, tmp_path):
        code = main(["train-student", "--data", str(workspace / "data"),
                     "--teachers", str(tmp_path / "empty"),
                     "--out", str(tmp_path / "s")])
        assert code == EXIT_DATA


class TestEvaluate:
    def test_student_evaluation_report(self, workspace, capsys):
        out = workspace / "eval"
        assert main(["evaluate", "--model", str(workspace / "student" / "student.ckpt"),
                     "--data", str(workspace / "data"), "--split", "test",
                     "--max-len", "14", "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "overall" in printed
        report = json.loads((out / "report.json").read_text())
        assert report["success"] <= report["inform"] + 1e-12
        assert "restaurant" in report["per_domain"]
        assert (out / "generated.jsonl").exists()
        # Nothing is seeded: greedy decoding of a fixed checkpoint.
        assert json.loads((out / "evaluate-manifest.json").read_text())["seed"] is None

    def test_generations_file_round_trip(self, workspace, tmp_path):
        # Scoring the gold responses through the line-delimited input gives
        # perfect inform/success on the synthetic corpus.
        corpus = load_corpus(workspace / "data" / "corpus_test.json")
        path = tmp_path / "gold.jsonl"
        with open(path, "w") as fh:
            for episode in corpus.episodes:
                for i, turn in enumerate(episode.turns):
                    fh.write(json.dumps({
                        "episode": episode.episode_id, "turn": i,
                        "response": " ".join(turn.system),
                    }) + "\n")
        out = tmp_path / "eval"
        assert main(["evaluate", "--generations", str(path),
                     "--data", str(workspace / "data"), "--split", "test",
                     "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["bleu4"] == pytest.approx(100.0)
        assert report["inform"] == 1.0 and report["success"] == 1.0

    def test_schema_mismatch_is_data_error(self, workspace, tmp_path):
        other = tmp_path / "other"
        synth = dict(SYNTH, domains=2)
        (tmp_path / "synth2.json").write_text(json.dumps(synth))
        assert main(["prepare", "--synth-config", str(tmp_path / "synth2.json"),
                     "--out", str(other)]) == EXIT_OK
        code = main(["evaluate", "--model", str(workspace / "student" / "student.ckpt"),
                     "--data", str(other)])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("vocabularies", ["other", "none"])
    def test_vocabularies_come_from_the_checkpoint(self, workspace, foreign, tmp_path, vocabularies):
        data = tmp_path / "data"
        data.mkdir()
        shutil.copy(workspace / "data" / "corpus_test.json", data)
        if vocabularies == "other":
            for name in ("vocab_in.json", "vocab_out.json"):
                shutil.copy(foreign / "data" / name, data)
        outputs = []
        for data_dir, out in ((workspace / "data", tmp_path / "own"), (data, tmp_path / "other")):
            assert main(["evaluate", "--model", str(workspace / "student" / "student.ckpt"),
                         "--data", str(data_dir), "--max-len", "14", "--out", str(out)]) == EXIT_OK
            outputs.append((out / "generated.jsonl").read_text())
        assert outputs[0] == outputs[1]

    def test_needs_model_or_generations(self, workspace):
        assert main(["evaluate", "--data", str(workspace / "data")]) == EXIT_USAGE

    def test_report_does_not_depend_on_the_hash_seed(self, workspace, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        reports = set()
        for seed in range(4):
            out = tmp_path / f"eval{seed}"
            env = {**os.environ, "PYTHONHASHSEED": str(seed),
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run([sys.executable, "-m", "mtss.cli", "evaluate",
                            "--model", str(workspace / "student" / "student.ckpt"),
                            "--data", str(workspace / "data"), "--max-len", "14", "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=120)
            reports.add((out / "report.json").read_bytes())
        assert len(reports) == 1


def _checkpoint_bytes(manifest: dict) -> bytes:
    doc = json.dumps(manifest).encode()
    return b"MTSSCKP1" + len(doc).to_bytes(8, "little") + doc


@pytest.mark.parametrize("command", ["chat", "evaluate"])
@pytest.mark.parametrize("content", [
    b"junk", b"MTSSCKP1", b"MTSSCKP1" + b"\x05" + bytes(7) + b"{bad}",
    _checkpoint_bytes({"meta": {"x": 1}, "tensors": []}),
    _checkpoint_bytes({"meta": {"kind": "student", "config": {"bogus": 1}, "in_vocab_size": 5,
                                "out_vocab_size": 5}, "tensors": []}),
    _checkpoint_bytes({"meta": {"kind": "student"}}),
], ids=["not-a-checkpoint", "short-header", "bad-manifest", "meta-without-config",
        "config-unknown-key", "manifest-without-tensors"])
def test_malformed_checkpoint_is_data_error(workspace, tmp_path, capsys, command, content):
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(content)
    data = workspace / "data" / ("corpus_train.json" if command == "chat" else "")
    code = main([command, "--model", str(junk), "--data", str(data)])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def _write(path, doc) -> str:
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


NOT_UTF8 = b'{"\xff\xfe": 1}\n'


def _at(name):
    """Path builder of the file ``name`` under a test's scratch directory."""
    return lambda ws, tmp: tmp / name


def _at_line(name, number):
    """``<path>:<line>`` builder of line ``number`` of the file ``name`` under a test's scratch directory."""
    return lambda ws, tmp: f"{tmp / name}:{number}"


def _data_with(workspace, tmp_path, name, doc) -> str:
    """A copy of the workspace data whose file ``name`` holds ``doc``, or is
    gone when ``doc`` is None."""
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    if doc is None:
        (data / name).unlink()
    else:
        _write(data / name, doc)
    return str(data)


def _input_tokens(workspace) -> list[str]:
    return json.loads((workspace / "data" / "vocab_in.json").read_text())["tokens"]


def _teachers_with_student(workspace, tmp_path) -> str:
    teachers = tmp_path / "teachers"
    shutil.copytree(workspace / "teachers", teachers)
    shutil.copy(workspace / "student" / "student.ckpt", teachers / "teacher_extra.ckpt")
    return str(teachers)


def _teachers_with_other_size(workspace, tmp_path) -> str:
    """The workspace teachers with the hotel teacher replaced by a smaller model
    saved on the same data."""
    teachers = tmp_path / "teachers"
    shutil.copytree(workspace / "teachers", teachers)
    data = workspace / "data"
    in_vocab, out_vocab = load_vocab(data / "vocab_in.json"), load_vocab(data / "vocab_out.json")
    state_size = load_checkpoint(teachers / "universal.ckpt")[1]["state_size"]
    TeacherModel(ModelConfig(embed_size=4, hidden_size=4), len(in_vocab), len(out_vocab), state_size,
                 "hotel").save(teachers / "teacher_hotel.ckpt",
                               load_corpus(data / "corpus_train.json").schemas, in_vocab, out_vocab, {})
    return str(teachers)


def _teachers_of_other_state_size(workspace, tmp_path) -> str:
    """A directory of the workspace's teacher files, each replaced by an
    untrained teacher of the same config and domain, saved on the same data,
    whose oracle state is one entry longer than the schemas give."""
    teachers = tmp_path / "teachers"
    teachers.mkdir()
    data = workspace / "data"
    in_vocab, out_vocab = load_vocab(data / "vocab_in.json"), load_vocab(data / "vocab_out.json")
    schemas = load_corpus(data / "corpus_train.json").schemas
    for path in (workspace / "teachers").glob("*.ckpt"):
        teacher = load_model(path, "teacher")[0]
        TeacherModel(teacher.config, len(in_vocab), len(out_vocab), state_size(schemas) + 1, teacher.domain).save(
            teachers / path.name, schemas, in_vocab, out_vocab, {})
    return str(teachers)


def _teachers_edited(workspace, tmp_path, drop=(), duplicate=(), foreign=()) -> str:
    """The workspace teachers without the checkpoints of the ``drop`` domains,
    with a second checkpoint for each ``duplicate`` domain, and with a copy
    of the generic teacher whose manifest names each ``foreign`` domain."""
    teachers = tmp_path / "teachers"
    shutil.copytree(workspace / "teachers", teachers)
    for domain in drop:
        (teachers / f"teacher_{domain}.ckpt").unlink()
    for domain in duplicate:
        shutil.copy(teachers / f"teacher_{domain}.ckpt", teachers / f"teacher_{domain}_again.ckpt")
    for domain in foreign:
        arrays, meta = load_checkpoint(teachers / "teacher_general.ckpt")
        save_checkpoint(teachers / f"teacher_{domain}.ckpt", arrays, {**meta, "domain": domain})
    return str(teachers)


def _train_student_with(teachers: str, workspace, tmp_path) -> list[str]:
    return ["train-student", "--data", str(workspace / "data"), "--teachers", teachers,
            "--config", str(workspace / "train.json"), "--out", str(tmp_path / "out")]


def _train_teachers_with(config: dict, workspace, tmp_path) -> list[str]:
    return ["train-teachers", "--data", str(workspace / "data"), "--out", str(tmp_path / "out"),
            "--config", _write(tmp_path / "train.json", {**TINY_TRAIN, **config})]


# A well-formed one-turn MultiWOZ log.
HELLO_LOG = [{"text": "hello", "metadata": {}}, {"text": "hi there", "metadata": {}}]


def _multiwoz_prepare(tmp, dump, restaurant=None) -> list[str]:
    """``prepare --data`` of ``dump``; ``restaurant`` replaces the base's restaurant schema."""
    schemas = {"restaurant": restaurant} if restaurant is not None else MULTIWOZ_BASE["schemas"]
    _write(tmp / "base.json", {**MULTIWOZ_BASE, "schemas": schemas})
    return ["prepare", "--data", _write(tmp / "data.json", dump), "--schemas", str(tmp / "base.json"),
            "--database", str(tmp / "base.json"), "--out", str(tmp / "out")]


def _evaluate_generations(ws, tmp, text: str) -> list[str]:
    """``evaluate --generations`` of a file holding ``text``."""
    return ["evaluate", "--data", str(ws / "data"), "--generations", _write(tmp / "gen.jsonl", text + "\n")]


def _checkpoint_of_unknown_kind(workspace, tmp_path) -> str:
    arrays, meta = load_checkpoint(workspace / "student" / "student.ckpt")
    save_checkpoint(tmp_path / "bogus.ckpt", arrays, {**meta, "kind": "bogus"})
    return str(tmp_path / "bogus.ckpt")


def _student_with_init_scale(workspace, tmp_path, value) -> str:
    arrays, meta = load_checkpoint(workspace / "student" / "student.ckpt")
    save_checkpoint(tmp_path / "scaled.ckpt", arrays, {**meta, "config": {**meta["config"], "init_scale": value}})
    return str(tmp_path / "scaled.ckpt")


def _data_edited(workspace, tmp_path, split, edit) -> str:
    """A copy of the workspace data whose corpus_<split>.json went through
    ``edit``, a function that changes the parsed JSON document in place."""
    doc = json.loads((workspace / "data" / f"corpus_{split}.json").read_text())
    edit(doc)
    return _data_with(workspace, tmp_path, f"corpus_{split}.json", doc)


def _train_teachers_on_edited(workspace, tmp_path, edit) -> list[str]:
    return ["train-teachers", "--data", _data_edited(workspace, tmp_path, "train", edit),
            "--config", str(workspace / "train.json"), "--out", str(tmp_path / "out")]


def _evaluate_gold_on_edited(workspace, tmp_path, edit) -> list[str]:
    """Score the gold responses of the test split, so that every goal's
    database query runs, on a test split edited by ``edit``."""
    test = load_corpus(workspace / "data" / "corpus_test.json")
    gold = "".join(json.dumps({"episode": e.episode_id, "turn": i, "response": " ".join(t.system)}) + "\n"
                   for e in test.episodes for i, t in enumerate(e.turns))
    return ["evaluate", "--data", _data_edited(workspace, tmp_path, "test", edit),
            "--generations", _write(tmp_path / "gold.jsonl", gold)]


def _set_first_turn(key, value):
    def edit(doc):
        doc["episodes"][0]["turns"][0][key] = value
    return edit


def _drop_episodes(doc):
    doc["episodes"] = []


def _set_goal_constraints(doc):
    for episode in doc["episodes"]:
        for goal in episode["goal"].values():
            goal["constraints"] = []


def _drop_database_domain(doc):
    del doc["database"][sorted(doc["schemas"])[0]]


def _set_record_values(doc):
    for records in doc["database"].values():
        records[0]["values"] = []


# (id, expected exit code, argv builder, path builder): each input is malformed
# in one way. The path builder gives the file (or directory) the fault lies in,
# which the error line must name; None where the fault is in a flag.
MALFORMED_INPUTS = [
    ("config-unknown-key", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", _write(tmp / "train.json", {"bogus": 1})], _at("train.json")),
    ("config-data-key", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", _write(tmp / "train.json", {**TINY_TRAIN, "data": str(ws / "data")})], _at("train.json")),
    ("negative-epochs", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"), "--epochs", "-1"], None),
    ("config-missing", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", str(tmp / "missing.json")], _at("missing.json")),
    ("config-malformed-json", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", _write(tmp / "train.json", "{bad")], _at("train.json")),
    ("config-not-an-object", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", _write(tmp / "train.json", [1])], _at("train.json")),
    ("negative-hidden-size", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", _write(tmp / "train.json", {"model": {"hidden_size": -1}})], _at("train.json")),
    ("fractional-hidden-size", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", _write(tmp / "train.json", {"model": {"hidden_size": 1.5}})], _at("train.json")),
    ("zero-embed-size", EXIT_USAGE, lambda ws, tmp: [
        "train-student", "--data", str(ws / "data"), "--teachers", str(ws / "teachers"),
        "--out", str(tmp / "out"), "--config", _write(tmp / "train.json", {"model": {"embed_size": 0}})],
        _at("train.json")),
    ("fractional-epochs", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", _write(tmp / "train.json", {"teacher_epochs": 1.5})], _at("train.json")),
    ("zero-max-decode-len", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", _write(tmp / "train.json", {"max_decode_len": 0})], _at("train.json")),
    ("synth-config-missing", EXIT_USAGE, lambda ws, tmp: [
        "prepare", "--out", str(tmp / "out"), "--synth-config", str(tmp / "missing.json")],
        _at("missing.json")),
    ("synth-config-malformed-json", EXIT_USAGE, lambda ws, tmp: [
        "prepare", "--out", str(tmp / "out"), "--synth-config", _write(tmp / "synth.json", "{bad")],
        _at("synth.json")),
    ("synth-unknown-key", EXIT_USAGE, lambda ws, tmp: [
        "prepare", "--out", str(tmp / "out"), "--synth-config", _write(tmp / "synth.json", {"bogus": 1})],
        _at("synth.json")),
    ("generations-no-response", EXIT_DATA, lambda ws, tmp: [
        "evaluate", "--data", str(ws / "data"),
        "--generations", _write(tmp / "gen.jsonl", '{"episode": "test-0000", "turn": 0}\n')],
        _at("gen.jsonl")),
    ("generations-episode-not-a-string", EXIT_DATA, lambda ws, tmp: _evaluate_generations(
        ws, tmp, '{"episode": 0, "turn": 0, "response": "hi"}'), _at_line("gen.jsonl", 1)),
    ("generations-turn-is-a-bool", EXIT_DATA, lambda ws, tmp: _evaluate_generations(
        ws, tmp, '{"episode": "test-0000", "turn": true, "response": "hi"}'), _at_line("gen.jsonl", 1)),
    ("generations-fractional-turn", EXIT_DATA, lambda ws, tmp: _evaluate_generations(
        ws, tmp, '{"episode": "test-0000", "turn": 2.7, "response": "hi"}'), _at_line("gen.jsonl", 1)),
    ("generations-turn-is-a-string", EXIT_DATA, lambda ws, tmp: _evaluate_generations(
        ws, tmp, '{"episode": "test-0000", "turn": "3", "response": "hi"}'), _at_line("gen.jsonl", 1)),
    ("generations-negative-turn", EXIT_DATA, lambda ws, tmp: _evaluate_generations(
        ws, tmp, '{"episode": "test-0000", "turn": -1, "response": "hi"}'), _at_line("gen.jsonl", 1)),
    ("generations-repeated-turn", EXIT_DATA, lambda ws, tmp: _evaluate_generations(
        ws, tmp, '{"episode": "test-0000", "turn": 0, "response": "hi"}\n\n'
             '{"episode": "test-0000", "turn": 0, "response": "bye"}'), _at_line("gen.jsonl", 3)),
    ("vocab-no-role", EXIT_DATA, lambda ws, tmp: [
        "train-teachers", "--out", str(tmp / "out"),
        "--data", _data_with(ws, tmp, "vocab_in.json", {"tokens": _input_tokens(ws)})],
        _at("data/vocab_in.json")),
    ("evaluate-zero-max-len", EXIT_USAGE, lambda ws, tmp: [
        "evaluate", "--model", str(ws / "student" / "student.ckpt"), "--data", str(ws / "data"),
        "--max-len", "0"], None),
    ("evaluate-model-and-generations", EXIT_USAGE, lambda ws, tmp: [
        "evaluate", "--model", str(ws / "student" / "student.ckpt"), "--data", str(ws / "data"),
        "--generations", _write(tmp / "gen.jsonl", "")], None),
    ("chat-zero-max-len", EXIT_USAGE, lambda ws, tmp: [
        "chat", "--model", str(ws / "student" / "student.ckpt"), "--max-len", "0"], None),
    ("chat-teacher-checkpoint", EXIT_DATA, lambda ws, tmp: [
        "chat", "--model", str(ws / "teachers" / "universal.ckpt")],
        lambda ws, tmp: ws / "teachers" / "universal.ckpt"),
    ("student-among-teachers", EXIT_DATA, lambda ws, tmp: [
        "train-student", "--data", str(ws / "data"), "--teachers", _teachers_with_student(ws, tmp),
        "--out", str(tmp / "out")], _at("teachers/teacher_extra.ckpt")),
    ("teacher-of-another-size", EXIT_DATA, lambda ws, tmp: [
        "train-student", "--data", str(ws / "data"), "--teachers", _teachers_with_other_size(ws, tmp),
        "--out", str(tmp / "out")], _at("teachers/teacher_hotel.ckpt")),
    ("evaluate-teacher-of-another-state-size", EXIT_DATA, lambda ws, tmp: [
        "evaluate", "--model", f"{_teachers_of_other_state_size(ws, tmp)}/universal.ckpt", "--data", str(ws / "data")],
        _at("teachers/universal.ckpt")),
    ("teachers-of-another-state-size", EXIT_DATA, lambda ws, tmp: _train_student_with(
        _teachers_of_other_state_size(ws, tmp), ws, tmp), _at("teachers/universal.ckpt")),
    ("teachers-without-general", EXIT_DATA, lambda ws, tmp: _train_student_with(
        _teachers_edited(ws, tmp, drop=["general"]), ws, tmp), _at("teachers")),
    ("teachers-without-hotel", EXIT_DATA, lambda ws, tmp: _train_student_with(
        _teachers_edited(ws, tmp, drop=["hotel"]), ws, tmp), _at("teachers")),
    ("teachers-with-two-for-hotel", EXIT_DATA, lambda ws, tmp: _train_student_with(
        _teachers_edited(ws, tmp, duplicate=["hotel"]), ws, tmp), _at("teachers/teacher_hotel_again.ckpt")),
    ("teacher-domain-off-the-schemas", EXIT_DATA, lambda ws, tmp: _train_student_with(
        _teachers_edited(ws, tmp, foreign=["weather"]), ws, tmp), _at("teachers/teacher_weather.ckpt")),
    ("init-scale-not-a-number", EXIT_USAGE, lambda ws, tmp: _train_teachers_with(
        {"model": {**TINY_TRAIN["model"], "init_scale": "big"}}, ws, tmp), _at("train.json")),
    ("init-scale-overflows", EXIT_USAGE, lambda ws, tmp: _train_teachers_with(
        {"model": {**TINY_TRAIN["model"], "init_scale": 1e308}}, ws, tmp), _at("train.json")),
    ("init-scale-infinite", EXIT_USAGE, lambda ws, tmp: _train_teachers_with(
        {"model": {**TINY_TRAIN["model"], "init_scale": math.inf}}, ws, tmp), _at("train.json")),
    ("manifest-init-scale-overflows", EXIT_DATA, lambda ws, tmp: [
        "evaluate", "--model", _student_with_init_scale(ws, tmp, 1e308), "--data", str(ws / "data")],
        _at("scaled.ckpt")),
    ("manifest-init-scale-nan", EXIT_DATA, lambda ws, tmp: [
        "evaluate", "--model", _student_with_init_scale(ws, tmp, math.nan), "--data", str(ws / "data")],
        _at("scaled.ckpt")),
    ("model-not-an-object", EXIT_USAGE, lambda ws, tmp: _train_teachers_with({"model": []}, ws, tmp),
        _at("train.json")),
    ("grad-clip-not-a-number", EXIT_USAGE, lambda ws, tmp: _train_teachers_with({"grad_clip": "x"}, ws, tmp),
        _at("train.json")),
    ("negative-seed", EXIT_USAGE, lambda ws, tmp: _train_teachers_with({"seed": -1}, ws, tmp),
        _at("train.json")),
    ("fractional-seed", EXIT_USAGE, lambda ws, tmp: _train_teachers_with({"seed": 1.5}, ws, tmp),
        _at("train.json")),
    ("select-best-is-a-stale-key", EXIT_USAGE, lambda ws, tmp: _train_teachers_with({"select_best": True}, ws, tmp),
        _at("train.json")),
    ("lr-overflows-a-step", EXIT_DIVERGED, lambda ws, tmp: _train_teachers_with({"lr": 1e300}, ws, tmp),
        lambda ws, tmp: "teacher-all diverged at epoch 1, episode"),
    ("negative-seed-flag", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", str(ws / "train.json"), "--seed", "-3"], None),
    ("prepare-negative-seed", EXIT_USAGE, lambda ws, tmp: ["prepare", "--out", str(tmp / "out"), "--seed", "-1"],
        None),
    ("prepare-data-with-seed", EXIT_USAGE, lambda ws, tmp: [
        *_multiwoz_prepare(tmp, {"d1.json": {"log": HELLO_LOG}}), "--seed", "3"], lambda ws, tmp: "--seed"),
    ("prepare-synth-with-schemas", EXIT_USAGE, lambda ws, tmp: [
        "prepare", "--out", str(tmp / "out"), "--schemas", str(ws / "data" / "corpus_train.json")],
        lambda ws, tmp: "--schemas"),
    ("synth-fractional-domains", EXIT_USAGE, lambda ws, tmp: [
        "prepare", "--out", str(tmp / "out"), "--synth-config", _write(tmp / "synth.json", {"domains": 2.5})],
        _at("synth.json")),
    ("unknown-model-kind", EXIT_DATA, lambda ws, tmp: [
        "evaluate", "--model", _checkpoint_of_unknown_kind(ws, tmp), "--data", str(ws / "data")],
        _at("bogus.ckpt")),
    ("multiwoz-dialogue-is-a-list", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(tmp, {"d1.json": []}),
        _at("data.json")),
    ("multiwoz-log-entry-is-a-string", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"log": ["hello", "hi there"]}}), _at("data.json")),
    ("multiwoz-metadata-is-a-string", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"log": [{"text": "hello", "metadata": {}},
                                  {"text": "hi there", "metadata": "restaurant"}]}}), _at("data.json")),
    ("multiwoz-text-is-a-number", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"log": [{"text": 5, "metadata": {}}, {"text": "hi there", "metadata": {}}]}}),
        _at("data.json")),
    ("multiwoz-goal-info-is-a-string", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"goal": {"restaurant": {"info": "north", "reqt": ["phone"]}}, "log": HELLO_LOG}}),
        _at("data.json")),
    ("multiwoz-goal-reqt-is-a-string", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"goal": {"restaurant": {"info": {"area": "north"}, "reqt": "phone"}},
                          "log": HELLO_LOG}}), _at("data.json")),
    ("belief-value-not-in-schema", EXIT_DATA, lambda ws, tmp: _train_teachers_on_edited(
        ws, tmp, _set_first_turn("belief", {"attraction": {"area": "mars"}})), _at("data/corpus_train.json")),
    ("belief-domain-not-in-schema", EXIT_DATA, lambda ws, tmp: _train_teachers_on_edited(
        ws, tmp, _set_first_turn("belief", {"cinema": {"area": "north"}})), _at("data/corpus_train.json")),
    ("belief-is-a-list", EXIT_DATA, lambda ws, tmp: _train_teachers_on_edited(
        ws, tmp, _set_first_turn("belief", [])), _at("data/corpus_train.json")),
    ("goal-constraints-is-a-list", EXIT_DATA, lambda ws, tmp: _evaluate_gold_on_edited(
        ws, tmp, _set_goal_constraints), _at("data/corpus_test.json")),
    ("record-values-is-a-list", EXIT_DATA, lambda ws, tmp: _evaluate_gold_on_edited(ws, tmp, _set_record_values),
        _at("data/corpus_test.json")),
    ("database-lacks-a-schema-domain", EXIT_DATA, lambda ws, tmp: _train_teachers_on_edited(
        ws, tmp, _drop_database_domain), _at("data/corpus_train.json")),
    ("multiwoz-database-lacks-a-schema-domain", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"log": HELLO_LOG}}) + ["--database", _write(tmp / "database.json", {"schemas": {}})],
        _at("database.json")),
    ("multiwoz-database-record-values-is-a-list", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"log": HELLO_LOG}}) + ["--database", _write(tmp / "database.json", {"database": {
            "restaurant": [{"id": "r0", "values": ["north"]}]}})], _at("database.json")),
    ("multiwoz-semi-is-a-list", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"log": [{"text": "hello", "metadata": {}},
                                  {"text": "hi there", "metadata": {"restaurant": {"semi": ["area"]}}}]}}),
        _at("data.json")),
    ("schema-value-is-a-number", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"log": HELLO_LOG}},
        {"informable": {"area": ["north", 5]}, "requestable": ["phone"]}), _at("base.json")),
    ("schema-value-set-is-a-string", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"log": HELLO_LOG}}, {"informable": {"area": "north"}, "requestable": ["phone"]}),
        _at("base.json")),
    ("schema-requestable-is-a-string", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"log": HELLO_LOG}}, {"informable": {"area": ["north"]}, "requestable": "phone"}),
        _at("base.json")),
    ("schema-without-slots", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"log": HELLO_LOG}}, {"informable": {}, "requestable": []}), _at("base.json")),
    ("schema-requestable-has-a-number", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"log": HELLO_LOG}}, {"informable": {"area": ["north"]}, "requestable": [7]}),
        _at("base.json")),
    ("generations-not-utf8", EXIT_DATA, lambda ws, tmp: [
        "evaluate", "--data", str(ws / "data"), "--generations", _write(tmp / "gen.jsonl", NOT_UTF8)],
        _at("gen.jsonl")),
    ("multiwoz-data-not-utf8", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(tmp, NOT_UTF8), _at("data.json")),
    ("test-list-not-utf8", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(tmp, {"d1.json": {"log": HELLO_LOG}})
        + ["--test-list", _write(tmp / "test_ids.txt", NOT_UTF8)], _at("test_ids.txt")),
    ("evaluate-model-is-a-directory", EXIT_DATA, lambda ws, tmp: [
        "evaluate", "--model", str(tmp), "--data", str(ws / "data")], lambda ws, tmp: tmp),
    ("chat-model-is-a-directory", EXIT_DATA, lambda ws, tmp: ["chat", "--model", str(tmp)],
        lambda ws, tmp: tmp),
    ("test-list-is-a-directory", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(tmp, {"d1.json": {"log": HELLO_LOG}})
        + ["--test-list", str(tmp)], lambda ws, tmp: tmp),
    ("multiwoz-data-malformed-json", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(tmp, "{bad"), _at("data.json")),
    ("schemas-not-utf8", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(tmp, {"d1.json": {"log": HELLO_LOG}})
        + ["--schemas", _write(tmp / "schemas.json", NOT_UTF8)], _at("schemas.json")),
    ("schemas-informable-is-a-list", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"log": HELLO_LOG}}) + ["--schemas", _write(tmp / "schemas.json", {
            "schemas": {"restaurant": {"informable": ["area"], "requestable": ["phone"]}}})], _at("schemas.json")),
    ("database-not-utf8", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(tmp, {"d1.json": {"log": HELLO_LOG}})
        + ["--database", _write(tmp / "database.json", NOT_UTF8)], _at("database.json")),
    ("vocab-not-utf8", EXIT_DATA, lambda ws, tmp: [
        "train-teachers", "--data", _data_with(ws, tmp, "vocab_in.json", NOT_UTF8), "--out", str(tmp / "out")],
        _at("data/vocab_in.json")),
    ("vocab-without-reserved-tokens", EXIT_DATA, lambda ws, tmp: [
        "train-teachers", "--out", str(tmp / "out"),
        "--data", _data_with(ws, tmp, "vocab_in.json", {"role": "input", "tokens": _input_tokens(ws)[4:]})],
        _at("data/vocab_in.json")),
    ("chat-data-not-utf8", EXIT_DATA, lambda ws, tmp: [
        "chat", "--model", str(ws / "student" / "student.ckpt"), "--data", _write(tmp / "corpus.json", NOT_UTF8)],
        _at("corpus.json")),
    ("domain-tag-not-in-schema", EXIT_DATA, lambda ws, tmp: _train_teachers_on_edited(
        ws, tmp, _set_first_turn("domain", "weather")), _at("data/corpus_train.json")),
    ("corpus-test-missing", EXIT_DATA, lambda ws, tmp: [
        "evaluate", "--model", str(ws / "student" / "student.ckpt"),
        "--data", _data_with(ws, tmp, "corpus_test.json", None)], _at("data/corpus_test.json")),
    ("train-split-without-episodes", EXIT_DATA, lambda ws, tmp: _train_teachers_on_edited(
        ws, tmp, _drop_episodes), _at("data/corpus_train.json")),
    ("student-train-split-without-episodes", EXIT_DATA, lambda ws, tmp: [
        "train-student", "--data", _data_edited(ws, tmp, "train", _drop_episodes),
        "--teachers", str(ws / "teachers"), "--config", str(ws / "train.json"), "--out", str(tmp / "out")],
        _at("data/corpus_train.json")),
    ("evaluate-model-test-split-without-episodes", EXIT_DATA, lambda ws, tmp: [
        "evaluate", "--model", str(ws / "student" / "student.ckpt"),
        "--data", _data_edited(ws, tmp, "test", _drop_episodes)], _at("data/corpus_test.json")),
    ("evaluate-generations-test-split-without-episodes", EXIT_DATA, lambda ws, tmp: [
        "evaluate", "--data", _data_edited(ws, tmp, "test", _drop_episodes),
        "--generations", _write(tmp / "gen.jsonl", "")], _at("data/corpus_test.json")),
    ("config-not-utf8", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", _write(tmp / "train.json", NOT_UTF8)], _at("train.json")),
]


@pytest.mark.parametrize("expected,argv,blame", [c[1:] for c in MALFORMED_INPUTS],
                         ids=[c[0] for c in MALFORMED_INPUTS])
def test_malformed_input_ends_in_one_line(workspace, tmp_path, capsys, expected, argv, blame):
    code = main(argv(workspace, tmp_path))
    err = capsys.readouterr().err
    assert code == expected
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    if blame is not None:
        assert str(blame(workspace, tmp_path)) in err


# Every numeric field of a training config file, a synth config file and a
# checkpoint manifest is set, one at a time, to each of these values.
MUTANT_VALUES = [True, "1", None, math.nan, math.inf, -math.inf, 1e308, 1e-320, -1, 0, 1.5]


def _training_config_sweep(ws, tmp):
    """(the mutated file, its error code, the base document, its numeric
    fields, a writer of a mutant, the commands that read it). The base
    trains no epoch, so an accepted mutant stays cheap."""
    path = tmp / "train.json"
    base = {**TINY_TRAIN, "epochs": 0, "teacher_epochs": 0, "finetune_epochs": 0}
    keys = [f.name for f in fields(TrainingConfig) if f.name != "model"]
    keys += [f"model.{f.name}" for f in fields(ModelConfig)]
    runs = [["train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"), "--config", str(path)],
            ["train-student", "--data", str(ws / "data"), "--teachers", str(ws / "teachers"),
             "--out", str(tmp / "out"), "--config", str(path)]]
    return path, EXIT_USAGE, base, keys, lambda doc: _write(path, doc), runs


def _synth_config_sweep(ws, tmp):
    path = tmp / "synth.json"
    base = {"seed": 0, "domains": 1, "train_episodes": 2, "test_episodes": 1, "entities_per_domain": 2}
    keys = [f.name for f in fields(SynthConfig)]
    runs = [["prepare", "--out", str(tmp / "out"), "--synth-config", str(path)]]
    return path, EXIT_USAGE, base, keys, lambda doc: _write(path, doc), runs


def _manifest_sweep(ws, tmp):
    path = tmp / "teacher.ckpt"
    arrays, meta = load_checkpoint(ws / "teachers" / "universal.ckpt")
    keys = [f"config.{f.name}" for f in fields(ModelConfig)] + ["in_vocab_size", "out_vocab_size", "state_size"]
    runs = [["evaluate", "--model", str(path), "--data", str(ws / "data"), "--max-len", "2"]]
    return path, EXIT_DATA, meta, keys, lambda doc: save_checkpoint(path, arrays, doc), runs


@pytest.mark.parametrize("sweep", [_training_config_sweep, _synth_config_sweep, _manifest_sweep],
                         ids=["training-config", "synth-config", "manifest"])
def test_numeric_mutants_succeed_or_end_in_one_line(workspace, tmp_path, capsys, sweep):
    """Each mutant run exits 0 and writes nothing to stderr, or exits with
    the file's error code and one stderr line that names the file."""
    path, expected, base, keys, write, runs = sweep(workspace, tmp_path)
    faults = []
    for key in keys:
        for value in MUTANT_VALUES:
            doc = copy.deepcopy(base)
            *parents, leaf = key.split(".")
            node = doc
            for parent in parents:
                node = node[parent]
            node[leaf] = value
            write(doc)
            for argv in runs:
                try:
                    code = main(argv)
                except Exception as exc:  # outside pytest, a traceback
                    code = exc
                err = capsys.readouterr().err
                if not (code == EXIT_OK and not err
                        or code == expected and len(err.strip().splitlines()) == 1 and str(path) in err):
                    faults.append(f"{argv[0]} with {key}={value!r}: exit {code!r}, stderr {err!r}")
    assert not faults, "\n".join(faults)


class TestChat:
    def run_chat(self, workspace, lines, lexicalize=False, model=None):
        argv = ["chat", "--model", str(model or workspace / "student" / "student.ckpt"),
                "--data", str(workspace / "data" / "corpus_train.json"), "--max-len", "14"]
        if lexicalize:
            argv.append("--lexicalize")
        args = build_parser().parse_args(argv)
        out = io.StringIO()
        code = cmd_chat(args, stdin=io.StringIO("\n".join(lines) + "\n"), stdout=out)
        return code, out.getvalue()

    def test_quit_exits_cleanly(self, workspace):
        code, _ = self.run_chat(workspace, ["/quit"])
        assert code == EXIT_OK

    def test_transcripts_are_deterministic(self, workspace):
        lines = ["hello", "i am looking for a north restaurant", "/quit"]
        a = self.run_chat(workspace, lines)
        b = self.run_chat(workspace, lines)
        assert a == b

    @staticmethod
    def replies(out):
        return [l for l in out.splitlines() if l and not l.startswith(("type", "("))]

    @pytest.fixture(scope="class")
    def history_student(self, workspace, tmp_path_factory):
        """A tiny untrained student whose saturated weights make every reply
        depend on the whole history, so a history mix-up changes the text."""
        in_vocab = load_vocab(workspace / "data" / "vocab_in.json")
        out_vocab = load_vocab(workspace / "data" / "vocab_out.json")
        schemas = load_corpus(workspace / "data" / "corpus_train.json").schemas
        path = tmp_path_factory.mktemp("chat") / "student.ckpt"
        config = ModelConfig(embed_size=12, hidden_size=16, init_scale=2.0)
        StudentModel(config, len(in_vocab), len(out_vocab), seed=0).save(
            path, schemas, in_vocab, out_vocab, {})
        return path

    @staticmethod
    def reference_replies(workspace, model, lines):
        """The reference model's replies (``reference.py``) to the whole
        history every turn; "/reset" starts a new history."""
        student, in_vocab, out_vocab = load_model(model, "student")
        weights = ref.weights(student)
        corpus = load_corpus(workspace / "data" / "corpus_train.json")
        delex = Delexicalizer(corpus.schemas, corpus.database)
        history, replies = [], []
        for line in lines:
            if line == "/reset":
                history = []
                continue
            history.append(in_vocab.encode(delex.with_matches(line)[0]))
            tokens = out_vocab.decode(ref.student_reply(weights, history, 14)[0])
            replies.append(" ".join(tokens) if tokens else "...")
            history.append(in_vocab.encode(tokens))
        return replies

    CONVERSATION = ["hello", "i am looking for a north restaurant", "what is the phone number",
                    "thank you", "goodbye"]

    @pytest.mark.parametrize("capacity", [None, 1], ids=["default-capacity", "capacity-1"])
    def test_memo_replies_match_a_memo_free_replay(self, workspace, history_student, monkeypatch, capacity):
        """The process's one encoding memo survives /reset and changes no reply."""
        if capacity is not None:
            monkeypatch.setattr(models, "ENCODING_MEMO_SIZE", capacity)
        calls = []
        encode = StudentModel.encode_utterance

        def counting(self, tape, token_ids):
            calls.append(tuple(token_ids))
            return encode(self, tape, token_ids)

        lines = (self.CONVERSATION + ["/reset"] + self.CONVERSATION[:2]
                 + ["/reset", "thank you", "hello", "thank you"])
        monkeypatch.setattr(StudentModel, "encode_utterance", counting)
        _, out = self.run_chat(workspace, lines, model=history_student)
        monkeypatch.undo()
        expected = self.reference_replies(workspace, history_student, lines)
        assert self.replies(out) == expected and len(set(expected)) > 1
        if capacity is None:  # each distinct utterance once, across sessions
            assert len(calls) == len(set(calls)) < 2 * len(expected)
        else:  # each utterance once per session, but for the last reply of
            # each of the three sessions, which no lookup reads
            assert len(calls) == 2 * len(expected) - 3

    def test_a_long_session_steps_the_context_once_per_utterance(self, workspace, history_student,
                                                               monkeypatch):
        """Forty lines in one session: each reply runs one context row for
        the previous reply and one for its line, not one per history utterance."""
        hidden = load_model(history_student, "student")[0].config.hidden_size
        lines = self.CONVERSATION * 8
        steps = count_context_steps(monkeypatch)
        _, out = self.run_chat(workspace, lines, model=history_student)
        monkeypatch.undo()
        assert steps == [(hidden,)] * (2 * len(lines) - 1)
        assert self.replies(out) == self.reference_replies(workspace, history_student, lines)

    def test_a_long_session_holds_its_memory(self, history_student, tmp_path):
        """A session of 1,200 lines peaks under tracemalloc within 1.5 times
        a 150-line session's peak: it carries the context LSTM's state, not
        its history. Its replies equal the reference model's given the
        transcript before them, checked at sampled turns. The session reads
        and writes files, so its I/O buffers do not grow with it, and its
        replies are at most two tokens long, so it runs fast under tracing."""
        args = build_parser().parse_args(["chat", "--model", str(history_student), "--max-len", "2"])

        def traced(lines):
            (tmp_path / "in.txt").write_text("\n".join(lines) + "\n")
            with open(tmp_path / "in.txt") as stdin, open(tmp_path / "out.txt", "w") as stdout:
                peak, _ = traced_peak(lambda: cmd_chat(args, stdin, stdout))
            return peak, (tmp_path / "out.txt").read_text().splitlines()[1:]  # after the greeting

        lines = self.CONVERSATION * 240
        short_peak, short = traced(lines[:150])
        long_peak, replies = traced(lines)
        assert len(replies) == len(lines) and replies[:150] == short and len(set(replies)) > 1
        assert long_peak < 1.5 * short_peak, (long_peak, short_peak)
        student, in_vocab, out_vocab = load_model(history_student, "student")
        weights, history = ref.weights(student), []
        for turn, (line, reply) in enumerate(zip(lines, replies)):
            history.append(in_vocab.encode(line.split()))
            if turn in (0, 149, len(lines) - 1):
                tokens = out_vocab.decode(ref.student_reply(weights, history, 2)[0])
                assert reply == (" ".join(tokens) if tokens else "...")
            history.append(in_vocab.encode([] if reply == "..." else reply.split()))

    def test_the_memo_dies_with_the_chat(self, workspace, history_student, monkeypatch):
        """No reference cycle keeps the chat's memo alive once ``cmd_chat``
        returns, even with the cycle collector off."""
        memos = track_memos(monkeypatch)
        gc.disable()
        try:
            self.run_chat(workspace, self.CONVERSATION + ["/reset", "hello"], model=history_student)
            assert len(memos) == 1 and memos[0]() is None
        finally:
            gc.enable()

    def test_decode_failure_rolls_back_user_line(self, workspace, history_student, monkeypatch):
        # The benchmark counts a failed chat turn by matching its copy of the apology.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from workloads import SORRY

        decode = StudentModel.decode_greedy
        calls = []

        def fail_second(self, *args):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("injected decode failure")
            return decode(self, *args)

        lines = self.CONVERSATION[:3]
        expected = self.reference_replies(workspace, history_student, [lines[0], lines[2]])
        assert expected[1] != self.reference_replies(workspace, history_student, lines)[2]
        monkeypatch.setattr(StudentModel, "decode_greedy", fail_second)
        code, out = self.run_chat(workspace, lines, model=history_student)
        assert code == EXIT_OK
        replies = self.replies(out)
        assert replies[1] == SORRY
        assert [replies[0], replies[2]] == expected

    def test_lexicalize_fills_placeholders(self, workspace):
        _, out = self.run_chat(
            workspace, ["i am looking for a north restaurant", "/quit"], lexicalize=True
        )
        assert "[" not in out.replace("[restaurant_", "[") or "[" not in out

    def test_a_domain_name_with_an_underscore_is_tracked_and_filled(self, tmp_path, monkeypatch):
        """`taxi_booking` placeholders update the belief and get filled: a
        placeholder splits at the longest schema domain it starts with, so
        neither `taxi` nor the first "_" claims `[taxi_booking_contact]`."""
        schemas = {
            "taxi": DomainSchema("taxi", informable={"area": ["north", "south"]}, requestable=["contact"]),
            "taxi_booking": DomainSchema("taxi_booking", informable={"time": ["noon", "dusk"]},
                                         requestable=["contact"]),
        }
        database = Database({
            "taxi": [EntityRecord("t0", {"area": "north", "contact": "111"})],
            "taxi_booking": [EntityRecord("b0", {"time": "noon", "contact": "222"}),
                             EntityRecord("b1", {"time": "dusk", "contact": "333"})],
        })
        turn = Turn("a cab at [taxi_booking_time]".split(), "call [taxi_booking_contact] .".split(),
                    "taxi_booking")
        corpus = Corpus(schemas, database, [Episode("e0", [turn])])
        save_corpus(corpus, tmp_path / "corpus.json")
        in_vocab, out_vocab = build_vocab(corpus, "input", min_freq=1), build_vocab(corpus, "output")
        StudentModel(ModelConfig(embed_size=4, hidden_size=4), len(in_vocab), len(out_vocab), seed=0).save(
            tmp_path / "student.ckpt", schemas, in_vocab, out_vocab, {})
        reply = out_vocab.encode("call [taxi_booking_contact] .".split())
        monkeypatch.setattr(StudentModel, "decode_greedy", lambda self, actions, enc_outs, max_len: [reply])
        args = build_parser().parse_args(["chat", "--model", str(tmp_path / "student.ckpt"),
                                          "--data", str(tmp_path / "corpus.json"), "--lexicalize"])
        out = io.StringIO()
        assert cmd_chat(args, stdin=io.StringIO("a cab at dusk\nthanks\n"), stdout=out) == EXIT_OK
        assert self.replies(out.getvalue()) == ["call 333 .", "call 333 ."]


class TestUsage:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK

    @pytest.mark.parametrize("command", ["chat", "train_student"])
    def test_ctrl_c_ends_in_one_line(self, monkeypatch, capsys, command):
        def interrupted(args, *rest):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, f"cmd_{command}", interrupted)
        argv = {"chat": ["chat", "--model", "student.ckpt"],
                "train_student": ["train-student", "--data", "d", "--teachers", "t", "--out", "o"]}
        assert main(argv[command]) == EXIT_INTERRUPTED == 130
        assert capsys.readouterr().err == "interrupted\n"

    def test_synth_flag_is_gone(self, tmp_path):
        assert main(["prepare", "--synth", "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert not (tmp_path / "out").exists()

    def test_readme_walkthrough_parses(self):
        """Every ``mtss`` line of README's CLI walkthrough parses, so a flag
        removed from the parser cannot stay documented."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI walkthrough", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.replace("\\\n", " ").splitlines()
                 if line.strip() and not line.lstrip().startswith("#")]
        assert len(lines) == 6
        for line in lines:
            words = shlex.split(line)
            while "=" in words[0]:
                words.pop(0)
            assert words[0] == "mtss", line
            build_parser().parse_args(words[1:])

    def test_readme_names_live_names(self, workspace):
        """Every UPPER_CASE name README gives in backticks is a constant of
        ``mtss.models``, with the value README gives it, or an environment
        variable the source reads; and README's epoch-log keys are the keys of
        every line ``_fit`` wrote to the workspace's teacher and student logs."""
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        source = "".join(path.read_text(encoding="utf-8") for path in (root / "src").rglob("*.py"))
        dead = {name for name in re.findall(r"`([A-Z][A-Z0-9_]+)`", readme)
                if not hasattr(models, name) and f'"{name}"' not in source}
        assert dead == set()
        values = re.findall(r"`([A-Z][A-Z0-9_]+)` = ([0-9,]+)", readme)
        assert len(values) >= 3
        for name, value in values:
            assert getattr(models, name) == int(value.replace(",", "")), name
        logged = readme.split("`student_log.jsonl` with the keys", 1)[1].split(";", 1)[0]
        keys = {tuple(json.loads(line)) for log in ("teachers/teacher_log.jsonl", "student/student_log.jsonl")
                for line in (workspace / log).read_text().splitlines()}
        assert keys == {tuple(re.findall(r"`(\w+)`", logged))}
