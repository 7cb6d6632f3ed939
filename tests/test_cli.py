"""Command line: full tiny pipeline, manifests, exit codes, chat REPL."""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mtss import cli
from mtss.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, cmd_chat, main
from mtss.corpus import Corpus, Delexicalizer, load_corpus, load_vocab
from mtss.diffnum import Tape, load_checkpoint, save_checkpoint
from mtss.models import ModelConfig, StudentModel, TeacherModel, load_model
from mtss.training import evaluate_model

TINY_TRAIN = {
    "model": {"embed_size": 6, "hidden_size": 8, "init_scale": 0.08},
    "epochs": 2,
    "teacher_epochs": 2,
    "finetune_epochs": 1,
    "lr": 0.02,
    "seed": 0,
    "max_decode_len": 14,
}

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
        ensemble = cli.load_ensemble(workspace / "teachers", train.schemas, in_vocab, out_vocab)
        calls, generate = [], TeacherModel.generate

        def counted_generate(self, *args):
            calls.append(self.domain)
            return generate(self, *args)

        monkeypatch.setattr(TeacherModel, "generate", counted_generate)
        rows = cli._teacher_report(ensemble, test, in_vocab, out_vocab, max_len)
        assert len(calls) == 2 * sum(len(e.turns) for e in test.episodes)
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

    def test_sweep_cell_matches_train_student(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "SWEEP_GRID", [(0.005, 0.005), (0.0, 0.0)])
        monkeypatch.delenv("MTSS_THREADS", raising=False)
        out = tmp_path / "sweep"
        assert main(["sweep", "--data", str(workspace / "data"), "--teachers", str(workspace / "teachers"),
                     "--config", str(workspace / "train.json"), "--out", str(out)]) == EXIT_OK
        rows = json.loads((out / "sweep_results.json").read_text())
        assert [(r["alpha1"], r["alpha2"]) for r in rows] == cli.SWEEP_GRID
        cell = Path(rows[0]["checkpoint"])
        assert cell.read_bytes() == (workspace / "student" / "student.ckpt").read_bytes()
        assert Path(rows[1]["checkpoint"]).read_bytes() != cell.read_bytes()

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
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def _data_without_vocab_role(workspace, tmp_path) -> str:
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    vocab = json.loads((data / "vocab_in.json").read_text())
    _write(data / "vocab_in.json", {"tokens": vocab["tokens"]})
    return str(data)


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


def _teachers_edited(workspace, tmp_path, drop=(), duplicate=()) -> str:
    """The workspace teachers without the checkpoints of the ``drop`` domains
    and with a second checkpoint for each ``duplicate`` domain."""
    teachers = tmp_path / "teachers"
    shutil.copytree(workspace / "teachers", teachers)
    for domain in drop:
        (teachers / f"teacher_{domain}.ckpt").unlink()
    for domain in duplicate:
        shutil.copy(teachers / f"teacher_{domain}.ckpt", teachers / f"teacher_{domain}_again.ckpt")
    return str(teachers)


def _train_student_with(teachers: str, workspace, tmp_path) -> list[str]:
    return ["train-student", "--data", str(workspace / "data"), "--teachers", teachers,
            "--config", str(workspace / "train.json"), "--out", str(tmp_path / "out")]


def _train_teachers_with(config: dict, workspace, tmp_path) -> list[str]:
    return ["train-teachers", "--data", str(workspace / "data"), "--out", str(tmp_path / "out"),
            "--config", _write(tmp_path / "train.json", {**TINY_TRAIN, **config})]


# A well-formed one-turn MultiWOZ log.
HELLO_LOG = [{"text": "hello", "metadata": {}}, {"text": "hi there", "metadata": {}}]


def _multiwoz_prepare(tmp, dump) -> list[str]:
    _write(tmp / "base.json", MULTIWOZ_BASE)
    return ["prepare", "--data", _write(tmp / "data.json", dump), "--schemas", str(tmp / "base.json"),
            "--database", str(tmp / "base.json"), "--out", str(tmp / "out")]


def _checkpoint_of_unknown_kind(workspace, tmp_path) -> str:
    arrays, meta = load_checkpoint(workspace / "student" / "student.ckpt")
    save_checkpoint(tmp_path / "bogus.ckpt", arrays, {**meta, "kind": "bogus"})
    return str(tmp_path / "bogus.ckpt")


# (id, argv builder, expected exit code): each input is malformed in one way.
MALFORMED_INPUTS = [
    ("config-unknown-key", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", _write(tmp / "train.json", {"bogus": 1})]),
    ("config-data-key", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", _write(tmp / "train.json", {**TINY_TRAIN, "data": str(ws / "data")})]),
    ("negative-epochs", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"), "--epochs", "-1"]),
    ("config-missing", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", str(tmp / "missing.json")]),
    ("config-malformed-json", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", _write(tmp / "train.json", "{bad")]),
    ("config-not-an-object", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", _write(tmp / "train.json", [1])]),
    ("negative-hidden-size", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", _write(tmp / "train.json", {"model": {"hidden_size": -1}})]),
    ("fractional-hidden-size", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", _write(tmp / "train.json", {"model": {"hidden_size": 1.5}})]),
    ("zero-embed-size", EXIT_USAGE, lambda ws, tmp: [
        "train-student", "--data", str(ws / "data"), "--teachers", str(ws / "teachers"),
        "--out", str(tmp / "out"), "--config", _write(tmp / "train.json", {"model": {"embed_size": 0}})]),
    ("fractional-epochs", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", _write(tmp / "train.json", {"teacher_epochs": 1.5})]),
    ("zero-max-decode-len", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", _write(tmp / "train.json", {"max_decode_len": 0})]),
    ("synth-config-missing", EXIT_USAGE, lambda ws, tmp: [
        "prepare", "--out", str(tmp / "out"), "--synth-config", str(tmp / "missing.json")]),
    ("synth-config-malformed-json", EXIT_USAGE, lambda ws, tmp: [
        "prepare", "--out", str(tmp / "out"), "--synth-config", _write(tmp / "synth.json", "{bad")]),
    ("synth-unknown-key", EXIT_USAGE, lambda ws, tmp: [
        "prepare", "--out", str(tmp / "out"), "--synth-config", _write(tmp / "synth.json", {"bogus": 1})]),
    ("generations-no-response", EXIT_DATA, lambda ws, tmp: [
        "evaluate", "--data", str(ws / "data"),
        "--generations", _write(tmp / "gen.jsonl", '{"episode": "test-0000", "turn": 0}\n')]),
    ("vocab-no-role", EXIT_DATA, lambda ws, tmp: [
        "train-teachers", "--data", _data_without_vocab_role(ws, tmp), "--out", str(tmp / "out")]),
    ("evaluate-zero-max-len", EXIT_USAGE, lambda ws, tmp: [
        "evaluate", "--model", str(ws / "student" / "student.ckpt"), "--data", str(ws / "data"),
        "--max-len", "0"]),
    ("chat-zero-max-len", EXIT_USAGE, lambda ws, tmp: [
        "chat", "--model", str(ws / "student" / "student.ckpt"), "--max-len", "0"]),
    ("chat-teacher-checkpoint", EXIT_DATA, lambda ws, tmp: [
        "chat", "--model", str(ws / "teachers" / "universal.ckpt")]),
    ("student-among-teachers", EXIT_DATA, lambda ws, tmp: [
        "train-student", "--data", str(ws / "data"), "--teachers", _teachers_with_student(ws, tmp),
        "--out", str(tmp / "out")]),
    ("teacher-of-another-size", EXIT_DATA, lambda ws, tmp: [
        "train-student", "--data", str(ws / "data"), "--teachers", _teachers_with_other_size(ws, tmp),
        "--out", str(tmp / "out")]),
    ("teachers-without-general", EXIT_DATA, lambda ws, tmp: _train_student_with(
        _teachers_edited(ws, tmp, drop=["general"]), ws, tmp)),
    ("teachers-without-hotel", EXIT_DATA, lambda ws, tmp: _train_student_with(
        _teachers_edited(ws, tmp, drop=["hotel"]), ws, tmp)),
    ("teachers-with-two-for-hotel", EXIT_DATA, lambda ws, tmp: _train_student_with(
        _teachers_edited(ws, tmp, duplicate=["hotel"]), ws, tmp)),
    ("init-scale-not-a-number", EXIT_USAGE, lambda ws, tmp: _train_teachers_with(
        {"model": {**TINY_TRAIN["model"], "init_scale": "big"}}, ws, tmp)),
    ("model-not-an-object", EXIT_USAGE, lambda ws, tmp: _train_teachers_with({"model": []}, ws, tmp)),
    ("grad-clip-not-a-number", EXIT_USAGE, lambda ws, tmp: _train_teachers_with({"grad_clip": "x"}, ws, tmp)),
    ("negative-seed", EXIT_USAGE, lambda ws, tmp: _train_teachers_with({"seed": -1}, ws, tmp)),
    ("fractional-seed", EXIT_USAGE, lambda ws, tmp: _train_teachers_with({"seed": 1.5}, ws, tmp)),
    ("select-best-not-a-bool", EXIT_USAGE, lambda ws, tmp: _train_teachers_with({"select_best": "no"}, ws, tmp)),
    ("negative-seed-flag", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", str(ws / "train.json"), "--seed", "-3"]),
    ("prepare-negative-seed", EXIT_USAGE, lambda ws, tmp: ["prepare", "--out", str(tmp / "out"), "--seed", "-1"]),
    ("synth-fractional-domains", EXIT_USAGE, lambda ws, tmp: [
        "prepare", "--out", str(tmp / "out"), "--synth-config", _write(tmp / "synth.json", {"domains": 2.5})]),
    ("unknown-model-kind", EXIT_DATA, lambda ws, tmp: [
        "evaluate", "--model", _checkpoint_of_unknown_kind(ws, tmp), "--data", str(ws / "data")]),
    ("multiwoz-dialogue-is-a-list", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(tmp, {"d1.json": []})),
    ("multiwoz-log-entry-is-a-string", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"log": ["hello", "hi there"]}})),
    ("multiwoz-metadata-is-a-string", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"log": [{"text": "hello", "metadata": {}},
                                  {"text": "hi there", "metadata": "restaurant"}]}})),
    ("multiwoz-text-is-a-number", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"log": [{"text": 5, "metadata": {}}, {"text": "hi there", "metadata": {}}]}})),
    ("multiwoz-goal-info-is-a-string", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"goal": {"restaurant": {"info": "north", "reqt": ["phone"]}}, "log": HELLO_LOG}})),
    ("multiwoz-goal-reqt-is-a-string", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"goal": {"restaurant": {"info": {"area": "north"}, "reqt": "phone"}},
                          "log": HELLO_LOG}})),
    ("multiwoz-semi-is-a-list", EXIT_DATA, lambda ws, tmp: _multiwoz_prepare(
        tmp, {"d1.json": {"log": [{"text": "hello", "metadata": {}},
                                  {"text": "hi there", "metadata": {"restaurant": {"semi": ["area"]}}}]}})),
]


@pytest.mark.parametrize("expected,argv", [c[1:] for c in MALFORMED_INPUTS], ids=[c[0] for c in MALFORMED_INPUTS])
def test_malformed_input_ends_in_one_line(workspace, tmp_path, capsys, expected, argv):
    code = main(argv(workspace, tmp_path))
    err = capsys.readouterr().err
    assert code == expected
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


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

    def test_reset_clears_history(self, workspace):
        code, out = self.run_chat(workspace, ["hello", "/reset", "hello", "/quit"])
        assert code == EXIT_OK
        assert "(history cleared)" in out
        # Identical context after reset produces the identical reply.
        replies = [l for l in out.splitlines() if l and not l.startswith(("type", "("))]
        assert replies[0] == replies[1]

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
        """Replies from re-encoding the whole history every turn."""
        student, in_vocab, out_vocab = load_model(model, "student")
        corpus = load_corpus(workspace / "data" / "corpus_train.json")
        delex = Delexicalizer(corpus.schemas, corpus.database)
        history, replies = [], []
        for line in lines:
            history.append(in_vocab.encode(delex.with_matches(line)[0]))
            tape = Tape(record=False)
            enc_outs, action = student.encode_history(tape, history)
            reply = out_vocab.decode(student.decode_greedy(tape, action, enc_outs, 14))
            replies.append(" ".join(reply) if reply else "...")
            history.append(in_vocab.encode(reply))
        return replies

    CONVERSATION = ["hello", "i am looking for a north restaurant", "what is the phone number",
                    "thank you", "goodbye"]

    def test_replies_match_full_history_reference(self, workspace, history_student):
        _, out = self.run_chat(workspace, self.CONVERSATION + ["/quit"], model=history_student)
        expected = self.reference_replies(workspace, history_student, self.CONVERSATION)
        assert len(set(expected)) > 1
        assert self.replies(out) == expected

    def test_reset_matches_fresh_session(self, workspace, history_student):
        line = self.CONVERSATION[1]
        _, out = self.run_chat(workspace, self.CONVERSATION[:3] + ["/reset", line], model=history_student)
        _, fresh = self.run_chat(workspace, [line], model=history_student)
        assert self.replies(out)[1] != self.replies(fresh)[0]  # the history mattered before /reset
        assert self.replies(out)[3] == self.replies(fresh)[0]

    def test_decode_failure_rolls_back_user_line(self, workspace, history_student, monkeypatch):
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
        assert replies[1] == "sorry , i could not produce a response ."
        assert [replies[0], replies[2]] == expected

    def test_lexicalize_fills_placeholders(self, workspace):
        _, out = self.run_chat(
            workspace, ["i am looking for a north restaurant", "/quit"], lexicalize=True
        )
        assert "[" not in out.replace("[restaurant_", "[") or "[" not in out


class TestUsage:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK
