"""Command line: full tiny pipeline, manifests, exit codes, chat REPL."""

import io
import json
import shutil
from pathlib import Path

import pytest

from mtss.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, cmd_chat, main
from mtss.corpus import Delexicalizer, Vocabulary, load_corpus, load_vocab
from mtss.diffnum import Tape
from mtss.models import ModelConfig, StudentModel, load_model_as

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
        assert sum(counts.values()) == train.turn_count()

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
        base = {
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
        (tmp_path / "base.json").write_text(json.dumps(base))
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
        assert report["turns_per_domain"]["train"]["restaurant"] == 1
        assert report["turns_per_domain"]["test"]["general"] == 1


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

    def test_needs_model_or_generations(self, workspace):
        assert main(["evaluate", "--data", str(workspace / "data")]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["chat", "evaluate"])
@pytest.mark.parametrize("content", [b"junk", b"MTSSCKP1", b"MTSSCKP1" + b"\x05" + bytes(7) + b"{bad}"],
                         ids=["not-a-checkpoint", "short-header", "bad-manifest"])
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


# (id, argv builder, expected exit code): each input is malformed in one way.
MALFORMED_INPUTS = [
    ("config-unknown-key", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"),
        "--config", _write(tmp / "train.json", {"bogus": 1})]),
    ("negative-epochs", EXIT_USAGE, lambda ws, tmp: [
        "train-teachers", "--data", str(ws / "data"), "--out", str(tmp / "out"), "--epochs", "-1"]),
    ("synth-unknown-key", EXIT_USAGE, lambda ws, tmp: [
        "prepare", "--out", str(tmp / "out"), "--synth-config", _write(tmp / "synth.json", {"bogus": 1})]),
    ("generations-no-response", EXIT_DATA, lambda ws, tmp: [
        "evaluate", "--data", str(ws / "data"),
        "--generations", _write(tmp / "gen.jsonl", '{"episode": "test-0000", "turn": 0}\n')]),
    ("vocab-no-role", EXIT_DATA, lambda ws, tmp: [
        "evaluate", "--data", _data_without_vocab_role(ws, tmp), "--generations", _write(tmp / "gen.jsonl", "")]),
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
        path = tmp_path_factory.mktemp("chat") / "student.ckpt"
        config = ModelConfig(embed_size=12, hidden_size=16, init_scale=2.0)
        StudentModel(config, len(in_vocab), len(out_vocab), seed=0).save(
            path, extra_meta={"in_vocab": in_vocab.tokens, "out_vocab": out_vocab.tokens})
        return path

    @staticmethod
    def reference_replies(workspace, model, lines):
        """Replies from re-encoding the whole history every turn."""
        student, meta = load_model_as(model, "student")
        in_vocab = Vocabulary("input", meta["in_vocab"])
        out_vocab = Vocabulary("output", meta["out_vocab"])
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
