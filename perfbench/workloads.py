"""The workload process: drives mtss only through its public entry points.

Started by ``run.py``, which pins BLAS and mtss threads to 1 before numpy
loads. Each workload is one closed loop with one client: the next command or
chat line goes out only after the previous one has finished.

A run first sets up (``mtss prepare`` of a synthetic corpus from --seed with
a large test split, plus the chat scripts built from it), then spends
--seconds in ROUNDS rounds. Every round runs one pipeline (prepare ->
train-teachers -> train-student -> evaluate) from --seed, then the
workload's own part:

- ``pipeline`` keeps running pipelines until the round's time is up;
- ``evaluate`` runs ``mtss evaluate`` of the reference student over the
  large test split until the round's time is up;
- ``chat`` replays scripted multi-episode chat sessions with the reference
  student until the round's time is up.

``pipeline`` and ``evaluate`` end each round with a share of a fixed chat
probe of one-episode sessions, so that every end-to-end metric exists on
every workload. Spreading each kind of work over the rounds keeps the
metrics steady on a machine whose speed drifts over seconds.

The reference student (see ``build_reference``) is trained once per
checkout, on a pinned config, and reused by later runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from envinfo import environment
from layers import PER_LAYER, install, per_layer_values
from mtss import cli, metrics, training
from mtss.corpus import Corpus, load_corpus
from mtss.synthcorpus import SynthConfig, gen_corpus
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("pipeline", "evaluate", "chat")
SORRY = "sorry , i could not produce a response ."
ALPHAS = ["--alpha1", "0.005", "--alpha2", "0.005"]
ROUNDS = 4
# Chat sessions whose lines and replies go into the determinism fingerprint.
FINGERPRINT_SESSIONS = 10

SIZES = {
    "full": {
        # The reference student: synthetic seed 7 (300 train episodes), the
        # default model, 1 teacher, 1 fine-tune and 1 student epoch.
        "reference": {"synth": {"seed": 7},
                      "train": {"seed": 7, "teacher_epochs": 1, "finetune_epochs": 1, "epochs": 1}},
        # Each pipeline: the default model on ~90 training turns, with 2
        # student epochs so the teacher-target cache is filled, then reused.
        "train_turns": 90, "test_episodes": 10, "big_test_episodes": 180,
        "train": {"teacher_epochs": 1, "finetune_epochs": 1, "epochs": 2},
        "session_episodes": 7, "chat_turns": 1000, "probe_turns": 1500,
    },
    "tiny": {
        "reference": {"synth": {"seed": 7, "train_episodes": 8, "test_episodes": 3},
                      "train": {"seed": 7, "teacher_epochs": 1, "finetune_epochs": 1, "epochs": 1,
                                "model": {"embed_size": 8, "hidden_size": 12}}},
        "train_turns": 30, "test_episodes": 3, "big_test_episodes": 6,
        "train": {"teacher_epochs": 1, "finetune_epochs": 1, "epochs": 2,
                  "model": {"embed_size": 8, "hidden_size": 12}},
        "session_episodes": 2, "chat_turns": 12, "probe_turns": 12,
    },
}

END_TO_END = [
    ("setup_s", "s"), ("pipeline_s", "s"), ("teacher_turns_per_s", "1/s"),
    ("student_turns_per_s", "1/s"), ("decode_turns_per_s", "1/s"),
    ("chat_turn_p50_ms", "ms"), ("chat_turn_p99_ms", "ms"), ("peak_rss_mb", "MB"),
]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def mtss(*argv) -> tuple[int, float]:
    """One ``mtss`` command through ``cli.main``: (exit code, seconds). Its
    table output is discarded."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, time.perf_counter() - start


class Ledger:
    """Attempted and failed operations; an operation fails on any wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


class ScriptedUser:
    """stdin and stdout for ``cmd_chat``: hands over one line at a time and
    times each turn from the hand-over to the write of the reply.

    Sessions are separated by ``/reset`` and cycle without end; one
    ``cmd_chat`` call lasts until ``stop(self)`` holds before a session.
    """

    def __init__(self, sessions: list[list[str]]):
        self._sessions = itertools.cycle(sessions)
        self.stop = None
        self.latencies: list[float] = []
        self.replies: list[str] = []
        self.sessions_done = 0
        self._digest = hashlib.sha256()
        self._tokens = 0
        self._sent: float | None = None
        self._line = ""

    def __iter__(self):
        while not self.stop(self):
            for line in next(self._sessions):
                self._line = line
                self._sent = time.perf_counter()
                yield line
            yield "/reset"
            self.sessions_done += 1

    def write(self, text: str) -> None:
        if self._sent is None:  # greeting, "(history cleared)", line ends
            return
        self.latencies.append(time.perf_counter() - self._sent)
        self._sent = None
        self.replies.append(text)
        if self.sessions_done < FINGERPRINT_SESSIONS:
            self._digest.update(f"{self._line}\t{text}\n".encode("utf-8"))
            self._tokens += len(text.split())

    def flush(self) -> None:
        pass

    def fingerprint(self) -> tuple[str, int]:
        """sha256 of the first sessions' lines and replies, and the reply tokens in them."""
        return self._digest.hexdigest(), self._tokens


def user_lines(episode) -> list[str]:
    """Raw user lines of an episode: each placeholder filled with the turn's belief value."""
    lines = []
    for turn in episode.turns:
        words = []
        for token in turn.user:
            domain, _, slot = token[1:-1].partition("_")
            value = turn.belief.get(domain, {}).get(slot) if token.startswith("[") else None
            words.append(value if value is not None else token)
        lines.append(" ".join(words))
    return lines


def sessions_of(episodes, per_session: int) -> list[list[str]]:
    return [[line for episode in episodes[i:i + per_session] for line in user_lines(episode)]
            for i in range(0, len(episodes), per_session)]


def build_reference(size: str) -> Path:
    """Train the reference student once per checkout; later calls reuse it.

    It is built in a scratch directory and renamed into place, so a run that
    is cut short leaves no half-built reference behind.
    """
    home = WORK / f"reference-{size}"
    if (home / "reference.json").is_file():
        return home
    config = SIZES[size]["reference"]
    scratch = WORK / f"reference-{size}.building-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    synth = write_json(scratch / "synth.json", config["synth"])
    train = write_json(scratch / "train.json", config["train"])
    for argv in (("prepare", "--synth-config", synth, "--out", scratch / "data"),
                 ("train-teachers", "--data", scratch / "data", "--out", scratch / "teachers",
                  "--config", train),
                 ("train-student", "--data", scratch / "data", "--teachers", scratch / "teachers",
                  "--out", scratch / "student", "--config", train, *ALPHAS)):
        code, _ = mtss(*argv)
        if code != 0:
            raise RuntimeError(f"building the reference student: mtss {argv[0]} exited {code}")
    checkpoints = sorted(scratch.glob("*/*.ckpt"))
    write_json(scratch / "reference.json", {
        "config": config, "sha256": {p.relative_to(scratch).as_posix(): sha256(p) for p in checkpoints}})
    try:
        os.replace(scratch, home)
    except OSError:  # another run built it first
        shutil.rmtree(scratch, ignore_errors=True)
    return home


class Run:
    def __init__(self, workload: str, seed: int, size: str, workdir: Path):
        self.workload, self.size, self.workdir = workload, SIZES[size], workdir
        self.ledger = Ledger()
        self.reference = build_reference(size)
        self.model = self.reference / "student" / "student.ckpt"
        reference = json.loads((self.reference / "reference.json").read_text())
        self.fingerprint = {f"reference/{name}": digest for name, digest in reference["sha256"].items()}

        workdir.mkdir(parents=True, exist_ok=True)
        s = self.size
        self.train_config = write_json(workdir / "train.json", {**s["train"], "seed": seed})
        episodes = self.train_episodes(seed, s["train_turns"])
        # Episodes are seeded one by one, so both corpora share the train split.
        self.synth_small = write_json(workdir / "synth_small.json", {
            "seed": seed, "train_episodes": episodes, "test_episodes": s["test_episodes"]})
        self.synth_big = write_json(workdir / "synth_big.json", {
            "seed": seed, "train_episodes": episodes, "test_episodes": s["big_test_episodes"]})

    def train_episodes(self, seed: int, turns: int) -> int:
        """The fewest train episodes whose training part (validation episodes
        held out) has ``turns`` turns, so that a pipeline does the same amount
        of training whatever the seed."""
        # An episode has at least one turn, and episode k is the same for any count.
        train, _ = gen_corpus(SynthConfig(seed=seed, train_episodes=turns, test_episodes=1))
        config = training.TrainingConfig.from_dict(json.loads(self.train_config.read_text()))
        for count in range(1, turns + 1):
            part, _ = training.split_train_val(
                Corpus(train.schemas, train.database, train.episodes[:count]), config.val_fraction)
            if sum(len(e.turns) for e in part.episodes) >= turns:
                return count
        return turns

    # -- operations ---------------------------------------------------------------

    def command(self, *argv) -> tuple[bool, float]:
        code, seconds = mtss(*argv)
        return self.ledger.record(code == 0, f"mtss {argv[0]} exited {code}"), seconds

    def setup(self, out: Path) -> tuple[Path, list[list[str]], list[list[str]]]:
        """Prepare the large-test-split corpus from the seed and build the chat
        scripts from its test episodes. ``mtss evaluate`` reads vocabularies
        from its data directory, so those of the reference student go there."""
        self.command("prepare", "--synth-config", self.synth_big, "--out", out)
        for name in ("vocab_in.json", "vocab_out.json"):
            shutil.copyfile(self.reference / "data" / name, out / name)
        episodes = load_corpus(out / "corpus_test.json").episodes
        return out, sessions_of(episodes, self.size["session_episodes"]), sessions_of(episodes, 1)

    def check_gold(self, data: Path) -> None:
        """Gold responses must score Inform = Success = 1.0."""
        corpus = load_corpus(data / "corpus_test.json")
        gold = {(e.episode_id, i): t.system for e in corpus.episodes for i, t in enumerate(e.turns)}
        report = metrics.score_corpus(corpus, gold)
        self.ledger.record(report.inform == 1.0 and report.success == 1.0,
                           f"gold responses scored inform={report.inform} success={report.success}")

    def evaluate(self, model: Path, data: Path, out: Path) -> dict:
        ok, seconds = self.command("evaluate", "--model", model, "--data", data, "--out", out)
        corpus = load_corpus(data / "corpus_test.json")
        turns = sum(len(e.turns) for e in corpus.episodes)
        generated = out / "generated.jsonl"
        lines = len(generated.read_text(encoding="utf-8").splitlines()) if ok else 0
        self.ledger.record(lines == turns, f"evaluate wrote {lines} generated lines for {turns} test turns")
        return {"seconds": seconds, "decode_turns_per_s": turns / seconds, "generated": generated}

    def pipeline(self, out: Path) -> dict:
        """prepare -> train-teachers -> train-student -> evaluate, from the seed."""
        data, teachers, student = out / "data", out / "teachers", out / "student"
        _, prepare_s = self.command("prepare", "--synth-config", self.synth_small, "--out", data)
        _, teachers_s = self.command("train-teachers", "--data", data, "--out", teachers,
                                     "--config", self.train_config)
        ok, student_s = self.command("train-student", "--data", data, "--teachers", teachers,
                                     "--out", student, "--config", self.train_config, *ALPHAS)
        config = training.TrainingConfig.from_dict(json.loads(self.train_config.read_text()))
        log = (student / "student_log.jsonl").read_text().splitlines() if ok else []
        records = [json.loads(line) for line in log]
        self.ledger.record(
            len(records) == config.epochs and all(
                math.isfinite(r[k]) for r in records for k in ("nll", "kd_text", "kd_policy", "total")),
            "student_log.jsonl is missing epochs or has a non-finite loss")
        evaluated = self.evaluate(student / "student.ckpt", data, out / "eval")
        train_part, _ = training.split_train_val(
            load_corpus(data / "corpus_train.json"), config.val_fraction)
        turns = sum(len(e.turns) for e in train_part.episodes)
        return {
            "pipeline_s": prepare_s + teachers_s + student_s + evaluated["seconds"],
            "teacher_turns_per_s": turns * (config.teacher_epochs + config.finetune_epochs) / teachers_s,
            "student_turns_per_s": turns * config.epochs / student_s,
            "sha256": {f"pipeline/{p.relative_to(out).as_posix()}": sha256(p) for p in
                       sorted(teachers.glob("*.ckpt")) + [student / "student.ckpt", evaluated["generated"]]},
            "data": data,
        }

    def chat(self, user: ScriptedUser, data: Path, stop) -> None:
        """One ``mtss chat --lexicalize`` session with the reference student."""
        args = cli.build_parser().parse_args(
            ["chat", "--model", str(self.model), "--data", str(data / "corpus_train.json"),
             "--lexicalize"])
        user.stop = stop
        done = len(user.replies)
        code = cli.cmd_chat(args, user, user)
        self.ledger.record(code == 0, f"mtss chat exited {code}")
        for reply in user.replies[done:]:
            self.ledger.record(reply != SORRY, "chat turn replied with the apology")

    def check_rerun(self, fingerprint: dict, digests: dict) -> None:
        for name, digest in digests.items():
            self.ledger.record(fingerprint.setdefault(name, digest) == digest, f"rerun changed {name}")

    # -- whole runs ------------------------------------------------------------------

    def measured(self, seconds: float) -> tuple[dict, dict]:
        """Setup, then ``seconds`` of rounds. Returns the end-to-end values and
        the determinism fingerprint."""
        setup_times = []

        def timed_setup(index: int):
            start = time.perf_counter()
            result = self.setup(self.workdir / f"setup-{index}")
            setup_times.append(time.perf_counter() - start)
            return result

        data, sessions, probe = timed_setup(0)
        self.check_gold(data)
        fingerprint = dict(self.fingerprint)
        user = ScriptedUser(sessions if self.workload == "chat" else probe)
        turns = self.size["chat_turns" if self.workload == "chat" else "probe_turns"]
        ops, rates = [], []
        start = time.perf_counter()
        for r in range(ROUNDS):
            round_end = start + seconds * (r + 1) / ROUNDS
            # One more setup per round, so that the median setup time samples
            # the whole run rather than one moment of it.
            timed_setup(r + 1)
            while True:
                out = self.workdir / f"pipeline-{len(ops)}"
                ops.append(self.pipeline(out))
                self.check_rerun(fingerprint, ops[-1]["sha256"])
                if len(ops) == 1:
                    self.check_gold(ops[0]["data"])
                shutil.rmtree(out)
                if self.workload != "pipeline" or time.perf_counter() >= round_end:
                    break
            while self.workload == "evaluate":
                out = self.workdir / f"evaluate-{len(rates)}"
                result = self.evaluate(self.model, data, out)
                rates.append(result["decode_turns_per_s"])
                self.check_rerun(fingerprint, {"evaluate/generated.jsonl": sha256(result["generated"])})
                shutil.rmtree(out)
                if time.perf_counter() >= round_end:
                    break
            # Each round's share of the chat turns; p99 needs at least 1000, so
            # the chat workload keeps talking past the round's end until it has them.
            share = turns * (r + 1) // ROUNDS
            if self.workload == "chat":
                self.chat(user, data, lambda u, end=round_end, n=share:
                          time.perf_counter() >= end and len(u.latencies) >= n)
            else:
                self.chat(user, data, lambda u, n=share: len(u.latencies) >= n)

        values = {"setup_s": statistics.median(setup_times)}
        for key in ("pipeline_s", "teacher_turns_per_s", "student_turns_per_s"):
            values[key] = statistics.median(op[key] for op in ops)
        if self.workload == "evaluate":
            values["decode_turns_per_s"] = statistics.median(rates)
        else:
            values["decode_turns_per_s"] = len(user.latencies) / sum(user.latencies)
        cuts = statistics.quantiles([1000.0 * s for s in user.latencies], n=100, method="inclusive")
        values["chat_turn_p50_ms"], values["chat_turn_p99_ms"] = cuts[49], cuts[98]
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        fingerprint["chat/transcript"], fingerprint["chat/reply_tokens"] = user.fingerprint()
        return values, fingerprint

    def fixed(self, twice) -> tuple[dict, dict]:
        """The same work whatever the machine's speed, for the traced run:
        setup, one pipeline, one evaluate (``evaluate`` only) and the chat
        turns of one measured run. ``twice(step)`` runs each step untraced,
        then traced, and returns both results by tag. Returns the two
        determinism fingerprints."""
        setups = twice(lambda tag: self.setup(self.workdir / f"{tag}-setup"))
        ops = twice(lambda tag: self.pipeline(self.workdir / f"{tag}-pipeline"))
        prints = {tag: {**self.fingerprint, **op["sha256"]} for tag, op in ops.items()}
        if self.workload == "evaluate":
            results = twice(lambda tag: self.evaluate(self.model, setups[tag][0],
                                                      self.workdir / f"{tag}-evaluate"))
            for tag, result in results.items():
                prints[tag]["evaluate/generated.jsonl"] = sha256(result["generated"])
        script, turns = (1, self.size["chat_turns"]) if self.workload == "chat" else \
            (2, self.size["probe_turns"])
        users = {tag: ScriptedUser(setup[script]) for tag, setup in setups.items()}
        for chunk in range(1, ROUNDS + 1):
            share = turns * chunk // ROUNDS
            twice(lambda tag: self.chat(users[tag], setups[tag][0], lambda u: len(u.latencies) >= share))
        for tag, user in users.items():
            prints[tag]["chat/transcript"], prints[tag]["chat/reply_tokens"] = user.fingerprint()
        return prints["untraced"], prints["traced"]


def traced(run: Run, label: str) -> tuple[dict, dict]:
    """The fixed work, each step untraced and then traced right after it, so
    that both see the same machine: per-layer values and the overhead."""
    tracer = Tracer()
    seconds = {"untraced": 0.0, "traced": 0.0}

    def twice(step) -> dict:
        results = {}
        for tag in seconds:
            if tag == "traced":
                install(tracer)
            start = time.perf_counter()
            try:
                results[tag] = step(tag)
            finally:
                seconds[tag] += time.perf_counter() - start
                tracer.uninstall()
        return results

    plain, again = run.fixed(twice)
    run.check_rerun(plain, again)
    values = per_layer_values(tracer)
    values["trace.overhead_s"] = seconds["traced"] - seconds["untraced"]
    values["trace.overhead_pct"] = 100.0 * values["trace.overhead_s"] / seconds["untraced"]
    plain["models.decode_greedy.tokens"] = values["models.decode_greedy.tokens"]
    tracer.write(WORK / "results" / f"{label}-spans.json",
                 {"environment": environment(ROOT), **{f"{tag}_s": s for tag, s in seconds.items()}})
    return values, plain


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload; see perfbench/README.md.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny: a seconds-long run for the smoke test")
    parser.add_argument("--build-only", action="store_true",
                        help="train the reference student if this checkout has none, then exit")
    args = parser.parse_args(argv)
    if args.build_only:
        build_reference(args.size)
        return 0

    label = f"{args.workload}-seed{args.seed}-{args.size}"
    workdir = WORK / f"run-{os.getpid()}"
    try:
        run = Run(args.workload, args.seed, args.size, workdir)
        if args.trace:
            values, fingerprint = traced(run, label)
            units = dict(PER_LAYER)
        else:
            values, fingerprint = run.measured(args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures, attempted = run.ledger.failures, run.ledger.attempted
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(ROOT), "fingerprint": fingerprint,
              "attempted": attempted, "failures": failures, "values": values}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{label}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for key in ("environment", "fingerprint"):
        print(f"{key}: {json.dumps(record[key], sort_keys=True)}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(f"{'fail_ratio':<36} {len(failures) / attempted:>14.6f} ratio ({len(failures)}/{attempted})")
    for name, unit in units.items():
        print(f"{name:<36} {values[name]:>14.6f} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
