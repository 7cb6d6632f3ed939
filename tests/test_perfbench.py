"""The benchmark's tracer wraps mtss calls by name from outside: each one it
patches must still exist where it looks, and uninstalling must restore mtss."""

import sys
from pathlib import Path

import numpy as np

import mtss.cli  # noqa: F401  (imports every module the tracer patches)
from mtss.diffnum import Tape, Tensor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def mtss_namespace() -> dict:
    """Every attribute of every loaded mtss module, and of the classes they define."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "mtss" or name.startswith("mtss.")):
            continue
        for key, value in vars(module).items():
            found[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    found[(name, key, attr)] = member
    return found


def test_layers_install_then_uninstall_restores_mtss(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    before = mtss_namespace()
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        patched = {key for key, value in mtss_namespace().items() if before.get(key) is not value}
        assert ("mtss.diffnum.tape", "Tape", "lstm_sequence") in patched
        assert ("mtss.models", "_SeqModel", "encode_utterance") in patched
        # The span's work is the number of input rows, read from the first argument.
        rng = np.random.default_rng(0)
        Tape().lstm_sequence(Tensor(rng.normal(size=(5, 2))), Tensor(np.zeros((2, 3))),
                             Tensor(np.zeros((2, 3))), Tensor(rng.normal(size=(12, 5))),
                             Tensor(np.zeros(12)), [3, 2])
        assert tracer.summary()["tape.lstm_sequence"]["work"] == 5
    finally:
        tracer.uninstall()
    after = mtss_namespace()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
