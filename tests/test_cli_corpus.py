"""The frozen CLI corpus: every command gives the bytes recorded in
``tests/golden/cli/digests.json`` (see ``tests/cli_corpus.py``)."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import homred
from cli_corpus import COMMANDS, DIGESTS, run_corpus

GOLDEN = json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.mark.parametrize("name", sorted(GOLDEN.keys() | {name for name, _ in COMMANDS}))
def test_cli_corpus(corpus, name):
    assert corpus.get(name) == GOLDEN.get(name)


def test_cli_bytes_do_not_depend_on_the_hash_seed():
    names = ["reduce-jq-to-hyperpotts", "reduce-whom-to-csp-weights-json",
             "reduce-potts-to-jq", "verify-potts-to-jq-json"]
    script = pathlib.Path(__file__).with_name("cli_corpus.py")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(homred.__file__).parents[1]))
    for seed in ("0", "4242"):
        env["PYTHONHASHSEED"] = seed
        done = subprocess.run([sys.executable, str(script), *names], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert json.loads(done.stdout) == {name: GOLDEN[name] for name in names}
