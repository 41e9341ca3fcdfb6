"""Golden CLI corpus: stdout, stderr and exit status, byte for byte.

Each entry of ``data/cli_golden.json`` is one ``vallab`` invocation
(argv, optional stdin text, optional environment) with its recorded
output.  The corpus pins the JSON/TSV bytes, the error messages, the
argparse usage and help text, and the exit-code contract.

After a deliberate change of output, re-record with

    PYTHONPATH=src python tests/test_cli_golden.py --record

and review the diff of the data file.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

CORPUS = Path(__file__).parent / "data" / "cli_golden.json"

# argparse wraps usage and help text to the terminal width
_FIXED_ENV = {"COLUMNS": "80"}


def replay(entry):
    """Run one corpus entry in-process; returns (status, stdout, stderr)."""
    from vallab.cli import run

    env = {**_FIXED_ENV, **entry.get("env", {})}
    saved_env = {k: os.environ.get(k) for k in (*env, "VALLAB_DIM_CAP")}
    saved_stdin = sys.stdin
    out, err = io.StringIO(), io.StringIO()
    try:
        os.environ.pop("VALLAB_DIM_CAP", None)
        os.environ.update(env)
        sys.stdin = io.StringIO(entry.get("stdin", ""))
        with redirect_stdout(out), redirect_stderr(err):
            status = run(list(entry["argv"]))
    finally:
        sys.stdin = saved_stdin
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return status, out.getvalue(), err.getvalue()


def _load():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", _load(),
                         ids=lambda e: " ".join(e["argv"]) or "<none>")
def test_golden(entry):
    status, out, err = replay(entry)
    assert (status, out, err) == (entry["status"], entry["stdout"],
                                  entry["stderr"])


def _record():
    entries = _load()
    for entry in entries:
        entry["status"], entry["stdout"], entry["stderr"] = replay(entry)
    CORPUS.write_text(json.dumps(entries, indent=1, ensure_ascii=False)
                      + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} entries in {CORPUS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_cli_golden.py --record")
    _record()
