"""Byte-exact CLI output: every pinned argv must print the same stdout and
return the same exit code as when its hash was recorded.

``tests/data/cli_golden.json`` maps each argv (joined by single spaces) to
the sha256 of its stdout and its exit code.  To pin a new argv, add its key
to that file with the value ``null`` and run
``PYTHONPATH=src python tests/test_cli_golden.py``.  It records the hash and
exit code of the current code for the ``null`` keys only and leaves every
other pin as it is, so run it before the change whose output the new pin is
meant to hold fixed.  To re-record a pin on purpose, set it back to ``null``.

Every pinned argv is in the plain form ``cli`` parses without argparse, as
the benchmark's argvs are, so the check runs with ``cli.build_parser``
refused.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from riordanlbp import cli
from riordanlbp.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def run(argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv.split(" "))
    return {"stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "exit_code": code}


PINNED = json.loads(GOLDEN.read_text())


def refuse():
    raise AssertionError("argparse parser built")


@pytest.mark.parametrize("argv", sorted(PINNED))
def test_cli_output_is_byte_identical(argv, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", refuse)
    assert cli._parse_plain(argv.split(" ")) is not None
    assert run(argv) == PINNED[argv], f"output of `riordanlbp {argv}` changed"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({argv: pin or run(argv) for argv, pin in sorted(PINNED.items())},
                                 indent=1) + "\n")
