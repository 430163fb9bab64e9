"""A differential grid over the CLI: every argv of ``GRID`` must print the
same stdout and stderr and return the same exit code as when its digest was
recorded.

The grid is every ``generate`` variant (each kind with each of its routes,
shapes and families) at ``PAIRS`` and orders 0-9, in csv and json; every
``verify`` scenario at its default, in json and at orders 8, 10 and 13;
``oeis-check all``; a few usage errors; ``hankel`` and ``toeplitz`` at
``LARGE_ORDERS``; ``production`` at ``PRODUCTION_ORDERS``;
``cfrac-expand`` in each shape at ``CFRAC_ORDERS``; and ``moments`` by the
``shifted_tfraction`` route at ``TFRACTION_ORDERS``, in csv.  Each argv
runs in-process with ``COLUMNS`` fixed, since argparse wraps its usage text
to the terminal width.  Its digest is the first 16 hex digits of the sha256
of its stdout, its stderr and its exit code together.

``tests/data/cli_grid.json`` is the list of the digests in grid order.  To
record, set an entry to ``null``, or append an argv to the grid, and run
``PYTHONPATH=src python tests/test_cli_grid.py``: it records the digest of
the current code for the ``null`` entries and for the argvs past the end of
the list only, and leaves every other entry as it is.  So run it before the
change whose output the grid is meant to hold fixed.  A digest is matched by
its position, so a cell added anywhere but at the end shifts the ones after
it, and they must be recorded again at the parent.  argparse's wording of
usage errors can differ between Python versions, so the digests hold for
the version they were recorded on (3.11).
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from riordanlbp.cli import main
from riordanlbp.lbp import MOMENT_ROUTES
from riordanlbp.orthopoly import ORTHO_KINDS

DIGESTS = Path(__file__).parent / "data" / "cli_grid.json"

#: every generate kind with each of its routes, shapes and families
VARIANTS = (
    [("lbp-coeffs",), ("production",), ("hankel",), ("toeplitz",)]
    + [("moments", "--route", route) for route in MOMENT_ROUTES]
    + [("cfrac-expand", "--shape", shape) for shape in "sjt"]
    + [("ortho-array", "--family", family) for family in ORTHO_KINDS]
)

#: (b, c): both symbolic, rational, mixed on either side, the five zero
#: loci, b+c = 0 and 2b+c = 0
PAIRS = (
    ("sym", "sym"),
    ("3/2", "-1/3"), ("129/74", "-43/111"), ("1", "1"),
    ("sym", "3/2"), ("sym", "-1/3"), ("-1/3", "sym"), ("2", "sym"), ("sym", "-43/111"),
    ("1", "sym"),
    ("0", "1"), ("1", "0"), ("0", "0"), ("0", "sym"), ("sym", "0"),
    ("1", "-1"),
    ("1", "-2"), ("-3/2", "3"),
)

SCENARIOS = ("all", "example1", "example2", "example3", "example4", "factorizations",
             "hankel", "toeplitz", "cfrac")

USAGE_ERRORS = (
    (),
    ("generate",),
    ("generate", "nonesuch"),
    ("generate", "moments", "--b", "x"),
    ("generate", "moments", "--order", "-1"),
    ("generate", "moments", "--route", "nonesuch"),
    ("verify", "nonesuch"),
    ("verify", "all", "--order", "7"),
    ("oeis-check", "A999999"),
)

#: hankel and toeplitz past the grid's orders, on a rational pair of the
#: benchmark and at (sym, sym)
LARGE_ORDERS = (
    (("--b=141/86", "--c=-47/129"), (24, 32, 40)),
    (("--b=sym", "--c=sym"), (12, 16)),
)

#: production past the grid's orders, on a rational pair of the benchmark
#: and at (sym, sym)
PRODUCTION_ORDERS = (
    (("--b=141/86", "--c=-47/129"), (40, 64, 128)),
    (("--b=sym", "--c=sym"), (20, 32, 48)),
)

#: cfrac-expand past the grid's orders, at (sym, sym) and on a rational
#: pair of the benchmark
CFRAC_ORDERS = (
    (("--b=sym", "--c=sym"), (18, 32)),
    (("--b=141/86", "--c=-47/129"), (36, 64)),
)

#: moments by the shifted_tfraction route past the grid's orders, at
#: (sym, sym) and on a rational pair of the benchmark
TFRACTION_ORDERS = (
    (("--b=sym", "--c=sym"), (26, 56)),
    (("--b=141/86", "--c=-47/129"), (56, 128)),
)

GRID = (
    [("generate", *variant, f"--b={b}", f"--c={c}", "--order", str(order), *fmt)
     for variant in VARIANTS
     for b, c in PAIRS
     for order in range(10)
     for fmt in ((), ("--format", "json"))]
    + [("verify", scenario, *options)
       for scenario in SCENARIOS
       for options in ((), ("--format", "json"), ("--order", "8"), ("--order", "10"),
                       ("--order", "13"))]
    + [("oeis-check", "all")]
    + list(USAGE_ERRORS)
    + [("generate", kind, *params, "--order", str(order))
       for params, orders in LARGE_ORDERS
       for kind in ("hankel", "toeplitz")
       for order in orders]
    + [("generate", "production", *params, "--order", str(order))
       for params, orders in PRODUCTION_ORDERS
       for order in orders]
    + [("generate", "cfrac-expand", "--shape", shape, *params, "--order", str(order))
       for params, orders in CFRAC_ORDERS
       for shape in "sjt"
       for order in orders]
    + [("generate", "moments", "--route", "shifted_tfraction", *params, "--order", str(order))
       for params, orders in TFRACTION_ORDERS
       for order in orders]
)


def digest(argv) -> str:
    """The first 16 hex digits of the sha256 of argv's stdout, stderr and
    exit code, run in-process at a fixed terminal width."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse
            code = exc.code
    text = json.dumps([out.getvalue(), err.getvalue(), code])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_grid_output_is_unchanged(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    recorded = json.loads(DIGESTS.read_text())
    assert len(recorded) == len(GRID) and None not in recorded, "grid not recorded"
    changed = [argv for argv, pin in zip(GRID, recorded) if digest(argv) != pin]
    assert not changed, (f"{len(changed)} of {len(GRID)} argvs changed output, "
                         f"first `riordanlbp {' '.join(changed[0])}`")


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else []
    recorded += [None] * (len(GRID) - len(recorded))
    DIGESTS.write_text(json.dumps([pin or digest(argv) for argv, pin in zip(GRID, recorded)],
                                  indent=0) + "\n")
