"""One CLI command in a fresh interpreter; prints one JSON record.

Usage: python3 child.py '<job json>'

The job names the source tree, the argv, the driver's monotonic clock at
spawn (CLOCK_MONOTONIC is shared between processes on Linux, so set-up time
includes interpreter start), whether to check the output and whether to
trace.  The command runs in-process through ``riordanlbp.cli.main`` with
stdout captured, so argument parsing and rendering are timed.  Checks and
span output run after the timer stops and are reported as ``after_s``.
"""

import json
import sys
import time

job = json.loads(sys.argv[1])
sys.path.insert(0, job["src"])

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import riordanlbp  # noqa: E402
from riordanlbp import cli  # noqa: E402
from speedometer import Speedometer  # noqa: E402

argv = list(job["argv"])
setup_s = time.monotonic() - job["spawn"]
record = {"setup_s": setup_s, "rc": None, "error": None}
if not os.path.abspath(riordanlbp.__file__).startswith(os.path.abspath(job["src"])):
    raise SystemExit(f"riordanlbp imported from {riordanlbp.__file__}, not {job['src']}")

tracer = None
if job["trace"]:
    import riordanlbp.scenarios  # noqa: E402,F401  -- so its registry is wrapped
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.start()

out, err = io.StringIO(), io.StringIO()
speed = Speedometer()
t0 = time.perf_counter()
try:
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), speed:
        record["rc"] = cli.main(argv)
except SystemExit as exc:  # argparse rejects the argv
    record["rc"] = exc.code
except Exception:
    record["error"] = traceback.format_exc(limit=5)
cmd_s = time.perf_counter() - t0
if tracer is not None:
    tracer.stop()
after = time.perf_counter()

stdout = out.getvalue()
data = stdout.encode()
record.update(
    cmd_s=cmd_s,
    work=speed.work(),
    rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    out_bytes=len(data),
    sha256=hashlib.sha256(data).hexdigest(),
    stderr=err.getvalue()[-2000:],
)
if job["check"] and record["error"] is None:
    import checks

    try:
        record["check"] = checks.check(argv, record["rc"], stdout, job["points"])
    except Exception as exc:  # any failure to parse or match is a wrong output
        record["error"] = f"check failed: {type(exc).__name__}: {exc}"
if tracer is not None:
    record["trace"] = tracer.summary()
    tracer.write(job["trace_file"], job["trace_id"], argv)
record["after_s"] = time.perf_counter() - after
print(json.dumps(record))
