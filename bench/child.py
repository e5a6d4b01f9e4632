"""One benchmark sample: a fresh interpreter runs one workload's commands.

    PYTHONPATH=src python3 bench/child.py --commands '<JSON list of argv lists>'
        [--setup-only] [--trace PATH]

Set-up is the import of `ainfty` plus loading every command's document, the
cost a user pays on each invocation.  The commands then run in order through
`ainfty.cli.main`, each on its preloaded document, with stdout captured.
The last line printed is a JSON object with the timings, the child's CPU time
and peak RSS, the exit codes, the `checked` total, the number of FAIL lines
and the sha256 of the concatenated report text.  With `--trace`, the tracer
is installed before the documents load, its spans and counters are written to
PATH and its per-layer metrics are added to the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import sys
import time

_CHECKED = re.compile(r"^  checked = (\d+)$", re.MULTILINE)
_FAIL = re.compile(r"^\[[^\]]*\] FAIL$", re.MULTILINE)


def _input_path(argv):
    return argv[argv.index("--input") + 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    opts = parser.parse_args(argv)
    commands = json.loads(opts.commands)

    start = time.perf_counter()
    import ainfty.cli as cli
    import ainfty.document as document

    tracer = None
    if opts.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    docs = [(path, document.load(path)) for path in map(_input_path, commands)]
    loaded = time.perf_counter()
    if opts.setup_only:
        print(json.dumps({"setup_s": loaded - start}))
        return 0

    def preloaded(path):
        want, doc = docs.pop(0)
        if path != want:
            raise RuntimeError("expected a load of %s, got %s" % (want, path))
        return doc

    cli.load = preloaded
    out = io.StringIO()
    codes = []
    for argv in commands:
        with contextlib.redirect_stdout(out):
            codes.append(cli.main(argv))
    done = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    text = out.getvalue()
    result = {
        "setup_s": loaded - start,
        "verdict_s": done - loaded,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_codes": codes,
        "checked": sum(int(n) for n in _CHECKED.findall(text)),
        "fail_lines": len(_FAIL.findall(text)),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        result["trace_missing"] = tracer.missing
        tracer.dump(opts.trace, {"commands": commands, "verdict_s": result["verdict_s"]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
