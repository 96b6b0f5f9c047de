"""Run one jchsim CLI command in this fresh interpreter and record what it cost.

Usage: python3 child.py RECORD.json TRACE [-- CLI-ARGS...]

Writes a JSON record: import_s (``import jchsim.cli``, numpy included),
wall_s (entry into ``cli_main`` until it returns with its artifacts written),
exit code, peak resident set and, with TRACE = 1, the layer spans.  Without
CLI arguments it only times the import.
"""

import json
import resource
import sys
import time


def main():
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:] if "--" in sys.argv else None
    start = time.perf_counter()
    import jchsim.cli

    import_s = time.perf_counter() - start
    if argv is None:
        _write(record_path, {"import_s": import_s})
        return 0
    cli_main = jchsim.cli.cli_main
    if trace:
        import spans

        tracer = spans.Tracer()
        cli_main = spans.install(tracer)
    start = time.perf_counter()
    code = cli_main(argv)
    wall_s = time.perf_counter() - start
    record = {
        "exit": code,
        "import_s": import_s,
        "wall_s": wall_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if trace else None,
    }
    _write(record_path, record)
    return code


def _write(path, record):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
