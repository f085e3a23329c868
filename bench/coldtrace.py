"""Traced stand-in for `python -m vcreg.cli` in the traced cli-cold pass.

Usage: coldtrace.py SPAN_FILE JOB_ID ARGV...

Imports vcreg.cli, wraps its modules' public functions with spans.Recorder,
runs the command and writes the spans and counters to SPAN_FILE, also when
the command raises (the traceback then prints as usual).
"""

import json
import sys

import spans

import vcreg.cli


def main():
    span_file, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    rec = spans.Recorder()
    spans.install(rec)
    rec.job = job_id
    try:
        return vcreg.cli.main(argv)
    finally:
        rec.job = None
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans, "counters": rec.counters}, fh)


if __name__ == "__main__":
    sys.exit(main())
