"""Run one mckay-moduli command with its layers traced.

    python3 shim.py SPANS_FILE JOB_ID ARG...

installs the span tracer, calls mckay_moduli.cli.main(ARG...) and writes
the spans to SPANS_FILE when the process exits.  The package must be on
PYTHONPATH.
"""

import sys

from spans import Tracer


def main():
    spans_path, job_id, *argv = sys.argv[1:]
    tracer = Tracer(job_id)
    tracer.install()
    from mckay_moduli import cli

    try:
        code = cli.main(argv)
    finally:
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
