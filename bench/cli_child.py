"""Run one ``todalab`` CLI command with tracing, for a traced cli round.

    python3 bench/cli_child.py SPANS_FILE <todalab arguments...>

Installs the tracer before ``todalab.cli`` is imported, so each todalab
module is patched as it loads and the child loads the same modules an
untraced ``python -m todalab`` would.  Writes the spans, the import time
of ``todalab.cli`` and the number of loaded modules to SPANS_FILE, then
exits with the command's status.
"""

import sys
import time

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.patch_on_import()
    t0 = time.perf_counter()
    import todalab.cli

    import_s = time.perf_counter() - t0
    tracer.task = 0
    rc = 1
    try:
        rc = todalab.cli.main(argv)
    finally:
        tracer.dump(out, import_s=import_s, modules=len(sys.modules), rc=rc)
    return rc


if __name__ == "__main__":
    sys.exit(main())
