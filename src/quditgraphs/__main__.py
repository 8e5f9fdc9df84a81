"""Process entry of ``python -m quditgraphs`` and the ``quditgraphs`` script.

A reader that closes stdout early (``quditgraphs ... | head``) ends the
process with status 141, 128 + SIGPIPE as a shell reports a process that
signal ended, and no traceback: exit 1 means a negative mathematical result.
Under ``python -u`` or ``PYTHONUNBUFFERED`` stdout writes straight to the
raw file, whose text layer drops the rest of a short write without a word,
so a reader that closes mid-write would go unseen and the process exit 0.
The entry then gives stdout a buffered layer, which writes every byte or
raises.

Once ``cli.main`` returns, every object the request made is garbage or
lives until exit, so ``main`` freezes them all (``gc.freeze``) and the
interpreter's shutdown collections skip them. Exit handlers, stream flushes
and profiler output still run. A library call of ``cli.main`` never freezes.
"""

import gc
import io
import os
import sys

from . import cli

EXIT_CLOSED_STDOUT = 141


def main() -> int:
    if isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        sys.stdout = open(
            sys.stdout.fileno(), "w", encoding=sys.stdout.encoding,
            errors=sys.stdout.errors, closefd=False,
        )
    try:
        code = cli.main()
        sys.stdout.flush()  # a closed reader shows up here, not at shutdown
    except BrokenPipeError:
        # Python flushes stdout again at exit; send what is left to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
