"""Process entry of ``python -m quditgraphs`` and the ``quditgraphs`` script.

No verb calls BLAS: every result is exact int64 arithmetic. OpenBLAS would
still start a worker thread per core when numpy loads, so the entry asks for
one thread before anything can import numpy. A value the caller exported
wins. A library ``import quditgraphs`` leaves the environment alone.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402 (after the setting: cli may load numpy)

if __name__ == "__main__":
    raise SystemExit(main())
