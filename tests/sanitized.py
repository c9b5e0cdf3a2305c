"""Run the compiled kernels' tests on a build under AddressSanitizer and
UndefinedBehaviorSanitizer.

    LD_PRELOAD="$(gcc -print-file-name=libasan.so) $(gcc -print-file-name=libubsan.so)" \
    ASAN_OPTIONS=detect_leaks=0:allocator_may_return_null=1 \
    PYTHONPATH=src python tests/sanitized.py [pytest options]

The library is built with the usual flags plus the sanitizers, into a
temporary directory, so the cached build is neither used nor replaced. The
sanitizer runtimes must be preloaded, since the Python binary is not
instrumented. Leak detection is off because the interpreter keeps memory
until it exits. A failed allocation returns NULL instead of aborting, so
the kernels' own out-of-memory paths run. Any report aborts the run, with
a nonzero exit; pytest captures only Python's streams, so the report
reaches the terminal.
"""

import sys
import tempfile
from pathlib import Path

import pytest

from pervml import _kernels

SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")
TESTS = ("test_gbrt.py", "test_svr.py", "test_tuning.py")


def main(argv) -> int:
    here = Path(__file__).resolve().parent
    with tempfile.TemporaryDirectory(prefix="pervml-sanitized-") as cache:
        _kernels._CC = (*_kernels._CC, *SANITIZE)
        _kernels._CACHE = Path(cache)
        return pytest.main(["--capture=sys", *(str(here / name) for name in TESTS), *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
