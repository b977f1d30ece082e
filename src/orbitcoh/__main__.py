"""``python -m orbitcoh``: the same command line as ``orbitcoh.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
