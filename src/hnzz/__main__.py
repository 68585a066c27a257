"""``python -m hnzz``: the ``hnzz`` command, runnable from a checkout."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
