"""``python -m cremfan``: the same entry point as the ``cremfan`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
