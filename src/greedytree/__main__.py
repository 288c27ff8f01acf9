"""``python -m greedytree``: the command-line interface of :mod:`greedytree.cli`."""

import sys

from .cli import main

if __name__ == "__main__":  # importing the module runs nothing
    sys.exit(main())
