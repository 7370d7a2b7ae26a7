"""``python -m nijconf``: the command-line front end of :mod:`nijconf.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
