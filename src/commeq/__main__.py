"""``python -m commeq``: the command-line front end of ``commeq.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
