"""``python -m perfcolor``: the same command line as the ``perfcolor`` script."""

import sys

from .cli import main

sys.exit(main())
