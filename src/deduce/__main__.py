"""``python -m deduce``: the command-line front end (``deduce.cli``)."""

import sys

from .cli import main

sys.exit(main())
