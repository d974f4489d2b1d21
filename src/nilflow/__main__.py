"""Entry point for ``python -m nilflow``."""

import sys

from .cli import main

sys.exit(main())
