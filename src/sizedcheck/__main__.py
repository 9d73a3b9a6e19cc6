"""Entry point for `python -m sizedcheck`."""

import sys

from .cli import main

sys.exit(main())
