"""``python -m repro.experiments list`` / ``run <id>|all``: the experiment CLI."""

import sys

from .cli import main

sys.exit(main())
