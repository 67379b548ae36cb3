"""``python -m calderon_bench``: the ``calderon-bench`` command without an
install."""

import sys

from .cli import main

sys.exit(main())
