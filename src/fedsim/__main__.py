"""``python -m fedsim``: the same entry point as the ``fedsim`` command."""
import sys

from .cli import main

sys.exit(main())
