"""``python -m cellqec``: the ``cellqec`` command without an install."""
import sys

from .cli import main

sys.exit(main())
