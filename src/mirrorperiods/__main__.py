"""`python -m mirrorperiods`: the mirrorperiods command without installation."""

import sys

from .cli import main

sys.exit(main())
