"""``python -m bregprox``: the bregprox command line."""

from .cli import main

raise SystemExit(main())
