"""``python -m repro <command>`` — the :func:`repro.cli.main` dispatcher."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
