"""`python -m stclear`: the `stclear` command line (`stclear.cli_io.main`)."""

import sys

from .cli_io import main

if __name__ == "__main__":
    sys.exit(main())
