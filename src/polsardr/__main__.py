"""``python -m polsardr``: the command-line driver, as the ``polsardr`` script."""
from polsardr.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
