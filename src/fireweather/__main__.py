"""``python -m fireweather``: the command-line front end, as ``fireweather.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
