"""`python3 -m sessionpi`: the command line front end, as `sessionpi`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
