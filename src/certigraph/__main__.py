"""``python -m certigraph``: the same command line as the ``certigraph`` script."""

from .cli import main

if __name__ == "__main__":
    main()
