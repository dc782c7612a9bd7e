"""`python -m securebeam`: the `securebeam` command from a source checkout."""
import sys

from .cli import main

if __name__ == "__main__":  # importing the module, as a walk of the package does, runs nothing
    sys.exit(main())
