"""`python -m finalg`: the same command line as the `finalg` script."""
from .cli import entry

if __name__ == "__main__":
    entry()
