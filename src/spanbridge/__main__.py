"""`python -m spanbridge ...` runs the spanbridge command."""

from .cli import main

if __name__ == "__main__":
    main()
