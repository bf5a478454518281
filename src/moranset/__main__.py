"""`python -m moranset`: the command-line interface (`moranset.cli`)."""
from .cli import main
if __name__ == "__main__":
    main()
