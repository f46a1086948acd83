import sys

from .errors import OUT_OF_MEMORY

try:
    from .cli import main
except MemoryError:
    print(OUT_OF_MEMORY, file=sys.stderr)
    raise SystemExit(3)

if __name__ == "__main__":
    raise SystemExit(main())
