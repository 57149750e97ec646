"""``python -m lse``: the ``lse`` command line (see :func:`lse.io_cli.main`)."""

from .io_cli import main

__all__: list[str] = []

if __name__ == "__main__":
    raise SystemExit(main())
