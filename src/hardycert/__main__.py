"""``python -m hardycert``: the ``hardycert`` console script's entry point,
``hardycert.cli.entry``, which ends the process once the report is flushed.

Guarded, so importing this module (pytest, pydoc) runs nothing."""

from .cli import entry

if __name__ == "__main__":
    entry()
