"""``python -m hardybox``: the same command line as the ``hardybox`` script."""

from .cli import entry

entry()
