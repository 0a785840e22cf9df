"""Run the command-line interface as ``python -m coaxcasimir``."""

from .cli import entrypoint

entrypoint()
