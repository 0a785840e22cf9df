"""Print one ``name sha256`` line per package output, to compare two trees.

Run it in each checkout and diff what it prints; a refactor that keeps
every output's bits prints the same lines::

    python3 tools/output_digest.py > digest.txt

It imports the package from the ``src/`` of the checkout it sits in,
whatever the working directory or ``PYTHONPATH``.

The outputs are the ``repr`` of the exact energy and pressure at a range
of radius ratios, from near contact to far apart, and of the
double-integral energy at alpha = 2, and the stdout of the CLI commands
whose numbers README quotes.  Each API line ends with the ``repr`` of
its result's ``value`` and ``error``, so a diff of two digests shows how
far each number moved, not only that it moved.  It takes no options.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coaxcasimir import cli  # noqa: E402
from coaxcasimir.exact import (  # noqa: E402
    interaction_energy,
    interaction_energy_double_integral,
    pressure_inner,
)

RATIOS = (1.0001, 1.001, 1.01, 1.05, 1.09, 1.1, 1.5, 2.0, 4.0, 10.0, 1e4,
          1e10, 1e14)

COMMANDS = (
    ("energy", "--alpha", "1.01", "--per-order"),
    ("sweep", "--workers", "1"),
    ("sweep", "--workers", "2"),
    ("fit-p", "--mode", "energy"),
    ("fit-p", "--mode", "pressure"),
    ("eccentric", "--inner-radius", "0.01", "--outer-radius", "0.0101",
     "--length", "0.05", "--offset-fractions", "0,0.25,0.5"),
    ("orbits", "--alpha", "2.0", "--length-cap", "20"),
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stdout(argv) -> str:
    """The stdout of one CLI command, with its exit code appended."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return f"{out.getvalue()}exit {code}\n"


def _api_line(name: str, result) -> str:
    """The hash of the result's ``repr``, then its value and error."""
    return (f"{name} {_sha(repr(result))} value={result.value!r} "
            f"error={result.error!r}")


def main() -> None:
    for ratio in RATIOS:
        print(_api_line(f"interaction_energy({ratio!r})",
                        interaction_energy(ratio)))
        print(_api_line(f"pressure_inner({ratio!r})", pressure_inner(ratio)))
    print(_api_line("interaction_energy_double_integral(2.0)",
                    interaction_energy_double_integral(2.0)))
    for argv in COMMANDS:
        print("cli:" + "_".join(argv), _sha(_stdout(argv)))


if __name__ == "__main__":
    main()
