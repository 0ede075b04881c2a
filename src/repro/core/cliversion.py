"""Shared ``--version`` support for every repro CLI.

All five entry points (``repro-figures``, ``repro-report``,
``repro-scenario``, ``repro-topology``, ``repro-serve``) report the same
version: the installed package metadata when available, the in-tree
``repro.__version__`` when running from a source checkout.
"""

from __future__ import annotations

import argparse

__all__ = ["repro_version", "add_version_argument"]


def repro_version() -> str:
    """The package version, from metadata or the source tree."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("repro")
    except PackageNotFoundError:
        import repro

        return getattr(repro, "__version__", "unknown")


def add_version_argument(parser: argparse.ArgumentParser) -> None:
    """Attach the standard ``--version`` flag to ``parser``."""
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {repro_version()}",
        help="print the repro package version and exit",
    )
