"""Shared command-line conventions for the ``repro`` CLIs.

Every entry point (``python -m repro.fuzz`` / ``repro.flows`` /
``repro.obs.report``) follows the same contract:

* bad input exits with status **2** and a one-line message on stderr —
  never a raw traceback;
* ``--seed`` means the same thing everywhere (the campaign/sweep seed);
* ``--store [DIR]`` enables the persistent artifact store for the run
  (equivalent to ``REPRO_STORE=1`` plus ``REPRO_STORE_DIR=DIR``), and
  ``--resume`` replays a prior campaign's journaled cells from it.

This module factors those conventions so the CLIs cannot drift apart;
``tests/test_cli_errors.py`` pins the contract per entry point.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ENV_STORE, ENV_STORE_DIR, get_settings


def build_parser(prog: str, description: str) -> argparse.ArgumentParser:
    """An argparse parser with the uniform error contract (message to
    stderr, exit status 2 — argparse's native behaviour, standardized
    here as the one construction point)."""
    return argparse.ArgumentParser(prog=prog, description=description)


def add_seed_argument(parser: argparse.ArgumentParser,
                      default: int = 0) -> None:
    parser.add_argument("--seed", type=int, default=default,
                        help=f"campaign/sweep seed (default: {default})")


def add_store_arguments(parser: argparse.ArgumentParser,
                        resume: bool = True) -> None:
    """Add ``--store [DIR]`` (and ``--resume``) to a campaign CLI."""
    parser.add_argument(
        "--store", nargs="?", const="", default=None, metavar="DIR",
        help="persist cache artifacts and campaign checkpoints to the "
             "content-addressed store at DIR (default: REPRO_STORE_DIR "
             "or .repro-store); equivalent to REPRO_STORE=1")
    if resume:
        parser.add_argument(
            "--resume", action="store_true",
            help="replay cells journaled by a prior interrupted run of "
                 "the same campaign from the store (requires --store or "
                 "REPRO_STORE=1)")


def activate_store(args: argparse.Namespace):
    """Resolve the ``--store``/``--resume`` flags into a live store.

    Returns the process-wide :class:`repro.store.DiskStore` (or ``None``
    when persistence stays off).  Exits 2 — via :func:`fail` semantics —
    when ``--resume`` is requested without an active store.
    """
    from .store import get_default_store, reset_default_store
    store_arg = getattr(args, "store", None)
    if store_arg is not None:
        os.environ[ENV_STORE] = "1"
        if store_arg:
            os.environ[ENV_STORE_DIR] = store_arg
        reset_default_store()
    store = get_default_store()
    if getattr(args, "resume", False) and store is None:
        raise CliError("--resume requires an active artifact store "
                       "(pass --store [DIR] or set REPRO_STORE=1)")
    if store_arg is not None and store is not None:
        probe = os.path.join(store.root, ".writable")
        try:
            with open(probe, "w", encoding="utf-8"):
                pass
            os.unlink(probe)
        except OSError as exc:
            raise CliError(
                f"store directory '{store.root}' is not writable: {exc}")
    return store


class CliError(Exception):
    """Bad input detected past argparse; carries the user-facing message."""


def fail(message: str) -> int:
    """Print ``message`` to stderr and return the uniform bad-input code."""
    print(message, file=sys.stderr)
    return 2


def run(main_body, args: argparse.Namespace) -> int:
    """Execute a CLI body, mapping :class:`CliError` to the exit contract."""
    try:
        return main_body(args)
    except CliError as exc:
        return fail(str(exc))


def settings_summary() -> str:
    """One-line settings echo some CLIs print under ``--verbose``."""
    return " ".join(f"{k}={v}" for k, v in get_settings().snapshot().items())
