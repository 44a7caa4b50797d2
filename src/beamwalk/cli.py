"""Command-line front end.

Exit codes: 0 success, 1 config error, 2 violated numerical invariant,
3 I/O failure.  A run that does not fit in memory is a config error: it
exits 1 with one line, not a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import as_path, load_config
from .errors import ConfigError, NumericalInvariantError
from .runner import replay, run

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # Argument mistakes are config errors (exit 1), not argparse's exit 2.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="beamwalk",
        description="Simulate discrete-time quantum walks on a beam-splitter mesh "
        "and emit distribution/variance/similarity tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output-dir", default=None,
                        help="write outputs here instead of the run's own output_dir")
    run_parser = sub.add_parser("run", parents=[common],
                                help="execute a run described by a JSON config")
    run_parser.add_argument("config", help="path of the config document")
    replay_parser = sub.add_parser("replay", parents=[common],
                                   help="re-run a manifest using its serialized phase schedules")
    replay_parser.add_argument("manifest", help="path of a run manifest")
    return parser


def _complain(code: int, message: str) -> int:
    # One stderr line per failure, even when a quoted path holds a line break.
    print("beamwalk: " + message.replace("\n", "\\n").replace("\r", "\\r"), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        output_dir = args.output_dir
        if output_dir is not None:
            output_dir = as_path(output_dir, "command line", "--output-dir")
        if args.command == "run":
            config_path = Path(as_path(args.config, "command line", "config"))
            manifest = run(load_config(config_path), base_dir=config_path.parent,
                           output_dir=output_dir)
        else:
            manifest = replay(as_path(args.manifest, "command line", "manifest"),
                              output_dir=output_dir)
    except ConfigError as exc:
        return _complain(EXIT_CONFIG, f"config error: {exc}")
    except MemoryError as exc:
        return _complain(EXIT_CONFIG, "config error: run does not fit in memory: "
                         f"{str(exc) or type(exc).__name__}")
    except NumericalInvariantError as exc:
        return _complain(EXIT_NUMERICAL, f"numerical invariant violated: {exc}")
    except OSError as exc:
        return _complain(EXIT_IO, f"i/o error: {exc}")
    try:
        print(manifest)
    except UnicodeEncodeError:  # a path byte the stream cannot encode: escape it
        encoding = sys.stdout.encoding
        print(str(manifest).encode(encoding, "backslashreplace").decode(encoding))
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
