#!/usr/bin/env python3
"""One-shot lint runner: the full ``repro.lint`` engine over ``src/``.

Runs every registered rule (the same thing ``repro lint`` does) so a
CI job gets one command and one exit code without installing the
package.

Usage::

    python scripts/lint_all.py [--format text|json|sarif] [--baseline PATH]
"""

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.lint import load_baseline, render, run_lint  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--format", default="text",
                        choices=("text", "json", "sarif"),
                        help="engine report format (default text)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="JSON baseline of grandfathered findings")
    args = parser.parse_args(argv)

    baseline = load_baseline(args.baseline) if args.baseline else None
    result = run_lint(SRC, baseline=baseline)
    print(render(result, args.format))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
