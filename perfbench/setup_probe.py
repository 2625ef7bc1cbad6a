"""One CLI set-up in a fresh interpreter, stopping before the experiment.

Usage: python3 setup_probe.py <src dir> <rislink CLI arguments...>

Imports rislink from <src dir>, parses the arguments with the CLI's own
parser and loads the scenario file they name.  The caller times the whole
process, so interpreter start-up is part of the figure, as it is for a user.
"""

import sys

sys.path.insert(0, sys.argv[1])

from rislink import cli  # noqa: E402
from rislink.config import load_scenario  # noqa: E402

args = cli.build_parser().parse_args(sys.argv[2:])
load_scenario(args.config)
