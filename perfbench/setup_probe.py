"""What a user pays before any computation, as one fresh process.

Usage: python3 perfbench/setup_probe.py SCENARIO.yaml [SCENARIO.yaml ...]

Imports errorlab, then parses and normalizes each scenario.  The caller
times the whole launch, interpreter start included.
"""

import sys

import errorlab

for path in sys.argv[1:]:
    errorlab.scenario_to_yaml(errorlab.parse_config(path))
