"""Set-up probe: a fresh interpreter imports the package and parses configs.

Usage: ``python3 perfbench/setup_probe.py MODULE...`` with ``src`` on
``PYTHONPATH`` and a JSON list of config documents on standard input. It
imports each MODULE, parses every config, then prints the imported package's
file path as one line and exits. The parent times spawn to that line.
"""

import importlib
import json
import sys


def main() -> None:
    documents = json.load(sys.stdin)
    package = None
    for name in sys.argv[1:]:
        module = importlib.import_module(name)
        package = package or module
    for text in documents:
        package.parse_config(text)
    print(package.__file__, flush=True)


if __name__ == "__main__":
    main()
