"""Run ``repro-fi`` with the per-layer wrappers of ``layers.py`` installed.

    PERFBENCH_STATS=DIR python perfbench/launch.py serve ...
    PERFBENCH_STATS=DIR python perfbench/launch.py worker ...

The traced benchmark run starts its server and fabric agents this way.
The wrappers are installed at import time, outside the ``__main__``
guard, so a ``spawn``-context pool child -- which re-imports this file as
its main module -- is measured too. Each process dumps its tallies into
``DIR`` after every shard and at exit.
"""

import os
import sys

import layers

if os.environ.get(layers.STATS_ENV):
    layers.install(os.environ[layers.STATS_ENV])

if __name__ == "__main__":
    from repro.cli import main

    raise SystemExit(main(sys.argv[1:]))
