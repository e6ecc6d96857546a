"""Semi-online bin stretching with migration on two hierarchical machines.

Exact-rational schedulers for every migration factor, the matching
adversarial lower-bound games, an exact offline oracle, planted
instance generators, and a verification harness.  Import each name from
the module that defines it, e.g. ``from hierstretch.core import Job``.
"""

from . import adversary, algorithms, core, errors, generators, harness, oracle

__version__ = "0.1.0"
