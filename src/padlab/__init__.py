"""padlab: exact-arithmetic verification of congruences between power sums,
Bernoulli numbers, and unit-group orbits modulo odd prime powers.

Library code imports from the submodules, e.g.
``from padlab.spectrum import build_S``."""

__version__ = "0.1.0"
