"""Tropical semiring over costs (negative log probabilities).

Weights are plain floats. Choice between paths is min, concatenation along
a path is +, the zero element (impossible) is +inf and the one element
(free) is 0.0.
"""

import math

ZERO = math.inf
ONE = 0.0

