"""Certifying graph algorithms. Each name is imported from the module that defines it.

``certigraph.solvers`` returns each answer with a witness. The checkers in
``connectivity``, ``shortest_paths``, ``matching`` and ``gcd`` decide, in exact
arithmetic, whether a witness proves its answer; an accepted answer is right
however it was computed. ``graph``, ``extnat`` and ``formats`` build the inputs,
``verdict`` holds the outcomes, and ``oracles`` gives brute-force ground truth for tests.
"""
