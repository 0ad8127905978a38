"""Desk-scale numerical verification of dimension-free sublevel-set volume
bounds for bounded analytic functions on the complex unit ball, together
with every constructive ingredient: certified polynomial evaluation, a
radial Moebius-type change of variables with log-concave Jacobian, a
Remez-type estimate on the disk via Blaschke factorization, a localization
inequality for log-concave weights, and thin-rectangle counterexample
experiments."""

__version__ = "0.1.0"
