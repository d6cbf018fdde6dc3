"""Exact arithmetic for basic Eulerian polynomials, valley-hopping
actions, the rix-factorization, the hook-to-cycle bijection, gamma
expansions, and an exhaustive verification harness.

Each name is imported from its module, for example
`from eulerian_gamma.bijections import phi`; importing the package loads
none of them."""
