"""Perfect colorings of graphs over exact rational arithmetic.

A perfect coloring (equitable partition) of a graph with adjacency matrix
M is a partition matrix P and parameter matrix S with M P = P S.  This
package verifies the identity exactly, applies row-distance rejection
filters to rule out putative parameter matrices, and runs exhaustive
periodic searches on circulant graphs and plane grids through their
finite quotients.
"""

__version__ = "0.1.0"
