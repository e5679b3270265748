"""Outputs recorded at commit ef2d0b3 (the seed of the benchmark).

Recorded with `qsymgraph analyze graphs/NAME.graph --json --max-level 3`
for every corpus file, and with `closure(disjoint_copies(2, n_gon(4)),
ClosureConfig(max_level=3))` for the two squares. Each entry is the
reported dims and `classification.description`. Neither depends on how
the vertices are labelled, so the checks hold for relabelled inputs too.
"""

TWO_SQUARES_LEVEL3 = [1, 1, 4, 19]
CORPUS_LEVEL3 = {
    'complete-4': ([1, 1, 2, 5], 'FussCatalan(4)'),
    'complete-5': ([1, 1, 2, 5], 'FussCatalan(5)'),
    'complete-6': ([1, 1, 2, 5], 'FussCatalan(6)'),
    'complete-7': ([1, 1, 2, 5], 'FussCatalan(7)'),
    'complete-8': ([1, 1, 2, 5], 'FussCatalan(8)'),
    'cube-complement': ([1, 1, 4, 20], 'TensorProduct(FussCatalan(2), FussCatalan(4))'),
    'cube': ([1, 1, 4, 20], 'TensorProduct(FussCatalan(2), FussCatalan(4))'),
    'discrete-torus': ([1, 1, 3, 15], 'Unknown'),
    'edgeless-4': ([1, 1, 2, 5], 'FussCatalan(4)'),
    'edgeless-5': ([1, 1, 2, 5], 'FussCatalan(5)'),
    'edgeless-6': ([1, 1, 2, 5], 'FussCatalan(6)'),
    'edgeless-7': ([1, 1, 2, 5], 'FussCatalan(7)'),
    'edgeless-8': ([1, 1, 2, 5], 'FussCatalan(8)'),
    'eight-wheel-complement': ([1, 1, 5, 34], 'Dihedral(8)'),
    'eight-wheel': ([1, 1, 5, 34], 'Dihedral(8)'),
    'four-segments-complement': ([1, 1, 3, 11], 'FussCatalan(4,2)'),
    'four-segments': ([1, 1, 3, 11], 'FussCatalan(4,2)'),
    'heptagon-complement': ([1, 1, 4, 25], 'Dihedral(7)'),
    'heptagon': ([1, 1, 4, 25], 'Dihedral(7)'),
    'hexagon': ([1, 1, 4, 20], 'Dihedral(6)'),
    'k33': ([1, 1, 3, 11], 'FussCatalan(2,3)'),
    'k44': ([1, 1, 3, 11], 'FussCatalan(2,4)'),
    'nine-star-1': ([1, 1, 5, 41], 'Dihedral(9)'),
    'nine-star-2': ([1, 1, 5, 41], 'Dihedral(9)'),
    'octagon-complement': ([1, 1, 5, 34], 'Dihedral(8)'),
    'octagon': ([1, 1, 5, 34], 'Dihedral(8)'),
    'octahedron': ([1, 1, 3, 11], 'FussCatalan(3,2)'),
    'oriented-ngon-3': ([1, 1, 3, 9], 'CyclicGroup(3)'),
    'oriented-ngon-4': ([1, 1, 4, 16], 'CyclicGroup(4)'),
    'oriented-ngon-5': ([1, 1, 5, 25], 'CyclicGroup(5)'),
    'oriented-ngon-6': ([1, 1, 6, 36], 'CyclicGroup(6)'),
    'pentagon': ([1, 1, 3, 13], 'Dihedral(5)'),
    'point': ([1, 1, 1, 1], 'FussCatalan(1)'),
    'prism': ([1, 1, 4, 20], 'Dihedral(6)'),
    'segment': ([1, 1, 2, 4], 'FussCatalan(2)'),
    'square': ([1, 1, 3, 10], 'FussCatalan(2,2)'),
    'three-points': ([1, 1, 2, 5], 'FussCatalan(3)'),
    'three-segments': ([1, 1, 3, 11], 'FussCatalan(3,2)'),
    'triangle': ([1, 1, 2, 5], 'FussCatalan(3)'),
    'two-points': ([1, 1, 2, 4], 'FussCatalan(2)'),
    'two-segments': ([1, 1, 3, 10], 'FussCatalan(2,2)'),
    'two-squares-complement': ([1, 1, 4, 19], 'FussCatalan(2,2,2)'),
    'two-squares': ([1, 1, 4, 19], 'FussCatalan(2,2,2)'),
    'two-tetrahedra': ([1, 1, 3, 11], 'FussCatalan(2,4)'),
    'two-triangles': ([1, 1, 3, 11], 'FussCatalan(2,3)'),
}
