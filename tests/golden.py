"""Frozen expected values for the worked examples shared across test modules.

Arrow order everywhere: arrows are grouped by head vertex (vertices in
canonical character order) and by label 1..n within a head, so the arrow
with head index h and label i sits at position h*n + i - 1.
"""

# Full incidence matrix (vertex rows stacked over label rows) for the cyclic
# group of order 7 acting on 2 coordinates with weights (1, 2).
C_MATRIX_7_12 = (
    (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, -1, 0),
    (-1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1),
    (0, -1, -1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, -1, -1, 0, 1, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, -1, -1, 0, 1, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, -1, -1, 0, 1, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, -1, -1, 0, 1, 1),
    (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0),
    (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1),
)

# Net multiplicity vector of the walk that follows the label-1 arrows into
# vertices 0 and 6 forward and the label-2 arrow into vertex 6 plus the
# label-1 arrow into vertex 1 backward, with its coordinate type.
WALK_VECTOR_7_12 = (1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1)
WALK_TYPE_7_12 = (1, -1)

# The seven binomial generators of the lattice ideal for the same action.
# Each binomial is the unordered pair of its two monomials; each monomial is
# the set of its ((label, head_vertex), exponent) factors.
BINOMIALS_7_12 = frozenset(
    {
        frozenset({frozenset({((1, 0), 1), ((2, 1), 1)}), frozenset({((2, 0), 1), ((1, 2), 1)})}),
        frozenset({frozenset({((1, 1), 1), ((2, 2), 1)}), frozenset({((2, 1), 1), ((1, 3), 1)})}),
        frozenset({frozenset({((1, 2), 1), ((2, 3), 1)}), frozenset({((2, 2), 1), ((1, 4), 1)})}),
        frozenset({frozenset({((1, 3), 1), ((2, 4), 1)}), frozenset({((2, 3), 1), ((1, 5), 1)})}),
        frozenset({frozenset({((1, 4), 1), ((2, 5), 1)}), frozenset({((2, 4), 1), ((1, 6), 1)})}),
        frozenset({frozenset({((1, 5), 1), ((2, 6), 1)}), frozenset({((2, 5), 1), ((1, 0), 1)})}),
        frozenset({frozenset({((1, 6), 1), ((2, 0), 1)}), frozenset({((2, 6), 1), ((1, 1), 1)})}),
    }
)

# Benchmark action: cyclic group of order 11 with weights (1, 2, 8).
EXAMPLE_ORDERS = (11,)
EXAMPLE_WEIGHTS = ((1, 2, 8),)
EXAMPLE_THETA = (1, 1, 1, 1, -7, -9, 1, 1, 1, 8, 1)

# Vertices of the type polyhedron for EXAMPLE_THETA.
EXAMPLE_VERTICES = frozenset(
    {
        (0, 0, 78),
        (0, 21, 15),
        (0, 26, 11),
        (0, 70, 0),
        (22, 0, 23),
        (96, 0, 0),
        (4, 0, 50),
        (4, 9, 23),
        (4, 46, 0),
        (72, 0, 3),
        (4, 34, 3),
    }
)

# Irredundant facet inequalities in "coeffs . y >= rhs" form, gcd-normalized,
# numbered 1..8 as printed.
EXAMPLE_INEQS = {
    1: ((2, 4, 5), 159),
    2: ((3, 6, 2), 112),
    3: ((1, 2, 8), 96),
    4: ((7, 3, 1), 78),
    5: ((6, 1, 4), 70),
    6: ((1, 0, 0), 0),
    7: ((0, 1, 0), 0),
    8: ((0, 0, 1), 0),
}

# Facets through each vertex, by the inequality numbers above.
EXAMPLE_TIGHT = {
    (0, 0, 78): frozenset({4, 6, 7}),
    (0, 21, 15): frozenset({1, 4, 6}),
    (0, 26, 11): frozenset({1, 5, 6}),
    (0, 70, 0): frozenset({5, 6, 8}),
    (22, 0, 23): frozenset({1, 2, 7}),
    (96, 0, 0): frozenset({3, 7, 8}),
    (4, 0, 50): frozenset({2, 4, 7}),
    (4, 9, 23): frozenset({1, 2, 4}),
    (4, 46, 0): frozenset({3, 5, 8}),
    (72, 0, 3): frozenset({1, 3, 7}),
    (4, 34, 3): frozenset({1, 3, 5}),
}

# Rays of the inner normal fan for EXAMPLE_THETA.
EXAMPLE_FAN_RAYS = frozenset(
    {
        (2, 4, 5),
        (3, 6, 2),
        (1, 2, 8),
        (7, 3, 1),
        (6, 1, 4),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    }
)

# Pinned stress-scale figures for the flow polyhedron lifted over
# EXAMPLE_THETA.  The ray count is confirmed by elementary-cycle
# enumeration.  The vertex figure equals vertices plus rays: the polyhedron
# has 16951 vertices, certified two ways (every enumerated point is a
# feasible flow with forest support, and the forest-counting dynamic
# program in flow_oracle.py yields the same total), so the acceptance
# check pinned to 17581 documents a known discrepancy and fails.
LIFTED_VERTEX_COUNT = 17581
LIFTED_RAY_COUNT = 630

# First worked representation: w = (10, 7, 6).
W_A = (10, 7, 6)
B_A = (0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0,
       0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1)
V_A = (-8, -10, -1, -3, 6, 4, -9, 0, -2, -15, -6)
SLACK_A = (12, 0, 0, 1, 0, 11, 12, 0, 11, 1, 0, 11, 12, 22, 22, 23, 11, 11,
           1, 0, 0, 12, 22, 0, 23, 11, 0, 1, 0, 0, 12, 11, 0)
VALUE_A = -237
CONE_A = frozenset({(2, 4, 5), (7, 3, 1), (1, 0, 0)})

# Second worked representation: w = (8, 3, 1), whose optimal face is an edge.
W_B = (8, 3, 1)
B_B = (0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0,
       0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1)
V_B = (-5, -9, -2, -6, 1, -3, -7, 0, -4, -8, -1)
VALUE_B = -78
CONE_B = frozenset({(1, 0, 0), (7, 3, 1)})

# Weight-one action: cyclic group of order 3, all weights 1.
W1_THETA = (-2, 1, 1)
W1_VERTICES = frozenset({(3, 0, 0), (0, 3, 0), (0, 0, 3)})
W1_INEQS = frozenset({((0, 0, 1), 0), ((0, 1, 0), 0), ((1, 0, 0), 0), ((1, 1, 1), 3)})
W1_FAN_RAYS = frozenset({(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)})

# A generic theta on 1/13(1,3,9) with five sources: its flows take several
# phases.  Command-line form, as passed to --theta.
GENERIC_13 = "-38,-12,14,14,-12,1,14,1,14,14,-12,14,-12"
