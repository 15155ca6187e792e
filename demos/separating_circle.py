"""Separate two of five colored points by a circle through the other three.

Five planar points, all colors distinct, no four on a common circle:
then some circle passes through three of them and splits the remaining
two, one strictly inside and one strictly outside.  The procedure below
is fully constructive and exact, no floating point anywhere.
"""

from fractions import Fraction

from inversive.chromatic import separating_circle_5pts
from inversive.geom import Point, side

pairs = [
    (Point.finite((Fraction(0), Fraction(0))), 1),
    (Point.finite((Fraction(0), Fraction(1))), 2),
    (Point.finite((Fraction(0), Fraction(3))), 3),
    (Point.finite((Fraction(-2), Fraction(0))), 4),
    (Point.finite((Fraction(2), Fraction(0))), 5),
]

witness = separating_circle_5pts(pairs)

print("circle:", witness.sphere)
print("through colors:", sorted(c for _, c in witness.defining))
for p, c in witness.defining:
    print("  color %d at %s  ->  %s" % (c, p, side(p, witness.sphere).value))

a, b = witness.separated_pair
print("separated pair:")
for p, c in (a, b):
    print("  color %d at %s  ->  %s" % (c, p, side(p, witness.sphere).value))

# side() never returns ON for the separated pair; SeparationWitness
# would have refused to construct otherwise.
assert side(a[0], witness.sphere) != side(b[0], witness.sphere)
print("strictly separated: yes")
