"""
A census of GL2(F_p) subgroups up to conjugacy
==============================================

Enumerate every subgroup class for a small prime, bucket the classes by
their case label, and look at a few named subgroups along the way.
"""

from collections import Counter

from torsiondeg import gl2

p = 7

# ## The named subgroups first

for name, G in sorted(gl2.standard_subgroups(p).items()):
    print(f"{name:20s} order {G.order:5d}  {gl2.classify(G).value:18s} "
          f"projective {gl2.projective_type(G).value}({G.projective_order})")

# The split normalizer has twice the Cartan order, the nonsplit Cartan
# has order p^2 - 1, and sl2 is index p - 1 in the full group.

# ## Exhaustive census

classes = gl2.enumerate_subgroups(p, "exhaustive")
print(f"\n{len(classes)} conjugacy classes of subgroups for p = {p}")

histogram = Counter(gl2.classify(G).value for G in classes)
for label, count in sorted(histogram.items()):
    print(f"  {label:20s} {count:3d}")

# ## Orders arrange into a divisibility-friendly profile

orders = sorted({G.order for G in classes})
print(f"\ndistinct orders ({len(orders)}):", orders)
full = p * (p - 1) ** 2 * (p + 1)
assert all(full % o == 0 for o in orders)
print("every order divides |GL2| =", full)
