"""Clifford arithmetic: blades, products, and the paravector norm identity.

The algebra has n units e_1..e_n with e_i^2 = -1 and e_i e_j = -e_j e_i.
Elements are sparse blade tables; exact rationals and floats share one code
path.
"""

import random
from fractions import Fraction

from monogenic import CliffordNumber, Paravector, blade_product, cl_mul

# blade-level products in R_3: signs come from transposition counting
for a, b in [(0b001, 0b001), (0b001, 0b010), (0b011, 0b010)]:
    sign, mask = blade_product(a, b, 3)
    print(f"blade {a:03b} * {b:03b} -> sign {sign:+d}, mask {mask:03b}")

# exact arithmetic: associativity on the nose
e1 = CliffordNumber.unit(3, 1)
e2 = CliffordNumber.unit(3, 2)
x = CliffordNumber(3, {0: Fraction(1, 2), 0b011: Fraction(-2, 3)})
print("\ne1*e2       =", cl_mul(e1, e2))
print("(e1*e2)*x   =", cl_mul(cl_mul(e1, e2), x))
print("e1*(e2*x)   =", cl_mul(e1, cl_mul(e2, x)))

# left multiplication by a paravector scales norms exactly
rng = random.Random(0)
x = Paravector(0.4, [1.0, -0.3, 0.2])
y = CliffordNumber(3, {m: rng.uniform(-1, 1) for m in range(8)})
print("\n|x| * |y|   =", x.norm() * y.norm())
print("|x * y|     =", cl_mul(x.to_clifford(), y).norm())
