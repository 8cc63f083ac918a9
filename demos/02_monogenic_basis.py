"""The homogeneous monogenic basis: evaluation, derivatives, Dirac residuals.

Each multi-index m gets the symmetrised product of the degree-one monogenic
variables z_i = x_i - x0 e_i, normalised so the m-th derivative at 0 is m!.
The elements are null solutions of the Dirac operator d/dx0 + sum e_i d/dx_i,
which a central-difference residual certifies numerically.
"""

from monogenic import (
    MonogenicSeries,
    Paravector,
    dirac_residual,
    fueter_derivative_rule,
    fueter_eval,
    fueter_sup_unit_ball,
)

x = Paravector(0.3, [0.8, -0.5])
for m in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]:
    print(f"V_{m}(x) = {fueter_eval(m, x)}")

# the derivative rule is exact: d/dx_i V_m = m_i V_(m - e_i)
print("\nderivative rule on (2,1):", fueter_derivative_rule((2, 1), 1))

# Dirac residuals vanish to truncation error
points = [Paravector(0.2, [0.5, 0.1]), Paravector(-0.4, [0.3, 0.9])]
for m in [(1, 1), (3, 2)]:
    f = MonogenicSeries.basis_element(2, m, exact=False)
    print(f"Dirac residual of V_{m}: {dirac_residual(f, points, h=1e-5):.2e}")

# the unsymmetrised word z1*z2 is NOT monogenic; the residual says so.
# ordered_words evaluates every word z1^m1 z2^m2 with |m| <= 2 on a batch of
# points (rows in enumerate_up_to order); dirac_residuals gives one row of
# residuals per base point, one residual per word.
from monogenic import dirac_residuals, enumerate_up_to
from monogenic.fueter import ordered_words

row = enumerate_up_to(2, 2).index((1, 1))
res = max(r[row] for r in dirac_residuals(lambda pts: ordered_words(pts, 2), points, h=1e-5))
print(f"Dirac residual of the ordered word z1 z2: {res:.2e}")

# unit-ball sups never exceed 1 and axis indices attain it
for m in [(4, 0), (1, 1), (2, 2)]:
    print(f"sup of |V_{m}| on the unit ball ~ {fueter_sup_unit_ball(m, 256):.6f}")

# exact normalisation: the m-th derivative of V_m at the origin is m!
from monogenic import series_derivative

base = MonogenicSeries.basis_element(2, (2, 1), exact=True)
value = series_derivative(base, (2, 1)).coeff((0, 0))
print("\nd^(2,1) V_(2,1) at 0:", value, "(expected 2! * 1! = 2)")
