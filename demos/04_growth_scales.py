"""Proximate growth scales and coefficient-side order/type estimation.

A proximate order refines a constant order rho by a slowly varying exponent.
Its normalisation t(r) = r^rho(r) is a monotone bijection with inverse phi,
and the gauge sequence G_q = phi(q)^q/(e rho)^(q/rho) controls extremal
coefficient decay.  Everything factorial-scale lives in the log domain.
"""

import math

from monogenic import (
    ProximateOrder,
    axis_log_norms,
    growth_report,
    order_from_coeffs,
    type_from_coeffs,
    type_from_kq,
)
from monogenic.multiindex import mi_abs

families = [
    ProximateOrder("constant", 1.0),
    ProximateOrder("logshift", 1.0, math.log(2.0)),  # scale exactly 2r
    ProximateOrder("loglog", 1.0, 1.0),              # scale r * ln(r)
]
for po in families:
    r = 100.0
    print(
        f"{po.family:9s} rho={po.rho}: t({r:g}) = {po.scale(r):10.2f}, "
        f"phi(t) = {po.phi(po.scale(r)):.12f}, ln G_20 = {po.ln_gq(20):.4f}"
    )

# the gauge sequence is supermultiplicative: G_p G_q <= G_(p+q)
po = families[2]
p, q = 7, 12
print(
    f"\nln G_7 + ln G_12 = {po.ln_gq(p) + po.ln_gq(q):.4f} "
    f"<= ln G_19 = {po.ln_gq(p + q):.4f}"
)

# a synthetic first-axis family of order rho and type sigma, in log domain
rho, sigma = 1.0, 0.75
norms = axis_log_norms(2, rho, sigma, 1, 500)
kq = {mi_abs(m): v for m, v in norms.items()}
po = ProximateOrder("constant", rho)
print(f"\nsynthetic family with rho={rho}, sigma={sigma}:")
print(f"  type from coefficients : {type_from_coeffs(norms, rho, (200, 500)):.6f}")
print(f"  type from unit-ball sup: {type_from_kq(kq, po, (200, 500)):.6f}"
      "   <- the membership surrogate: f lies in each weighted space of weight above it")
print(f"  order (window 100-200) : {order_from_coeffs(norms, (100, 200), 2):.4f}"
      "   <- carries the documented 1/ln(q) finite-window bias")

# the CSV diagnostics the growth command emits
report = growth_report(po, (10, 20), 2, log_norms=norms, sigma_test=sigma)
print("\nper-degree diagnostics:")
print(report.to_csv())
