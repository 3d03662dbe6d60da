"""The projective multiplier of the 2D quantum Galilei group.

omega = e^{-i kappa ln(1+m v^2/2kappa) (x) tau} e^{(-i m v/(1+m v^2/2kappa)) (x) a}

The cocycle equation (omega x I)(Delta x I)omega = (I x omega)(I x Delta)omega
is verified order by order in h = 1/kappa via graded BCH combination: every
2D-group commutator carries h, so nested commutators of depth d contribute
at h^d and the series truncates.  The BCH coefficients come from the Dynkin
projection of log(e^a e^b) in the free algebra, not from a hard-coded table.
"""

from kappa_hopf import LieData, build_omega, cocycle_residual, phi1_particular, phi1_residual, rep_compose_check, triviality_probe
from kappa_hopf.models import load_model
from kappa_hopf.projrep import classical_phi0, omega_log_phi

g2 = load_model("galilei_group_2d")

phi = omega_log_phi(g2, 2)
print("phi_0 =", phi.h_coefficient(0).render())
print("phi_1 =", phi.h_coefficient(1).render())
print("phi_1 equals (-(1/4) m v^2 (x) I) phi_0:",
      phi.h_coefficient(1) == phi1_particular(g2))
print("phi_1 solves the order-1/kappa cohomological equation:",
      phi1_residual(g2, phi1_particular(g2)).is_zero())

for order in (0, 1, 2, 3):
    z = cocycle_residual(build_omega(g2, order), order)
    print(f"cocycle residual through h^{order}: zero = {z.is_zero()}")

lie2d = LieData.from_presentation(load_model("galilei_algebra_2d_classical"))
chk, cls = triviality_probe(g2, lie2d)
print("\ntriviality probe:", chk.detail)

logres, taildiffs = rep_compose_check(g2, (0, 1, 2), 2)
for n, taildiff in zip((0, 1, 2), taildiffs):
    print(f"representation composition law on p^{n} through h^2:",
          logres.is_zero() and taildiff.is_zero())
