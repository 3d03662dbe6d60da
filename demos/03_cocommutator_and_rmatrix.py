"""The cocommutator and the missing classical r-matrix.

sigma = (Delta - tau.Delta) mod 1/kappa is extracted from the deformed
coproducts by series expansion; it reproduces the printed table.  The
claim that sigma is not a coboundary ("the classical r-matrix does not
exist -- this can be verified by direct calculations") becomes an exact
linear system: 450 equations, 45 unknowns, rank(A) = 44 < rank(A|b) = 45.
"""

from kappa_hopf import LieData, cocommutator, solve_coboundary
from kappa_hopf.cohom import render_wedge
from kappa_hopf.models import load_model

kappa = load_model("galilei_algebra_kappa")
classical = load_model("galilei_algebra_classical")

sigma, _ = cocommutator(kappa, classical)
lie = LieData.from_presentation(classical)
for gi, g in enumerate(classical.gens):
    print(f"sigma({g.label()}) = {render_wedge(lie.labels, sigma[gi])}")

cert = solve_coboundary(lie, sigma)
print(f"\ncoboundary system: {cert.n_equations} equations, "
      f"{cert.n_unknowns} unknowns")
print(f"status: {cert.status}; rank(A) = {cert.rank_a}, "
      f"rank(A|b) = {cert.rank_aug}")
print("certificate re-validates:", cert.revalidate(lie, sigma))
