"""Group-algebra duality and the Poisson structure that quantizes to the
quantum group.

The classical pairing <Phi, X> is computed in a faithful 5x5 matrix model
of the Galilei group, fixed by the printed single-generator table.  The
pairing engine takes the classical algebra derived from the kappa algebra
and refuses the model unless its matrices satisfy that algebra's brackets.
The Poisson bracket {f,g} defined by <{f,g},X> = -i <f (x) g, sigma(X)> then
reproduces every commutator of the quantum group, bracket by bracket.
"""

from kappa_hopf import LieData, Poly, pair
from kappa_hopf.duality import PairingEngine, model_4d, quantization_crosscheck
from kappa_hopf.hopf import cocommutator
from kappa_hopf.models import load_model

model = model_4d()
print("<tau, P0> =", pair(Poly.var("tau"), ("P0",)))
print("<R[1,2], M[3]> =", pair(Poly.var("R[1,2]"), ("M[3]",)))
print("<a[1], L[1] P0> =", pair(Poly.var("a[1]"), ("L[1]", "P0")))
print("<v[2], M[3] L[1]> =", pair(Poly.var("v[2]"), ("M[3]", "L[1]")))

kappa = load_model("galilei_algebra_kappa")
classical = load_model("galilei_algebra_classical")
engine = PairingEngine(model, LieData.from_presentation(classical),
                       cocommutator(kappa, classical)[0])

group = load_model("galilei_group_kappa")
checks = quantization_crosscheck(group, engine)
print(f"\nquantization crosscheck: {len(checks)} brackets, "
      f"{sum(1 for c in checks if c.status != 'pass')} failures")
print("e.g.", checks[0].check_id, "->", checks[0].status,
      f"({checks[0].detail})")
