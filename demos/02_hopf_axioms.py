"""Hopf axioms, two evaluation modes, and the one place the printed paper
disagrees with itself.

Every identity runs in two independent modes: formally (the grouplike EE is
rewritten exactly) and in series (EE is expanded through h^N before any
normal ordering).  Mode agreement is itself asserted -- the primary
anti-bug oracle.

The shipped algebra model carries [L_i,L_j] = (i/4kappa^2) eps_ijk P_k (P.M);
the printed table omits the i, and with the verbatim coefficient the
coproduct stops being an algebra map.  The demo shows that residual.
"""

from kappa_hopf import apply_coproduct, coproduct, verify_bialgebra
from kappa_hopf.hopf import _rule_difference, evaluate_raw
from kappa_hopf.models import load_model, load_printed_variant

kappa = load_model("galilei_algebra_kappa")

print("Delta(P_1) =", coproduct(kappa.gen_element("P", (1,))).render())
print("Delta(L_1) =", coproduct(kappa.gen_element("L", (1,))).render())

checks = verify_bialgebra(kappa, order=3, mode="both")
failed = [c for c in checks if c.status != "pass"]
print(f"\nHopf axioms for g_kappa: {len(checks)} checks, {len(failed)} failed")

printed = load_printed_variant()
for (hi, lo) in sorted(printed.rules):
    if printed.gens[hi].name == "L" and printed.gens[lo].name == "L":
        res = evaluate_raw(apply_coproduct(_rule_difference(printed, hi, lo, 1, 1), 0), "formal", 3)
        lab = f"{printed.gens[hi].label()}*{printed.gens[lo].label()}"
        print(f"\nprinted [L,L] coefficient (no i): Delta breaks on {lab}:")
        print("  residual =", res.formal.render()[:160], "...")
        break
