"""The lazy package: `import kappa_hopf` runs no submodule, each exported
name resolves to the object its defining module holds, and the first model
load imports only the model-load path.  Start-up and tracer checks run in a
fresh interpreter, where no earlier test has imported anything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kappa_hopf

ROOT = Path(__file__).resolve().parent.parent

# the public API, by defining module, in the order of __all__
EXPORTS = {
    "scalars": ["GaussianRational", "HSeries", "Poly", "RationalFn",
                "SeriesDomainError", "series_exp", "series_log1p"],
    "ncalg": ["DivergenceError", "GenDecl", "HopfData", "LimitError", "NCElement",
              "Presentation", "PresentationError", "TensorContext", "clone_presentation",
              "commutator", "confluence_residual", "confluence_triples", "h_expand",
              "normal_order"],
    "quotient": ["equal_mod_quotient", "zero_mod_quotient"],
    "hopf": ["BicrossData", "apply_antipode", "apply_coproduct", "apply_counit",
             "classical_limit", "cocommutator", "coproduct", "verify_bialgebra",
             "verify_bicross", "verify_casimir", "verify_comodule"],
    "cohom": ["H2Result", "LieData", "LinearCertificate", "co_jacobi_check",
              "coboundary_of", "lie_h2", "solve_coboundary"],
    "duality": ["MatrixModel", "PairingEngine", "PoissonQuery", "model_4d", "pair",
                "poisson_family_verify", "quantization_crosscheck"],
    "projrep": ["ExpFactor", "ExpProduct", "bch_combine", "build_omega",
                "cocycle_residual", "phi1_particular", "phi1_residual",
                "rep_apply", "rep_compose_check", "triviality_probe"],
    "dsl": ["Diagnostic", "DslError", "parse_presentation", "parse_source",
            "print_presentation"],
    "models": ["load_model", "load_printed_variant", "strip_quotient"],
    "report": ["Check", "VerificationReport"],
    "suites": ["SuiteConfig", "run_suite"],
}
# each module after the ones it imports, so that none is loaded before it is read
SUBMODULES = ["scalars", "ncalg", "dsl", "models", "quotient", "report", "hopf",
              "cohom", "duality", "projrep", "suites", "cli"]


def _run_child(script):
    """The JSON that script prints, run in a fresh interpreter on src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


FIRST_LOAD = """
import json, sys
import kappa_hopf
def loaded():
    return sorted(n for n in sys.modules if n.split(".")[0] == "kappa_hopf")
at_import = loaded()
kappa_hopf.load_model("galilei_algebra_kappa")
at_load = loaded()
run_suite = kappa_hopf.run_suite
print(json.dumps([at_import, at_load, run_suite is kappa_hopf.suites.run_suite]))
"""


def test_first_load_imports_only_its_own_path():
    at_import, at_load, resolved = _run_child(FIRST_LOAD)
    assert at_import == ["kappa_hopf"]
    assert at_load == ["kappa_hopf", "kappa_hopf.dsl", "kappa_hopf.models",
                       "kappa_hopf.ncalg", "kappa_hopf.scalars"]
    assert resolved


def test_all_lists_the_public_api():
    assert kappa_hopf.__all__ == [name for names in EXPORTS.values() for name in names]
    assert len(kappa_hopf.__all__) == 70
    assert kappa_hopf.__version__ == "0.1.0"


def test_each_name_is_its_defining_modules_object():
    for module, names in EXPORTS.items():
        owner = getattr(kappa_hopf, module)
        for name in names:
            assert name in vars(owner), (module, name)
            assert getattr(kappa_hopf, name) is vars(owner)[name], (module, name)
            # looked up afresh on every read, never stored in the package
            assert name not in vars(kappa_hopf), name


def test_star_import_binds_the_public_api():
    namespace = {}
    exec("from kappa_hopf import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(kappa_hopf.__all__)
    assert all(namespace[name] is getattr(kappa_hopf, name) for name in namespace)


def test_dir_lists_names_and_submodules():
    assert set(kappa_hopf.__all__) | set(SUBMODULES) <= set(dir(kappa_hopf))


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        kappa_hopf.no_such_name


SUBMODULE_ACCESS = """
import json, sys
import kappa_hopf
out = []
for name in %r:
    before = "kappa_hopf." + name in sys.modules
    module = getattr(kappa_hopf, name)
    out.append([name, before, module is sys.modules["kappa_hopf." + name]])
print(json.dumps(out))
""" % (SUBMODULES,)


def test_each_submodule_is_reachable_before_it_is_imported():
    assert _run_child(SUBMODULE_ACCESS) == [[name, False, True] for name in SUBMODULES]


# The tracer installs on a package of which only the start-up path is
# loaded; a module that bound a layer function by name while the tracer was
# installed would keep its wrapper and count untraced calls.
COLD_TRACE = """
import json, sys
import kappa_hopf
from tracer import Tracer

tracer = Tracer()
tracer.install()
kappa_hopf.load_model("galilei_algebra_kappa")
kappa_hopf.load_model("galilei_group_kappa")
tracer.uninstall()

wrappers = {id(w) for w in tracer._wrappers.values()}
modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "kappa_hopf"]
leaked = [m.__name__ + "." + k for m in modules for k, v in vars(m).items() if id(v) in wrappers]
leaked += [k for k in kappa_hopf.__all__ if id(getattr(kappa_hopf, k)) in wrappers]

def traced_calls():
    tracer.install()
    try:
        kappa_hopf.run_suite(kappa_hopf.SuiteConfig(suite="group", order=2, seed=42))
    finally:
        tracer.uninstall()
    return tracer.stats["ncalg.normal_order"].calls

start = tracer.stats["ncalg.normal_order"].calls
first = traced_calls()
kappa_hopf.run_suite(kappa_hopf.SuiteConfig(suite="group", order=2, seed=42))
second = traced_calls()
print(json.dumps([leaked, first - start, second - first]))
"""


def test_no_tracer_wrapper_survives_a_cold_install():
    leaked, cold, after_untraced = _run_child(COLD_TRACE)
    assert leaked == []
    # the untraced run in between adds no calls to the tracer's count
    assert cold == after_untraced > 0
