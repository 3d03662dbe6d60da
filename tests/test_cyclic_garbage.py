"""Suite runs free what they build by reference counting alone."""

import gc

import pytest

from kappa_hopf.suites import SUITE_NAMES, SuiteConfig, run_suite


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_run_leaves_no_cyclic_garbage(suite):
    """With the cyclic collector off, one run leaves no object that only the
    collector could free: a reference cycle (such as a recursive closure's
    cell, or a presentation cloned per run, which sits in a cycle with its
    HopfData and elements) would keep its state alive until a collection
    reached it."""
    cfg = SuiteConfig(suite=suite, order=2, rep_order=1, seed=42)  # loads the models
    gc.collect()
    flags = gc.get_debug()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run_suite(cfg).passed
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert garbage == 0
