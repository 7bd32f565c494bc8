"""The benchmark's tracer wraps library functions by name and restores them."""

import importlib.util
from pathlib import Path

import relaybuf

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_existing_names_and_uninstall_restores_them():
    modules = (relaybuf.chain, relaybuf.mdp, relaybuf.sim, relaybuf.symmetric)
    before = [dict(vars(m)) for m in modules]
    tracer = _load_tracing().install(relaybuf)
    try:
        wrapped = list(tracer._installed)
        assert wrapped
        for module, attr, fn in wrapped:
            assert getattr(module, attr) is not fn
            assert getattr(module, attr).__wrapped__ is fn
    finally:
        tracer.uninstall()
    for module, attr, fn in wrapped:
        assert getattr(module, attr) is fn
    for module, names in zip(modules, before):
        assert vars(module) == names
