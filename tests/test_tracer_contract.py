"""The benchmark tracer (perfbench/tracing.py) binds functions and methods
of the program by name. These tests hold the program to that contract: every
name it wraps exists where it looks, the program's calls go through the
wrapped names, and every original comes back afterwards."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from attnrec import autoencoder, cf, cli, corpus, evaluation, nn, storage

MODS = SimpleNamespace(cli=cli, corpus=corpus, storage=storage, nn=nn,
                       autoencoder=autoencoder, cf=cf, evaluation=evaluation)


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _namespaces():
    """Every attnrec module and every class defined in one."""
    modules = list(vars(MODS).values())
    return modules + [value for module in modules for value in vars(module).values()
                      if isinstance(value, type) and value.__module__ == module.__name__]


def test_every_patch_point_exists_and_every_original_comes_back():
    tracer = _tracer()
    points = {(owner, attr) for owner, attr, _ in tracer._patches(MODS)}
    missing = [f"{owner.__name__}.{attr}" for owner, attr in points if attr not in vars(owner)]
    assert not missing
    before = {owner: dict(vars(owner)) for owner in _namespaces()}
    with tracer.installed(MODS):
        for owner, attr in points:
            assert vars(owner)[attr].__wrapped__ is before[owner][attr]
        changed = {(owner, attr) for owner, names in before.items() for attr in names
                   if vars(owner)[attr] is not names[attr]}
        assert changed == points
    for owner, names in before.items():
        assert vars(owner).keys() == names.keys()
        assert all(vars(owner)[attr] is value for attr, value in names.items())


def test_encode_runs_through_the_traced_names():
    tracer = _tracer()
    ae = autoencoder.AttentiveAutoencoder(6, [4, 3], seed=0)
    with tracer.installed(MODS):
        latent = ae.encode(np.eye(6))
    assert latent.shape == (6, 3)
    assert tracer.calls["autoencoder.encode"] == 1
    assert tracer.calls["nn.attention.forward"] == 1
    assert tracer.calls["nn.dense.forward"] == 2
    assert tracer.calls["nn.batchnorm.forward"] == 2
