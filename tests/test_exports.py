"""Every exported name resolves, so a deletion cannot leave a stale export,
each concept has one spelling, and the README's library example runs
against the package as it is."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import walklab
from walklab import model, oracle, rng

MODULES = ["walklab"] + [
    f"walklab.{info.name}" for info in pkgutil.iter_modules(walklab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    missing = [attr for attr in names if not hasattr(module, attr)]
    assert missing == []


def test_package_reexports_are_the_module_objects():
    for name in walklab.__all__:
        if name == "__version__":
            continue
        obj = getattr(walklab, name)
        home = importlib.import_module(obj.__module__)
        assert getattr(home, name) is obj


def test_one_spelling_per_concept():
    """A draw is addressed by its step alone; a counter is its site set and
    cap; every quantity derived from p lives on WalkParams only."""
    for fn in (rng.counter_words, rng.counter_uniforms, rng.counter_steps, rng.path_step_bits):
        names = list(inspect.signature(fn).parameters)
        assert "block" not in names and names[-2:] == ["lanes", "step"], fn.__name__
    assert [f.name for f in dataclasses.fields(oracle.Functional)] == ["sites", "cap"]
    assert model.__all__ == ["WalkParams", "make_params"]
    assert [f.name for f in dataclasses.fields(model.WalkParams)] == ["p", "q", "h"]
    for name in ("gamma0", "beta", "lambda0", "kappa0", "wlimit", "theta", "two_point_bases"):
        assert name in vars(model.WalkParams), name


def test_readme_library_example_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(readme), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
