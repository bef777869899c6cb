"""The suite's one definition of work: the ``work`` fixture, a spy on the
costly entries of the program."""

import functools

import pytest

from bornbox import (circuits, cli, experiments, oracle, polybox, samplers,
                     stabcore)


class WorkStarted(Exception):
    pass


# The costly entries, by the module that defines them, each with the name
# it is listed under: the dense builds, which every build through
# exact_distribution, exact_probability and encoded_first_bit reaches, the
# estimator's pull-back, the Clifford draws and the pools.  A part of a
# dense build is listed under the build's name, so that a build that works
# before its own guard refuses is seen.  The kernels are the handles'
# ``values``.
COSTLY = {
    (oracle, "prod_probabilities_many"): "oracle.prod_probabilities_many",
    (oracle, "prod_branches"): "oracle.prod_probabilities_many",
    (oracle, "iqp_statevector"): "oracle.iqp_statevector",
    (stabcore, "pull_back_words"): "stabcore.pull_back_words",
    (stabcore, "random_clifford_words"): "stabcore.random_clifford_words",
    (polybox, "_chunked_map"): "polybox._chunked_map",
}
DENSE = {"oracle.prod_probabilities_many", "oracle.iqp_statevector"}
KERNELS = [polybox.ProdPolyBox, polybox.IqpPolyBox]
MODULES = [circuits, cli, experiments, oracle, polybox, samplers, stabcore]


class Work(list):
    """The names of the costly entries that ran, in order."""

    stop = False

    def builds(self) -> list[str]:
        """The dense builds among them."""
        return [name for name in self if name in DENSE]


@pytest.fixture
def work(monkeypatch):
    """The costly entries that ran, listed as each call returns, a dense
    build once, when its first part returns or else when it does.  Each
    entry is wrapped in every bornbox module that binds its name, and the
    wrapper calls through, so allowed work runs; a call that raises before
    any part of it returned is not listed, so an entry whose own guard
    refuses first, as the oracle limit does at the top of
    ``prod_probabilities_many``, ran no work.  A pool, which has no guard,
    is listed as it is called, so a pool whose work then refuses is seen.
    With ``work.stop`` set, reaching an entry raises WorkStarted instead."""
    ran = Work()

    def spy(name, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            if ran.stop:
                raise WorkStarted(name)
            if name == "polybox._chunked_map":  # spawns its substreams first
                ran.append(name)
                return fn(*args, **kwargs)
            start = len(ran)
            result = fn(*args, **kwargs)
            if name not in ran[start:]:  # else a part of it was listed
                ran.append(name)
            return result
        return recorded

    for (home, attr), name in COSTLY.items():
        fn = getattr(home, attr)
        wrapped = spy(name, fn)
        for module in MODULES:
            if getattr(module, attr, None) is fn:
                monkeypatch.setattr(module, attr, wrapped)
    for cls in KERNELS:
        monkeypatch.setattr(cls, "values", staticmethod(
            spy(f"{cls.__name__}.values", cls.values)))
    return ran
