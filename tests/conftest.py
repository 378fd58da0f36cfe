"""Every Jacobian algebra a test builds is checked as a torus action."""

from itertools import combinations

import pytest

from altfrob.mirror import JacobianAlgebra


def apply(step, vec):
    """One map of ``JacobianAlgebra.action`` applied to {basis index: value}."""
    out: dict = {}
    for k, v in vec.items():
        for c, a in step[k].items():
            out[c] = out.get(c, 0) + v * a
    return {c: v for c, v in out.items() if v}


def torus_action_defects(J) -> list[str]:
    """Where the maps u_i^(+-1) of J fail to be mutually inverse or to commute."""
    units = [{k: 1} for k in range(J.dim)]
    maps = J.action
    bad = []
    for i in range(J.n):
        minus, plus = maps[2 * i], maps[2 * i + 1]
        if any(apply(minus, apply(plus, e)) != e or apply(plus, apply(minus, e)) != e
               for e in units):
            bad.append(f"u{i + 1}^(+1) and u{i + 1}^(-1) are not mutually inverse")
    for s, t in combinations(range(2 * J.n), 2):
        if any(apply(maps[s], apply(maps[t], e)) != apply(maps[t], apply(maps[s], e))
               for e in units):
            bad.append(f"maps {s} and {t} do not commute")
    return bad


@pytest.fixture(autouse=True)
def certified_jacobian_algebras(monkeypatch):
    built = []
    init = JacobianAlgebra.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(JacobianAlgebra, "__init__", recording)
    yield
    for J in built:
        assert torus_action_defects(J) == [], J.f
