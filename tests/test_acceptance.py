"""End-to-end acceptance suite.

Each criterion is a self-contained check of the library's headline claims
(decoupling-order scaling, pulse-count formulas, operation-set invariants,
Lie closures, pulse-shaping orders, and the conjugation-robustness property).
One line per criterion is printed with the measured values.
"""

import pytest

from ddkit import acceptance
from ddkit.acceptance import CRITERIA
from ddkit.model import HamiltonianModel, random_model


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    result = criterion()
    print(f"[{'PASS' if result.passed else 'FAIL'}] "
          f"{result.number:2d}. {result.name}: {result.details}")
    assert result.passed, f"criterion {result.number} ({result.name}): {result.details}"


def test_acceptance_realizes_each_model_once_per_process(monkeypatch):
    # 24 distinct models (general 2x4 and 4x4, qdd_counterexample 2x4, seeds
    # 0-7) behind 113 random_model calls per run
    built = []
    post_init = HamiltonianModel.__post_init__

    def counting(self):
        built.append((self.structure, self.sys_dim, self.seed))
        post_init(self)

    monkeypatch.setattr(HamiltonianModel, "__post_init__", counting)
    random_model.cache_clear()
    first = acceptance.run_all()
    assert len(built) == len(set(built)) == 24
    second = acceptance.run_all()
    assert len(built) == 24
    assert [r.details for r in second] == [r.details for r in first]
