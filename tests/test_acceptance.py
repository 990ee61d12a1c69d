"""End-to-end acceptance suite.

Each criterion is a self-contained check of the library's headline claims
(decoupling-order scaling, pulse-count formulas, operation-set invariants,
Lie closures, pulse-shaping orders, and the conjugation-robustness property).
One line per criterion is printed with the measured values.
"""

import numpy as np
import pytest

from ddkit import acceptance
from ddkit.acceptance import CRITERIA
from ddkit.model import HamiltonianModel, random_model
from ddkit.operators import pauli
from ddkit.pulseshape import design_pulse, pulse_error_scan, rectangular_pulse


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


def test_pulse_criterion_ratios_equal_the_per_seed_scans(monkeypatch):
    # the ratio leg runs every seed in one batched call per shape; its eight
    # ratios, and so its details, are those of one scan per seed and shape
    median, seen = acceptance.median, []

    def recording(values):
        seen.append(np.array(values))
        return median(values)

    monkeypatch.setattr(acceptance, "median", recording)
    result = acceptance.criterion_pulse_shaping()
    assert result.details == (
        "|eta11| = 8.3e-17, |eta12| = 1.4e-17, area residual 0.0e+00; "
        "designed slope 2.000 in [1.8, 2.3]; "
        "rect/designed error ratio at tau_p|H| = 0.01: median 494.2 (want >= 10)"
    )
    z, shape, rect = pauli("z", 1, 1), design_pulse("sym3"), rectangular_pulse()
    want = []
    for seed in range(8):
        m = random_model("general", 2, 4, 1.0, seed)
        e_design = pulse_error_scan(shape, m, z, [0.01]).medians["Z1"][0]
        e_rect = pulse_error_scan(rect, m, z, [0.01]).medians["Z1"][0]
        want.append(e_rect / e_design)
    assert len(seen) == 1 and seen[0].tobytes() == np.array(want).tobytes()
