"""The propagation kernel: a program's grammar (``simulate.Program``, read
from a schedule's nesting by ``simulate._nested_grammar``, each rule a tuple
of symbols run in turn) run on numbered matrices, for a batch of models and
total times at once.

``Plan`` records the work, in one walk made once per program
(``simulate.Program.plan``), and how many matrices it holds; ``run`` does that
work in the models' eigenbasis, once per chunk of ``simulate._sweep``,
sized by ``Plan.size`` and ``Plan.driven``, and once at T = 0 on the system
pulses for ``simulate.Program.net``.  All driven steps of a run are
exponentiated together, from one batched ``eigh``, before its first
product.
"""

from collections import Counter

import numpy as np

from .linalg import expm_i_eig

__all__ = ["Plan", "run"]


class Plan:
    """The kernel's work for a grammar, as operations on numbered matrices
    (``ops``), and how many matrices it holds at once (``size``); the
    product of all steps ends in matrix ``result``.

    An operation is (op, a, b, c) on matrices numbered a, b, c: "new" a
    allocates matrix a where the walk first takes its number; "leaf" a =
    P(c) Phi(b), the pulse after free evolution over fraction b; "phase" a =
    Phi(b) a; "pulse" b = P(c) a; "product" c = a b; "copy" b = a; "driven"
    a = the exponential of step ``driven[b]`` (its pulse excluded).  P(None)
    is the identity.

    A rule that occurs once in the grammar runs symbol by symbol where it
    occurs.  The matrix of a rule that occurs more often, or of a driven
    step, is formed on its first use and its number freed after its last
    use, so identical driven steps are listed in ``driven`` once, and
    exponentiated once.  A freed number is reused.
    """

    def __init__(self, grammar):
        top, self.rules = grammar
        uses = Counter(s for rule in self.rules for s in rule if _is_operand(s))
        uses.update(s for s in top if _is_operand(s))
        self.uses = {s: n for s, n in uses.items() if n > 1 or not isinstance(s, int)}
        self.held, self.free, self.size, self.ops, self.driven = {}, [], 0, [], []
        self.result = self.chain(top)

    def new(self):
        if self.free:
            return self.free.pop()
        self.ops.append(("new", self.size, None, None))
        self.size += 1
        return self.size - 1

    def use(self, s):
        """The matrix of ``s`` and whether this is its last use."""
        m = self.held.pop(s) if s in self.held else self.form(s)
        self.uses[s] -= 1
        if self.uses[s]:
            self.held[s] = m
        return m, not self.uses[s]

    def advance(self, x, s):
        """Matrix ``x``, which the caller gives up, followed by ``s``."""
        if s in self.uses:
            m, last = self.use(s)
            out = self.new()
            self.ops.append(("product", m, x, out))
            if last:
                self.free.append(m)
        elif isinstance(s, int):
            for r in self.rules[s]:
                x = self.advance(x, r)
            return x
        else:
            frac, _, key = s
            if frac:
                self.ops.append(("phase", x, frac, None))
            if key is None:
                return x
            out = self.new()
            self.ops.append(("pulse", x, out, key))
        self.free.append(x)
        return out

    def start(self, s):
        """A matrix of ``s`` alone that the caller may overwrite."""
        if s in self.uses:
            m, last = self.use(s)
            if last:
                return m
            x = self.new()
            self.ops.append(("copy", m, x, None))
            return x
        if isinstance(s, int):
            return self.form(s)
        x = self.new()
        self.ops.append(("leaf", x, s[0], s[2]))
        return x

    def chain(self, seq):
        """A matrix of ``seq``'s symbols in turn that the caller may
        overwrite."""
        x = self.start(seq[0])
        for s in seq[1:]:
            x = self.advance(x, s)
        return x

    def form(self, s):
        if isinstance(s, int):
            return self.chain(self.rules[s])
        x = self.new()
        self.ops.append(("driven", x, len(self.driven), None))
        self.driven.append(s)
        return x if s[2] is None else self.advance(x, (0.0, None, s[2]))


def _is_operand(s):
    """A rule or a driven step: a symbol that can run as one product."""
    return isinstance(s, int) or s[1] is not None


def run(plan, energy, lifted):
    """The product of all of ``plan``'s steps, x[model, row, time, column],
    for a batch of models and total times at once, in the models' eigenbasis
    (``energy`` [model, level, time], ``lifted`` the pulses there): a free
    step is a phase multiply of the rows, a pulse one product per model over
    every time at once, and a product of two matrices runs on their [model,
    time, row, column] views.  A driven step's matrix is its exponential
    from ``_eigh_driven``, one batched ``eigh`` of all of them."""
    n_models, dim, n_times = energy.shape
    mats, rows, cols, phases = [], [], [], {}
    if plan.driven:
        evals, vecs = _eigh_driven(plan.driven, energy, lifted)

    def phase(frac):
        if frac not in phases:
            phases[frac] = np.exp(-1j * frac * energy)[..., None]
        return phases[frac]

    for op, a, b, c in plan.ops:
        if op == "new":
            x = np.empty((n_models, dim, n_times, dim), dtype=complex)
            mats.append(x)
            rows.append(x.reshape(n_models, dim, -1))
            cols.append(x.transpose(0, 2, 1, 3))
        elif op == "phase":
            mats[a] *= phase(b)
        elif op == "pulse":
            np.matmul(lifted[c], rows[a], out=rows[b])
        elif op == "product":
            np.matmul(cols[a], cols[b], out=cols[c])
        elif op == "leaf":
            p = np.eye(dim)[:, None] if c is None else lifted[c][:, :, None]
            np.multiply(p, phase(b).transpose(0, 3, 2, 1), out=mats[a])
        elif op == "copy":
            mats[b][...] = mats[a]
        else:
            expm_i_eig(evals[b], vecs[b], out=cols[a])
    return mats[plan.result]


def _eigh_driven(steps, energy, lifted):
    """The eigendecompositions of the driven steps' frac T diag(lambda) +
    angle A, indexed [step, model, time], from one batched ``eigh`` of a
    stack built in place: the drive, then the energies added on its
    diagonal."""
    n_models, dim, n_times = energy.shape
    stack = np.empty((len(steps), n_models, n_times, dim, dim), dtype=complex)
    diagonal = stack.reshape(len(steps), n_models, n_times, dim * dim)[..., :: dim + 1]
    for k, (frac, (axis, angle), _) in enumerate(steps):
        np.multiply(angle, lifted[axis][:, None], out=stack[k])
        diagonal[k] += (frac * energy).swapaxes(1, 2)
    return np.linalg.eigh(stack)
