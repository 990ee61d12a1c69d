"""The propagation kernel: a program's grammar (``simulate.Program``, read
from a schedule's nesting by ``simulate._nested_grammar``, each rule a tuple
of symbols run in turn) run on numbered matrices, for a batch of models and
total times at once.

``Plan`` decides the order of the work and how many matrices it holds;
``Run`` does that work in the models' eigenbasis.  ``simulate._propagators``
runs a program, and ``simulate.order_scan`` sizes its chunks by
``Plan(grammar).size``.
"""

from collections import Counter

import numpy as np

__all__ = ["Plan", "Run"]


class Plan:
    """The kernel's work for a grammar, as operations on numbered matrices
    (``emit``), and how many matrices it holds at once (``size``); the
    product of all steps ends in matrix ``result``.

    A rule that occurs once in the grammar runs symbol by symbol where it
    occurs.  The matrix of a rule that occurs more often, or of a driven
    step, is formed on its first use and its number freed after its last
    use, so identical driven steps are exponentiated once.  A freed number
    is reused.  This class only counts; ``Run`` also computes.
    """

    def __init__(self, grammar):
        top, self.rules = grammar
        uses = Counter(s for rule in self.rules for s in rule if _is_operand(s))
        uses.update(s for s in top if _is_operand(s))
        self.uses = {s: n for s, n in uses.items() if n > 1 or not isinstance(s, int)}
        self.held, self.free, self.size = {}, [], 0
        self.result = self.chain(top)

    def emit(self, op, a, b, c=None):
        """Operation ``op`` on matrices numbered ``a``, ``b``, ``c``: "leaf"
        a = P(c) Phi(b), the pulse after free evolution over fraction b;
        "phase" a = Phi(b) a; "pulse" b = P(c) a; "product" c = a b; "copy"
        b = a; "driven" a = the driven step b (its pulse excluded).  P(None)
        is the identity."""

    def new(self):
        if self.free:
            return self.free.pop()
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
            self.emit("product", m, x, out)
            if last:
                self.free.append(m)
        elif isinstance(s, int):
            for r in self.rules[s]:
                x = self.advance(x, r)
            return x
        else:
            frac, _, key = s
            if frac:
                self.emit("phase", x, frac)
            if key is None:
                return x
            out = self.new()
            self.emit("pulse", x, out, key)
        self.free.append(x)
        return out

    def start(self, s):
        """A matrix of ``s`` alone that the caller may overwrite."""
        if s in self.uses:
            m, last = self.use(s)
            if last:
                return m
            x = self.new()
            self.emit("copy", m, x)
            return x
        if isinstance(s, int):
            return self.form(s)
        x = self.new()
        self.emit("leaf", x, s[0], s[2])
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
        self.emit("driven", x, s)
        return x if s[2] is None else self.advance(x, (0.0, None, s[2]))


def _is_operand(s):
    """A rule or a driven step: a symbol that can run as one product."""
    return isinstance(s, int) or s[1] is not None


class Run(Plan):
    """A ``Plan`` computed for a batch of models and total times at once,
    in the models' eigenbasis (``energy`` [model, level, time], ``lifted``
    the pulses there).  Each matrix is held as x[model, row, time, column]:
    a free step is a phase multiply of the rows, a pulse one product per
    model over every time at once, and a product of two matrices runs on
    their [model, time, row, column] views."""

    def __init__(self, grammar, energy, lifted):
        self.energy, self.lifted, self.phases = energy, lifted, {}
        self.mats, self.rows, self.cols = [], [], []
        super().__init__(grammar)

    @property
    def product(self):
        """The product of all steps, [model, row, time, column]."""
        return self.mats[self.result]

    def phase(self, frac):
        if frac not in self.phases:
            self.phases[frac] = np.exp(-1j * frac * self.energy)[..., None]
        return self.phases[frac]

    def new(self):
        i = super().new()
        if i == len(self.mats):
            n_models, dim, n_times = self.energy.shape
            x = np.empty((n_models, dim, n_times, dim), dtype=complex)
            self.mats.append(x)
            self.rows.append(x.reshape(n_models, dim, -1))
            self.cols.append(x.transpose(0, 2, 1, 3))
        return i

    def emit(self, op, a, b, c=None):
        mats, rows, cols, dim = self.mats, self.rows, self.cols, self.energy.shape[1]
        if op == "phase":
            mats[a] *= self.phase(b)
        elif op == "pulse":
            np.matmul(self.lifted[c], rows[a], out=rows[b])
        elif op == "product":
            np.matmul(cols[a], cols[b], out=cols[c])
        elif op == "leaf":
            p = np.eye(dim)[:, None] if c is None else self.lifted[c][:, :, None]
            np.multiply(p, self.phase(b).transpose(0, 3, 2, 1), out=mats[a])
        elif op == "copy":
            mats[b][...] = mats[a]
        else:
            frac, (axis, angle), _ = b
            diag = (frac * self.energy).swapaxes(1, 2)[..., None] * np.eye(dim)
            vals, q = np.linalg.eigh(angle * self.lifted[axis][:, None] + diag)
            np.matmul(q * np.exp(-1j * vals)[..., None, :], q.conj().swapaxes(-1, -2),
                      out=cols[a])
