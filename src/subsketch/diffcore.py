"""Minimal dense-matrix reverse-mode autodiff.

All values are 2-D C-contiguous float64 numpy arrays ("matrices"). A Tape
records every operation in creation order, which is automatically a
topological order: an operand node always exists before its consumer.
Calling ``Tape.backward`` on a scalar (1x1) node walks the tape in reverse
and accumulates gradients into every parameter node.

Two switches set a tape's mode. ``training`` toggles dropout. ``record``
decides whether anything is kept for backward: a forward-only tape
(``record=False``) returns nodes with no operands and no backward rule and
keeps no list of them, so each intermediate array is freed as soon as the
forward drops it, and its ``backward`` raises.  Evaluation and explain run
on such a tape.

Gathers know their index pattern: ``take_rows`` slices a contiguous
``range`` and zero-pads its gradient, ``repeat_rows`` repeats each row in
equal runs and sums each run's gradient rows in order, and any other index
array scatter-adds with one ``np.bincount``.

Broadcasting is narrow and explicit: ``add``, ``mul`` and ``div`` take a
second operand of the first's shape, or a single (1, d) row repeated down
its rows, or a single (r, 1) column repeated across its columns. That
operand's gradient folds back with a ones-vector matmul, which sums in the
same order as the ones-matrix matmul broadcast it stands for. Any other
shape pair is an error. This keeps every backward rule a two-line closure.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Matrix", "Node", "Tape", "as_matrix"]

# Values are plain numpy arrays; the alias documents intent in signatures.
Matrix = np.ndarray

# Additive mask value: finite (so tape values stay inf-free) but large enough
# that exp(x - rowmax) underflows to exactly 0.0 for masked entries.
MASK_OFF = -1e30


def as_matrix(value) -> Matrix:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    m = np.ascontiguousarray(value, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


class Node:
    """One unnamed value on a tape: output, operands, and a backward rule."""

    __slots__ = ("value", "grad", "parents", "backward_rule", "is_param")

    def __init__(self, value, parents, backward_rule, is_param=False):
        self.value = value
        self.grad = None
        self.parents = parents
        self.backward_rule = backward_rule
        self.is_param = is_param

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Linear record of operations with reverse-mode gradient accumulation.

    Single-threaded by design: one tape per training step. ``training``
    toggles dropout. ``record`` decides whether anything is kept for
    backward; with ``record=False`` no node, operand or backward rule is
    kept, ``nodes`` and ``params`` stay empty and ``backward`` raises.
    Values are computed the same way in every mode.
    """

    def __init__(self, training: bool = True, record: bool = True):
        self.nodes: list[Node] = []
        self.params: list[Node] = []
        self.training = training
        self.record = record

    # ------------------------------------------------------------------ leaves

    def _record(self, value, parents=(), backward_rule=None, is_param=False) -> Node:
        if not self.record:
            return Node(value, (), None, is_param)
        node = Node(value, tuple(parents), backward_rule, is_param)
        self.nodes.append(node)
        if is_param:
            self.params.append(node)
        return node

    def param(self, value) -> Node:
        """Leaf that accumulates a gradient during backward."""
        return self._record(as_matrix(value), is_param=True)

    def constant(self, value) -> Node:
        """Leaf with no gradient tracking."""
        return self._record(as_matrix(value))

    # --------------------------------------------------------------- structure

    @staticmethod
    def _folder(op, a, b):
        """Map from a gradient of ``a``'s shape to one of ``b``'s shape.

        ``b`` must match ``a`` or be a (1, d) row or (r, 1) column that the
        op repeats across ``a``; the fold sums the repeats.
        """
        (r, d), shape = a.value.shape, b.value.shape
        if shape == (r, d):
            return lambda g: g
        if shape == (1, d):
            return lambda g: np.ones((1, r)) @ g
        if shape == (r, 1):
            return lambda g: g @ np.ones((d, 1))
        raise ValueError(f"{op} shape mismatch: {a.value.shape} vs {shape}")

    def matmul(self, a: Node, b: Node) -> Node:
        if a.value.shape[1] != b.value.shape[0]:
            raise ValueError(
                f"matmul dimension mismatch: {a.value.shape} @ {b.value.shape}"
            )

        def rule(g):
            # With one column in b, g @ b.T is an outer product: one multiply
            # per entry, the same bits as a k=1 gemm at half its cost.
            ga = g * b.value.T if b.value.shape[1] == 1 else g @ b.value.T
            return (ga, a.value.T @ g)

        return self._record(a.value @ b.value, (a, b), rule)

    def transpose(self, x: Node) -> Node:
        return self._record(
            np.ascontiguousarray(x.value.T), (x,), lambda g: (np.ascontiguousarray(g.T),)
        )

    def reshape(self, x: Node, rows: int, cols: int) -> Node:
        if rows * cols != x.value.size:
            raise ValueError(
                f"reshape size mismatch: {x.value.shape} -> ({rows}, {cols})"
            )
        shape = x.value.shape
        return self._record(
            x.value.reshape(rows, cols), (x,), lambda g: (g.reshape(shape),)
        )

    def take_rows(self, x: Node, indices) -> Node:
        """Gather rows (duplicates allowed); backward scatter-adds.

        A ``range`` of step 1 inside ``x`` is a contiguous block: the forward
        takes a slice and the backward zero-pads the gradient around it.
        """
        rows, cols = x.value.shape
        if isinstance(indices, range) and indices.step == 1 and (
            0 <= indices.start <= indices.stop <= rows
        ):
            block = slice(indices.start, indices.stop)

            def pad(g):
                gx = np.zeros((rows, cols))
                gx[block] = g
                return (gx,)

            return self._record(x.value[block], (x,), pad)
        idx = np.asarray(indices, dtype=np.intp)

        def rule(g):
            # One flat bincount adds in index order from zero, exactly as
            # np.add.at would, at a fraction of its cost.
            flat = ((idx * cols)[:, None] + np.arange(cols)).ravel()
            gx = np.bincount(flat, weights=g.ravel(), minlength=rows * cols)
            return (gx.reshape(rows, cols),)

        return self._record(np.take(x.value, idx, axis=0), (x,), rule)

    def repeat_rows(self, x: Node, reps: int, shift: int = 0) -> Node:
        """Each row of ``x`` ``reps`` times in a run, the runs rotated down by
        ``shift``: row i is ``x``'s row ``(i // reps - shift) % rows``.

        The backward sums each run's gradient rows in order, the additions a
        scatter-add of those indices makes (for a one-column ``x``, numpy's
        pairwise summation of runs of 8 or more rows may round differently).
        """
        rows, cols = x.value.shape
        # np.roll copies even when it does not move anything
        src = np.roll(x.value, shift, axis=0) if shift else x.value

        def rule(g):
            runs = g.reshape(rows, reps, cols).sum(axis=1)
            return (np.roll(runs, -shift, axis=0) if shift else runs,)

        return self._record(np.repeat(src, reps, axis=0), (x,), rule)

    def sum(self, x: Node) -> Node:
        """Sum of all entries as a 1x1 matrix."""
        return self._record(
            np.array([[x.value.sum()]]), (x,), lambda g: (np.full_like(x.value, g[0, 0]),)
        )

    def l2_penalty(self, params: list[Node], c: float) -> Node:
        """``c`` times the sum of squares of every entry of ``params`` (1x1).

        Each array's squares are summed by numpy, then the per-array sums
        in list order; the gradient to each parameter is ``2·c·g·θ``.
        """
        c = float(c)
        total = sum((p.value * p.value).sum() for p in params)
        return self._record(
            np.array([[total * c]]), params,
            lambda g: tuple(2.0 * ((g[0, 0] * c) * p.value) for p in params),
        )

    def rowdot(self, a: Node, b: Node) -> Node:
        """Dot product of each row of ``a`` with the same row of ``b`` (r x 1)."""
        if a.value.shape != b.value.shape:
            raise ValueError(
                f"rowdot shape mismatch: {a.value.shape} vs {b.value.shape}"
            )
        return self._record(
            np.einsum("ij,ij->i", a.value, b.value)[:, None], (a, b),
            lambda g: (g * b.value, g * a.value),
        )

    def block_diag_matmul(self, blocks: np.ndarray | Node, h: Node) -> Node:
        """Multiply a block-diagonal matrix by ``h``.

        ``blocks`` is either a constant (m, s, s) array or a node of shape
        (m*s, s) whose rows [i*s, (i+1)*s) hold block i; only the node form
        gets a gradient. ``h`` has shape (m*s, d), and block i acts on its
        rows [i*s, (i+1)*s). Equivalent to a dense (m*s)x(m*s) block-diag
        matmul without materializing it.
        """
        if isinstance(blocks, Node):
            parents = (blocks, h)
            rows, s = blocks.value.shape
            fits = s > 0 and rows % s == 0
            b = blocks.value.reshape(rows // s, s, s) if fits else None
        else:
            parents = (h,)
            fits = blocks.ndim == 3 and blocks.shape[1] == blocks.shape[2]
            b = blocks
        if not fits or h.value.shape[0] != b.shape[0] * b.shape[1]:
            raise ValueError(
                f"block_diag_matmul mismatch: blocks {blocks.shape}, h {h.value.shape}"
            )
        m, s, _ = b.shape
        d = h.value.shape[1]
        hr = h.value.reshape(m, s, d)

        def rule(g):
            gr = g.reshape(m, s, d)
            gh = np.matmul(b.transpose(0, 2, 1), gr).reshape(m * s, d)
            if len(parents) == 1:
                return (gh,)
            return (np.matmul(gr, hr.transpose(0, 2, 1)).reshape(m * s, s), gh)

        # Stacked np.matmul, not einsum: on batches of small blocks einsum's
        # generic loops run about 10x slower.
        return self._record(np.matmul(b, hr).reshape(m * s, d), parents, rule)

    def rowblock_weighted_sum(self, w: Node, h: Node) -> Node:
        """out[i] = sum_j w[i, j] * h[i*s + j]  (w: m x s, h: (m*s) x d)."""
        m, s = w.value.shape
        if h.value.shape[0] != m * s:
            raise ValueError(
                f"rowblock_weighted_sum mismatch: w {w.value.shape}, h {h.value.shape}"
            )
        d = h.value.shape[1]
        hr = h.value.reshape(m, s, d)

        def rule(g):
            gw = np.einsum("md,msd->ms", g, hr)
            gh = np.einsum("ms,md->msd", w.value, g).reshape(m * s, d)
            return (gw, gh)

        return self._record(np.einsum("ms,msd->md", w.value, hr), (w, h), rule)

    # ---------------------------------------------------------------- entrywise

    def add(self, a: Node, b: Node) -> Node:
        fold = self._folder("add", a, b)
        return self._record(a.value + b.value, (a, b), lambda g: (g, fold(g)))

    def mul(self, a: Node, b: Node) -> Node:
        fold = self._folder("mul", a, b)
        return self._record(
            a.value * b.value, (a, b), lambda g: (g * b.value, fold(g * a.value))
        )

    def div(self, a: Node, b: Node) -> Node:
        fold = self._folder("div", a, b)
        if np.any(b.value == 0.0):
            raise ValueError("div: zero entry in denominator")
        return self._record(
            a.value / b.value, (a, b),
            lambda g: (g / b.value, fold(-g * a.value / (b.value**2))),
        )

    def neg(self, x: Node) -> Node:
        return self._record(-x.value, (x,), lambda g: (-g,))

    def scale(self, x: Node, c: float) -> Node:
        c = float(c)
        return self._record(x.value * c, (x,), lambda g: (g * c,))

    def sigmoid(self, x: Node) -> Node:
        # tanh form is overflow-free for large |x|
        y = 0.5 * (1.0 + np.tanh(0.5 * x.value))
        return self._record(y, (x,), lambda g: (g * y * (1.0 - y),))

    def tanh(self, x: Node) -> Node:
        y = np.tanh(x.value)

        def rule(g):
            # g * (1 - y^2) in one temporary
            d = y * y
            np.subtract(1.0, d, out=d)
            d *= g
            return (d,)

        return self._record(y, (x,), rule)

    def leaky_relu(self, x: Node, slope: float = 0.2) -> Node:
        y = np.where(x.value > 0, x.value, slope * x.value)
        return self._record(y, (x,), lambda g: (g * np.where(x.value > 0, 1.0, slope),))

    def log(self, x: Node) -> Node:
        if np.any(x.value <= 0.0):
            raise ValueError("log: non-positive operand entry")
        return self._record(np.log(x.value), (x,), lambda g: (g / x.value,))

    def exp(self, x: Node) -> Node:
        y = np.exp(x.value)
        return self._record(y, (x,), lambda g: (g * y,))

    def sqrt(self, x: Node) -> Node:
        if np.any(x.value <= 0.0):
            raise ValueError("sqrt: non-positive operand entry")
        y = np.sqrt(x.value)
        return self._record(y, (x,), lambda g: (g * 0.5 / y,))

    def softplus(self, x: Node) -> Node:
        """log(1 + exp(x)), overflow-free; gradient is sigmoid(x)."""
        v = x.value
        y = np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))
        return self._record(y, (x,), lambda g: (g * 0.5 * (1.0 + np.tanh(0.5 * v)),))

    # ----------------------------------------------------------- row softmax

    def softmax_rows(self, x: Node) -> Node:
        shifted = x.value - x.value.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=1, keepdims=True)

        def rule(g):
            dot = (g * y).sum(axis=1, keepdims=True)
            return (y * (g - dot),)

        return self._record(y, (x,), rule)

    def vote_nll(self, logits: Node, labels, m: int) -> Node:
        """Mean over graphs of ``-log(mean_i softmax(z_i)[y])``, in log space.

        Graph b owns ``logits`` rows [b*m, (b+1)*m) and class ``labels[b]``;
        row i's gradient is ``softmax(z_i) - onehot(y)`` times its vote share.
        """
        b, y = len(labels), np.repeat(np.asarray(labels, dtype=np.intp), m)
        if m < 1 or logits.value.shape[0] != b * m:
            raise ValueError(f"vote_nll: {logits.value.shape} logits for {b}x{m} rows")
        shifted = logits.value - logits.value.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        picked = log_probs[np.arange(b * m), y].reshape(b, m)
        top = picked.max(axis=1, keepdims=True)
        share = np.exp(picked - top)
        total = share.sum(axis=1, keepdims=True)
        loss = (top + np.log(total) - np.log(m)).sum() * (-1.0 / b)

        def rule(g):
            grad = np.exp(log_probs)
            grad[np.arange(b * m), y] -= 1.0
            return (grad * ((share / total).reshape(-1, 1) * (g[0, 0] / b)),)

        return self._record(np.array([[loss]]), (logits,), rule)

    # -------------------------------------------------------------- dropout

    def dropout(self, x: Node, rate: float, rng: np.random.Generator) -> Node:
        """Inverted dropout; identity (same node) when not training."""
        if not (0.0 <= rate < 1.0):
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        if not self.training or rate == 0.0:
            return x
        keep = 1.0 - rate
        mask = (rng.random(x.value.shape) < keep) / keep
        return self._record(x.value * mask, (x,), lambda g: (g * mask,))

    # -------------------------------------------------------------- backward

    def backward(self, loss: Node) -> dict[Node, np.ndarray]:
        """Accumulate gradients of a scalar loss into every parameter.

        Parameters not reachable from the loss get an exact zero gradient.
        Returns {param_node: gradient}, a view of each node's ``grad``.
        """
        if not self.record:
            raise ValueError(
                "backward needs a recording tape; this one was made with "
                "record=False and kept nothing for backward"
            )
        if loss.value.shape != (1, 1):
            raise ValueError(
                f"backward needs a scalar (1x1) loss, got shape {loss.value.shape}"
            )
        for node in self.nodes:
            node.grad = None
        loss.grad = np.ones((1, 1))
        for node in reversed(self.nodes):
            if node.grad is None or node.backward_rule is None:
                continue
            for parent, g in zip(node.parents, node.backward_rule(node.grad)):
                # No rule returns a value array and no accumulation is in
                # place, so a first gradient can alias the rule's output.
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g
        for p in self.params:
            if p.grad is None:
                p.grad = np.zeros_like(p.value)
        return {p: p.grad for p in self.params}
