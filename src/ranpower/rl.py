"""Learning primitives: replay memory, a small MLP Q-network, and policy ops.

The network is implemented directly on numpy arrays with hand-written
backpropagation; there is deliberately no autograd dependency.  One network
is shared across base stations and evaluated per station on a two-feature
state (normalised pending volume, normalised serving RSRP).  Training
minimises the quadratic regression loss

    L = 1 / (2 m) * sum_k (Q(s_k, a_k) - y_k)^2

with plain gradient descent, where the targets ``y_k`` come from a separate
target network that is synchronised every few training rounds.  A
minibatch is a set of replay ring slots.  Between syncs the target network
is frozen, and a stored successor does not change until its ring slot is
overwritten, so the replay ring keeps each transition's bootstrap value
max_a Q_target(s') once a round has computed it, and later rounds run the
target network only on sampled rows without one.  This is exact where a
row of the forward pass has the same bits in any batch of two or more
rows, as at the widths (2, 64, 64, 5) and (2, 16, 16, 4) the tests pin; at
``n_power_levels`` 2-3 or ``hidden_units`` 17 or 50 a target can be off by
an ulp (the strict xfail ``2-16-16-16-3``).  A lone row can take another
BLAS path, so no value is ever computed in a one-row batch where one
forward over all live successors would have had more rows.  Every
forward pass, the search's included, runs in the network's buffers, which
the target network shares, and the backward pass writes each layer's error
into the activation buffer that layer has already used, so a round holds
one (minibatch, width) array per layer.  These primitives take their
constants (sizes, discount, learning rate) as plain arguments; the agents
read them from the run's ``RunConfig``.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .errors import ValidationError


class ReplayMemory:
    """Bounded FIFO store of transitions with uniform minibatch sampling.

    Transitions live in preallocated ring arrays ``s``, ``a``, ``r``,
    ``s_next`` and ``live``; ``head`` is the next slot written, which once
    the ring is full is also the oldest transition.  A slot whose ``live``
    is False ended a run: its ``s_next`` is meaningless and the bootstrap
    term is dropped from its learning target.

    ``boot`` holds each slot's bootstrap value max_a Q_target(s'), valid for
    the target network whose :attr:`QNetwork.version` is in ``boot_version``
    (-1: none).  :func:`minibatch_targets` fills them; a target sync changes
    the version, and ``push`` resets the slots it overwrites.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValidationError(f"replay capacity {capacity} must be positive")
        self.capacity = capacity
        self.s = np.zeros((capacity, 2))
        self.a = np.zeros(capacity, dtype=np.intp)
        self.r = np.zeros(capacity)
        self.s_next = np.zeros((capacity, 2))
        self.live = np.zeros(capacity, dtype=bool)
        self.boot = np.zeros(capacity)
        self.boot_version = np.full(capacity, -1, dtype=np.int64)
        self.head = 0
        self._len = 0

    def push(
        self, s: np.ndarray, a: np.ndarray, r: float, s_next: np.ndarray | None
    ) -> None:
        """Store one decision's transitions in order, all sharing reward ``r``:
        ``s`` and ``s_next`` of shape (n, 2), ``a`` of shape (n,).
        ``s_next`` None marks them as the last step of a run."""
        n, cap = len(a), self.capacity
        keep = min(n, cap)
        start = (self.head + n - keep) % cap
        wrap = n - keep + min(keep, cap - start)  # first input row that lands in slot 0
        # At most two slices: up to the end of the ring, then from its start.
        for lo, rows in ((start, slice(n - keep, wrap)), (0, slice(wrap, n))):
            dst = slice(lo, lo + rows.stop - rows.start)
            if dst.start < dst.stop:
                self.s[dst], self.a[dst], self.r[dst] = s[rows], a[rows], r
                self.live[dst] = s_next is not None
                self.s_next[dst] = 0.0 if s_next is None else s_next[rows]
                self.boot_version[dst] = -1
        self.head = (self.head + n) % cap
        self._len = min(self._len + n, self.capacity)

    def __len__(self) -> int:
        return self._len

    def sample_minibatch(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """The ring slots of ``size`` transitions drawn uniformly without
        replacement; needs strictly more than ``size``.

        ``rng`` draws indices in insertion order (oldest first), which the
        ring maps to slots.
        """
        if self._len <= size:
            raise ValidationError(
                f"memory holds {self._len} transitions, need more than {size}"
            )
        idx = rng.choice(self._len, size=size, replace=False)
        return (self.head - self._len + idx) % self.capacity

    def action_count(self, action: int) -> int:
        return int(np.count_nonzero(self.a[: self._len] == action))


# Parameter versions (see ``QNetwork.version``); only their uniqueness matters.
_versions = itertools.count()


class QNetwork:
    """Fully connected ReLU network mapping a state to one value per action.

    Hidden layers get scaled Gaussian weights; the output layer starts at
    zero so a fresh network is indifferent between actions (its forward pass
    is exactly zero everywhere) and the first training rounds decide the
    initial ordering rather than initialisation noise.

    ``version`` names the current parameters, unique across networks: it
    changes whenever :func:`sync_target` or :func:`backward_and_step` writes
    them, so values computed under one version stay valid while it holds.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]) -> None:
        if len(weights) != len(biases) or not weights:
            raise ValidationError("need one bias vector per weight matrix")
        for w, b in zip(weights, biases):
            if w.shape[1] != b.shape[0]:
                raise ValidationError(f"bias {b.shape} does not fit {w.shape}")
        for prev, nxt in zip(weights, weights[1:]):
            if prev.shape[1] != nxt.shape[0]:
                raise ValidationError(
                    f"layer chain broken: {prev.shape} -> {nxt.shape}"
                )
        self.weights = weights
        self.biases = biases
        self.version = next(_versions)
        # Layer arrays, allocated on first use (see ``_scratch``).
        self._buffers: dict[tuple[str, int], np.ndarray] = {}

    @classmethod
    def create(cls, layer_sizes: Sequence[int], rng: np.random.Generator) -> "QNetwork":
        if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
            raise ValidationError(f"unusable layer sizes {layer_sizes}")
        weights = [
            rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_in, fan_out))
            for fan_in, fan_out in zip(layer_sizes[:-2], layer_sizes[1:-1])
        ]
        weights.append(np.zeros(tuple(layer_sizes[-2:])))
        return cls(weights, [np.zeros(size) for size in layer_sizes[1:]])

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple([self.weights[0].shape[0]] + [w.shape[1] for w in self.weights])

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """Q-values of each state row of ``x`` (or of one state), in an
        array the caller owns."""
        return self._activations(np.atleast_2d(x))[-1].copy()

    def _scratch(self, key: tuple[str, int], shape: tuple[int, ...], dtype=float) -> np.ndarray:
        """The leading ``shape[0]`` rows of a buffer of this network,
        reallocated only when a larger batch asks for more rows.  The
        buffers are each layer's output (``"out"``), which a training round
        overwrites with that layer's error, the ReLU masks (``"mask"``) and
        the gradients (``"grad_w"``, ``"grad_b"``).  A :meth:`clone` shares
        them, so the target network's forward and the predicted network's
        round use the same arrays."""
        buf = self._buffers.get(key)
        if buf is None or len(buf) < shape[0]:
            buf = self._buffers[key] = np.empty(shape, dtype)
        return buf[: shape[0]]

    def _activations(self, x: np.ndarray) -> list[np.ndarray]:
        """``x`` and every layer's output for its rows (``a @ w``, ``+ b``,
        then ReLU on all but the last), the last being the Q-values, written
        into this network's buffers: valid only until the next forward or
        training round of this network or of any network sharing its
        buffers (its clones)."""
        acts = [x]
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = np.matmul(acts[-1], w, out=self._scratch(("out", layer), (len(x), w.shape[1])))
            z += b
            if layer < len(self.weights) - 1:
                np.maximum(z, 0.0, out=z)
            acts.append(z)
        return acts

    def clone(self) -> "QNetwork":
        """A copy with its own parameters that shares this network's
        buffers (see ``_scratch``): a round reduces the target network's
        output before the predicted network's pass reuses them, and after
        a round they hold errors, not Q-values."""
        twin = QNetwork([w.copy() for w in self.weights], [b.copy() for b in self.biases])
        twin._buffers = self._buffers
        return twin


def _row_max(q: np.ndarray) -> np.ndarray:
    """Row maxima of a 2-D array, folded over its columns with
    ``np.maximum``: the same values as ``max(axis=1)``, faster for a few
    columns."""
    best = q[:, 0].copy()
    for col in range(1, q.shape[1]):
        np.maximum(best, q[:, col], out=best)
    return best


def minibatch_targets(
    memory: ReplayMemory, slots: np.ndarray, target_net: QNetwork, discount: float
) -> np.ndarray:
    """One-step bootstrap targets ``r + discount * max_a Q_target(s')`` of
    the transitions in these ring ``slots``; terminal ones keep the bare
    reward.

    With two or more live rows, the bootstrap values the ring holds for
    ``target_net.version`` are read, and the target network runs once, on
    the live rows without one, storing what it computes.  A one-row need is
    padded with another live row, because a lone row can round differently
    from the same row in a batch.  At the widths the module docstring names,
    any batch of two or more rows gives each row the same bits, so the
    targets equal those of one forward over all live successors: what a
    minibatch with fewer than two live rows runs, storing nothing.
    """
    targets = memory.r[slots]
    is_live = memory.live[slots]
    live = slots[is_live]
    if len(live) < 2:
        if len(live):
            q_next = target_net._activations(memory.s_next[live])[-1]
            targets[is_live] += discount * _row_max(q_next)
        return targets
    version = target_net.version
    need = live[memory.boot_version[live] != version]
    if len(need) == 1:
        need = np.append(need, live[1] if live[0] == need[0] else live[0])
    if len(need):
        q_next = target_net._activations(memory.s_next[need])[-1]
        memory.boot[need] = _row_max(q_next)
        memory.boot_version[need] = version
    targets[is_live] += discount * memory.boot[live]
    return targets


def backward_and_step(
    net: QNetwork, s: np.ndarray, a: np.ndarray, targets: np.ndarray, learning_rate: float
) -> QNetwork:
    """One plain gradient-descent step on the minibatch regression loss of
    states ``s`` (m, 2), taken actions ``a`` (m,) and their ``targets``.

    Gradients are computed by hand: the error lands only on each sample's
    chosen action output, then flows back through the ReLU stack.  Each
    layer's error is written into the activation buffer that layer has
    already used: the Q-value buffer becomes the output layer's error, and
    a hidden layer's activations are overwritten once its gradients and
    ReLU mask are taken.  So every (m, width) array lives in the network's
    buffers, one per layer, and a round allocates only (m,)-sized
    temporaries.
    """
    m = len(a)
    acts = net._activations(s)
    delta = acts.pop()  # the Q-values, until the output error replaces them
    rows = np.arange(m)
    last = len(net.weights) - 1
    error = (delta[rows, a] - targets) / m
    delta.fill(0.0)
    delta[rows, a] = error

    grads = []
    for layer in range(last, -1, -1):
        w, b = net.weights[layer], net.biases[layer]
        gw = np.matmul(acts[layer].T, delta, out=net._scratch(("grad_w", layer), w.shape))
        gb = np.sum(delta, axis=0, out=net._scratch(("grad_b", layer), b.shape))
        grads.append((w, gw, b, gb))
        if layer > 0:
            act = acts[layer]
            # acts > 0 exactly where the pre-activation was > 0.
            mask = np.greater(act, 0.0, out=net._scratch(("mask", layer - 1), act.shape, bool))
            # The delta is in the layer above's buffer, so this matmul's
            # output is none of its inputs.
            delta = np.matmul(delta, w.T, out=act)
            delta *= mask

    for w, gw, b, gb in grads:
        gw *= learning_rate
        w -= gw
        gb *= learning_rate
        b -= gb
    net.version = next(_versions)
    return net


def sync_target(predicted: QNetwork, target_net: QNetwork) -> QNetwork:
    """Overwrite the target network's parameters with the predicted ones."""
    if target_net.layer_sizes != predicted.layer_sizes:
        raise ValidationError(
            f"cannot copy {predicted.layer_sizes} into {target_net.layer_sizes}"
        )
    for mine, theirs in zip(target_net.weights, predicted.weights):
        mine[:] = theirs
    for mine, theirs in zip(target_net.biases, predicted.biases):
        mine[:] = theirs
    target_net.version = next(_versions)
    return target_net


def empirical_policy_prob(
    memory: ReplayMemory, action: int, epsilon: float, n_actions: int
) -> float:
    """Empirical probability that the behaviour policy emits ``action``:
    the exploit mass observed in replay plus the uniform explore mass."""
    if len(memory) == 0:
        raise ValidationError("no transitions recorded yet")
    exploit = (1.0 - epsilon) * memory.action_count(action) / len(memory)
    return exploit + epsilon / n_actions


def state_bin(features: np.ndarray, n_bins: int) -> np.ndarray:
    """Quantise two-feature states, shape (..., 2), onto a uniform
    ``n_bins`` x ``n_bins`` grid: integer (i, j) cells of the same shape.

    Features are clipped to [0, 1) first, so out-of-range observations land
    in the edge bins.
    """
    return (np.clip(features, 0.0, np.nextafter(1.0, 0.0)) * n_bins).astype(int)


def tabular_q_update(
    table: np.ndarray,
    s_bin: tuple[int, int],
    action: int,
    reward: float,
    s_next_bin: tuple[int, int] | None,
    discount: float,
    alpha: float,
) -> None:
    """Classic in-place Q-learning update; terminal steps skip the bootstrap.

    The arithmetic runs on Python floats, which round like numpy float64
    scalars, and the bootstrap's ``max`` is exact, so the table gets the
    same bits as the numpy-scalar formula at a fraction of the call cost.
    """
    boot = 0.0 if s_next_bin is None else discount * max(table[s_next_bin].tolist())
    row = table[s_bin]
    q = float(row[action])
    row[action] = q + alpha * (reward + boot - q)


def save_weights(net: QNetwork, path: str) -> None:
    """Serialise a network as little-endian binary.

    Layout: an int32 count of layer sizes, the layer sizes as int32, then
    every parameter as float64 in layer order (weight matrix row-major,
    then bias vector).
    """
    sizes = np.asarray(net.layer_sizes, dtype="<i4")
    chunks = [np.asarray([sizes.size], dtype="<i4").tobytes(), sizes.tobytes()]
    for w, b in zip(net.weights, net.biases):
        chunks.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_weights(path: str) -> QNetwork:
    """Rebuild a network from :func:`save_weights` output."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise ValidationError(f"{path} is too short to hold a header")
    n_sizes = int(np.frombuffer(raw, dtype="<i4", count=1)[0])
    if n_sizes < 2:
        raise ValidationError(f"{path} declares {n_sizes} layer sizes")
    if len(raw) < 4 + 4 * n_sizes:
        raise ValidationError(f"{path} ends inside its layer-size header")
    sizes = np.frombuffer(raw, dtype="<i4", count=n_sizes, offset=4).astype(int)
    if np.any(sizes < 1):
        raise ValidationError(f"{path} declares non-positive layer sizes")
    n_params = int(sum(a * b + b for a, b in zip(sizes, sizes[1:])))
    expected = 4 + 4 * n_sizes + 8 * n_params
    if len(raw) < expected:
        raise ValidationError(f"{path} ends before its declared layers")
    if len(raw) > expected:
        raise ValidationError(f"{path} carries {len(raw) - expected} stray bytes")
    offset = 4 + 4 * n_sizes
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        n_w = int(fan_in * fan_out)
        w = np.frombuffer(raw, dtype="<f8", count=n_w, offset=offset)
        offset += 8 * n_w
        b = np.frombuffer(raw, dtype="<f8", count=int(fan_out), offset=offset)
        offset += 8 * int(fan_out)
        weights.append(w.reshape(fan_in, fan_out).copy())
        biases.append(b.copy())
    return QNetwork(weights, biases)
