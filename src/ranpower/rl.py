"""Learning primitives: replay memory, a small MLP Q-network, and policy ops.

The network is implemented directly on numpy arrays with hand-written
backpropagation; there is deliberately no autograd dependency.  One network
is shared across base stations and evaluated per station on a two-feature
state (normalised pending volume, normalised serving RSRP).  Training
minimises the quadratic regression loss

    L = 1 / (2 m) * sum_k (Q(s_k, a_k) - y_k)^2

with plain gradient descent, where the targets ``y_k`` come from a separate
target network that is synchronised every few training rounds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ArchitectureMismatch,
    EmptyMemory,
    InsufficientSamples,
    InvalidConfig,
)


@dataclass(frozen=True)
class Normalizer:
    """Maps raw per-station observations onto roughly unit-scale features.

    Volume is scaled by the largest traffic volume a single request can
    carry; RSRP in dBW is shifted by the noise floor and scaled by the span
    up to 0 dBW.  Both mappings are affine and therefore invertible.
    """

    volume_scale_bits: float
    rsrp_floor_dbw: float = -125.0

    def __post_init__(self) -> None:
        if self.volume_scale_bits <= 0.0:
            raise InvalidConfig("volume scale must be positive")
        if self.rsrp_floor_dbw >= 0.0:
            raise InvalidConfig("RSRP floor must sit below 0 dBW")

    def features(self, volume_bits: float, rsrp_dbw: float) -> np.ndarray:
        return np.array(
            [
                volume_bits / self.volume_scale_bits,
                (rsrp_dbw - self.rsrp_floor_dbw) / -self.rsrp_floor_dbw,
            ]
        )

    def volume_bits(self, volume_feature: float) -> float:
        return volume_feature * self.volume_scale_bits

    def rsrp_dbw(self, rsrp_feature: float) -> float:
        return rsrp_feature * -self.rsrp_floor_dbw + self.rsrp_floor_dbw


@dataclass(frozen=True)
class State:
    """Normalised per-station observation."""

    volume: float
    rsrp: float

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.volume, self.rsrp])


@dataclass(frozen=True)
class Transition:
    """One accepted decision: state, action index, reward, successor state.

    ``s_next`` is ``None`` for the final step of a run, in which case the
    bootstrap term is dropped from the learning target.
    """

    s: np.ndarray
    a: int
    r: float
    s_next: np.ndarray | None


@dataclass(frozen=True)
class Hyperparams:
    """Learning constants shared by the deep and tabular agents."""

    discount: float = 0.9
    epsilon: float = 0.1
    learning_rate: float = 1e-3
    minibatch_size: int = 1000
    train_interval: int = 500
    sync_interval: int = 10

    def __post_init__(self) -> None:
        if not 0.0 < self.discount <= 1.0:
            raise InvalidConfig(f"discount {self.discount} must lie in (0, 1]")
        if not 0.0 <= self.epsilon <= 1.0:
            raise InvalidConfig(f"epsilon {self.epsilon} must lie in [0, 1]")
        if self.learning_rate <= 0.0:
            raise InvalidConfig("learning rate must be positive")
        if self.minibatch_size < 1 or self.train_interval < 1 or self.sync_interval < 1:
            raise InvalidConfig("minibatch, train and sync intervals must be >= 1")


class ReplayMemory:
    """Bounded FIFO store of transitions with uniform minibatch sampling."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise InvalidConfig(f"replay capacity {capacity} must be positive")
        self.capacity = capacity
        self._buf: deque[Transition] = deque(maxlen=capacity)

    def push(self, tr: Transition) -> None:
        self._buf.append(tr)

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self):
        return iter(self._buf)

    def sample_minibatch(
        self, size: int, rng: np.random.Generator
    ) -> list[Transition]:
        """Uniform sample without replacement; needs strictly more than ``size``."""
        if len(self._buf) <= size:
            raise InsufficientSamples(
                f"memory holds {len(self._buf)} transitions, need more than {size}"
            )
        idx = rng.choice(len(self._buf), size=size, replace=False)
        buf = list(self._buf)
        return [buf[i] for i in idx]

    def action_count(self, action: int) -> int:
        return sum(1 for tr in self._buf if tr.a == action)


class QNetwork:
    """Fully connected ReLU network mapping a state to one value per action.

    Hidden layers get scaled Gaussian weights; the output layer starts at
    zero so a fresh network is indifferent between actions (its forward pass
    is exactly zero everywhere) and the first training rounds decide the
    initial ordering rather than initialisation noise.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]) -> None:
        if len(weights) != len(biases) or not weights:
            raise ArchitectureMismatch("need one bias vector per weight matrix")
        for w, b in zip(weights, biases):
            if w.shape[1] != b.shape[0]:
                raise ArchitectureMismatch(f"bias {b.shape} does not fit {w.shape}")
        for prev, nxt in zip(weights, weights[1:]):
            if prev.shape[1] != nxt.shape[0]:
                raise ArchitectureMismatch(
                    f"layer chain broken: {prev.shape} -> {nxt.shape}"
                )
        self.weights = weights
        self.biases = biases

    @classmethod
    def create(
        cls,
        layer_sizes: Sequence[int],
        rng: np.random.Generator,
        hidden_scale: float = 1.0,
        zero_output: bool = True,
    ) -> "QNetwork":
        if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
            raise ArchitectureMismatch(f"unusable layer sizes {layer_sizes}")
        weights, biases = [], []
        last = len(layer_sizes) - 2
        for i, (fan_in, fan_out) in enumerate(zip(layer_sizes, layer_sizes[1:])):
            if zero_output and i == last:
                w = np.zeros((fan_in, fan_out))
            else:
                w = rng.normal(0.0, hidden_scale * np.sqrt(2.0 / fan_in), (fan_in, fan_out))
            weights.append(w)
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple([self.weights[0].shape[0]] + [w.shape[1] for w in self.weights])

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(x, dtype=float))
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.maximum(a @ w + b, 0.0)
        return a @ self.weights[-1] + self.biases[-1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_batch(x)[0]

    def clone(self) -> "QNetwork":
        return QNetwork(
            [w.copy() for w in self.weights], [b.copy() for b in self.biases]
        )

    def copy_from(self, other: "QNetwork") -> None:
        if self.layer_sizes != other.layer_sizes:
            raise ArchitectureMismatch(
                f"cannot copy {other.layer_sizes} into {self.layer_sizes}"
            )
        for mine, theirs in zip(self.weights, other.weights):
            mine[:] = theirs
        for mine, theirs in zip(self.biases, other.biases):
            mine[:] = theirs


def minibatch_targets(
    batch: Sequence[Transition], target_net: QNetwork, discount: float
) -> np.ndarray:
    """One-step bootstrap targets from one forward pass over the non-terminal
    successors; terminal samples keep the bare reward."""
    targets = np.array([tr.r for tr in batch], dtype=float)
    live = [k for k, tr in enumerate(batch) if tr.s_next is not None]
    if live:
        q_next = target_net.forward_batch(np.stack([batch[k].s_next for k in live]))
        targets[live] += discount * q_next.max(axis=1)
    return targets


def minibatch_loss(
    batch: Sequence[Transition],
    predicted: QNetwork,
    target_net: QNetwork,
    discount: float,
) -> float:
    """Quadratic regression loss of the predicted network against the targets."""
    states = np.stack([tr.s for tr in batch])
    actions = np.array([tr.a for tr in batch])
    q = predicted.forward_batch(states)[np.arange(len(batch)), actions]
    y = minibatch_targets(batch, target_net, discount)
    return float(np.sum((q - y) ** 2) / (2 * len(batch)))


def backward_and_step(
    net: QNetwork,
    batch: Sequence[Transition],
    targets: np.ndarray,
    learning_rate: float,
) -> QNetwork:
    """One plain gradient-descent step on the minibatch regression loss.

    Gradients are computed by hand: the error lands only on each sample's
    chosen action output, then flows back through the ReLU stack.
    """
    states = np.stack([tr.s for tr in batch])
    actions = np.array([tr.a for tr in batch])
    m = len(batch)

    acts = [states]
    pre: list[np.ndarray] = []
    a = states
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    out = a @ net.weights[-1] + net.biases[-1]

    delta = np.zeros_like(out)
    rows = np.arange(m)
    delta[rows, actions] = (out[rows, actions] - targets) / m

    grads_w: list[np.ndarray] = [None] * len(net.weights)  # type: ignore[list-item]
    grads_b: list[np.ndarray] = [None] * len(net.biases)  # type: ignore[list-item]
    for layer in range(len(net.weights) - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer].T) * (pre[layer - 1] > 0.0)

    for w, gw in zip(net.weights, grads_w):
        w -= learning_rate * gw
    for b, gb in zip(net.biases, grads_b):
        b -= learning_rate * gb
    return net


def sync_target(predicted: QNetwork, target_net: QNetwork) -> QNetwork:
    """Overwrite the target network's parameters with the predicted ones."""
    target_net.copy_from(predicted)
    return target_net


def discounted_return(rewards: Sequence[float], discount: float) -> float:
    """Discounted sum of a reward sequence via the backward recursion."""
    acc = 0.0
    for r in reversed(rewards):
        acc = r + discount * acc
    return acc


def empirical_policy_prob(
    memory: ReplayMemory, action: int, epsilon: float, n_actions: int
) -> float:
    """Empirical probability that the behaviour policy emits ``action``:
    the exploit mass observed in replay plus the uniform explore mass."""
    exploit, explore = policy_prob_branches(memory, action, epsilon, n_actions)
    return exploit + explore


def policy_prob_branches(
    memory: ReplayMemory, action: int, epsilon: float, n_actions: int
) -> tuple[float, float]:
    """The two mixture terms of the empirical policy probability, separately."""
    if len(memory) == 0:
        raise EmptyMemory("no transitions recorded yet")
    exploit = (1.0 - epsilon) * memory.action_count(action) / len(memory)
    return exploit, epsilon / n_actions


def state_bin(features: np.ndarray, n_bins: int) -> tuple[int, int]:
    """Quantise a two-feature state onto a uniform ``n_bins`` x ``n_bins`` grid.

    Features are clipped to [0, 1) first, so out-of-range observations land
    in the edge bins.
    """
    clipped = np.clip(features, 0.0, np.nextafter(1.0, 0.0))
    i = int(clipped[0] * n_bins)
    j = int(clipped[1] * n_bins)
    return i, j


def tabular_q_update(
    table: np.ndarray,
    s_bin: tuple[int, int],
    action: int,
    reward: float,
    s_next_bin: tuple[int, int] | None,
    discount: float,
    alpha: float,
) -> None:
    """Classic in-place Q-learning update; terminal steps skip the bootstrap."""
    boot = 0.0 if s_next_bin is None else discount * float(np.max(table[s_next_bin]))
    q = table[s_bin][action]
    table[s_bin][action] = q + alpha * (reward + boot - q)


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
        raise ArchitectureMismatch(f"{path} is too short to hold a header")
    n_sizes = int(np.frombuffer(raw, dtype="<i4", count=1)[0])
    if n_sizes < 2:
        raise ArchitectureMismatch(f"{path} declares {n_sizes} layer sizes")
    if len(raw) < 4 + 4 * n_sizes:
        raise ArchitectureMismatch(f"{path} ends inside its layer-size header")
    sizes = np.frombuffer(raw, dtype="<i4", count=n_sizes, offset=4).astype(int)
    if np.any(sizes < 1):
        raise ArchitectureMismatch(f"{path} declares non-positive layer sizes")
    n_params = int(sum(a * b + b for a, b in zip(sizes, sizes[1:])))
    expected = 4 + 4 * n_sizes + 8 * n_params
    if len(raw) < expected:
        raise ArchitectureMismatch(f"{path} ends before its declared layers")
    if len(raw) > expected:
        raise ArchitectureMismatch(f"{path} carries {len(raw) - expected} stray bytes")
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
