"""Learning primitives: network math, replay memory, targets, and updates.

The gradient test treats a parameter-space copy of the network as the oracle:
analytic gradients recovered from a unit-rate update step must agree with
central finite differences of the minibatch loss.  The ring replay and the
buffered training round are checked against allocate-as-you-go reference
models kept here: a deque of tuples and the per-op forward and backward.
Targets built from the ring's stored bootstrap values are checked against
one forward over all live successors.  A minibatch here is what the learner
trains on: a replay ring and the slots of its sampled transitions.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranpower.errors import ValidationError
from ranpower.rl import (
    QNetwork,
    ReplayMemory,
    backward_and_step,
    empirical_policy_prob,
    load_weights,
    minibatch_targets,
    save_weights,
    state_bin,
    sync_target,
    tabular_q_update,
)


# The small network of the bootstrap-value tests.
SMALL_NET = (2, 16, 16, 4)


def random_network(layer_sizes, rng):
    """A network whose output layer is drawn like the hidden ones, from the
    same generator right after them, instead of starting at zero."""
    net = QNetwork.create(layer_sizes, rng)
    fan_in, fan_out = layer_sizes[-2:]
    net.weights[-1][...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_in, fan_out))
    return net


def ring_of(s, a, r, s_next, live):
    """A minibatch of these transitions: a ring holding them in order, one
    push each, and the slots that hold them."""
    mem = ReplayMemory(len(a))
    for k in range(len(a)):
        mem.push(s[k : k + 1], a[k : k + 1], float(r[k]), s_next[k : k + 1] if live[k] else None)
    return mem, np.arange(len(a))


def random_batch(rng, n, n_actions, terminal_every=0):
    """A minibatch of n random transitions; every ``terminal_every``-th one
    is terminal."""
    s = np.zeros((n, 2))
    a = np.zeros(n, dtype=int)
    r = np.zeros(n)
    s_next = np.zeros((n, 2))
    live = np.ones(n, dtype=bool)
    for k in range(n):
        if not terminal_every or (k + 1) % terminal_every:
            s_next[k] = rng.random(2)
        else:
            live[k] = False
        s[k] = rng.random(2)
        a[k] = rng.integers(n_actions)
        r[k] = rng.normal()
    return ring_of(s, a, r, s_next, live)


def one_row(s, a, r, s_next=None):
    """Arguments of a one-transition ``ReplayMemory.push``."""
    return (
        np.atleast_2d(np.asarray(s, dtype=float)),
        np.array([a]),
        r,
        None if s_next is None else np.atleast_2d(np.asarray(s_next, dtype=float)),
    )


def reference_targets(memory, slots, target_net, discount):
    """Bootstrap targets from one forward over all live successors, with no
    stored values: what every round computed before the ring kept them."""
    targets, live, s_next = memory.r[slots], memory.live[slots], memory.s_next[slots]
    if live.any():
        q_next = target_net._activations(s_next[live])[-1]
        targets[live] += discount * q_next.max(axis=1)
    return targets


def minibatch_loss(batch, predicted, target_net, discount):
    """Quadratic regression loss of the predicted network against the targets."""
    mem, slots = batch
    m = len(slots)
    q = predicted.forward_batch(mem.s[slots])[np.arange(m), mem.a[slots]]
    y = minibatch_targets(mem, slots, target_net, discount)
    return float(np.sum((q - y) ** 2) / (2 * m))


def concat(*batches):
    """One minibatch of the transitions of these, in order."""
    parts = [(m.s[sl], m.a[sl], m.r[sl], m.s_next[sl], m.live[sl]) for m, sl in batches]
    return ring_of(*(np.concatenate(arrays) for arrays in zip(*parts)))


def test_replay_memory_evicts_oldest():
    mem = ReplayMemory(capacity=3)
    for k in range(5):
        mem.push(*one_row([float(k), 0.0], 0, 0.0))
    assert len(mem) == 3
    assert sorted(mem.s[:, 0]) == [2.0, 3.0, 4.0]
    assert mem.s[mem.head, 0] == 2.0  # the oldest sits at the head


def test_replay_memory_needs_strictly_more_than_size():
    rng = np.random.default_rng(0)
    mem = ReplayMemory(capacity=10)
    for k in range(4):
        mem.push(*one_row([float(k), 0.0], 0, 0.0))
    with pytest.raises(ValidationError, match="memory holds 4 transitions, need more than 4"):
        mem.sample_minibatch(4, rng)
    assert len(mem.sample_minibatch(3, rng)) == 3


def test_replay_memory_samples_without_replacement():
    rng = np.random.default_rng(1)
    mem = ReplayMemory(capacity=16)
    for k in range(10):
        mem.push(*one_row([float(k), 0.0], 0, 0.0))
    slots = mem.sample_minibatch(9, rng)
    assert len(set(mem.s[slots, 0])) == 9


def test_replay_memory_action_count():
    mem = ReplayMemory(capacity=8)
    for a in [0, 1, 1, 2, 1]:
        mem.push(*one_row([0.0, 0.0], a, 0.0))
    assert mem.action_count(1) == 3
    assert mem.action_count(3) == 0


def test_replay_memory_push_keeps_the_last_capacity_rows():
    mem = ReplayMemory(capacity=3)
    s = np.arange(14.0).reshape(7, 2)
    mem.push(s, np.arange(7), 1.5, s + 0.5)
    assert len(mem) == 3
    assert sorted(mem.a) == [4, 5, 6]
    assert np.array_equal(mem.s_next, mem.s + 0.5)
    assert np.all(mem.r == 1.5) and np.all(mem.live)


@given(
    st.integers(min_value=1, max_value=12),
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=15),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ring_replay_samples_what_a_deque_would(capacity, push_sizes, seed):
    """Across wrap-around, the ring samples the very transitions a
    deque-of-tuples replay would, with the same generator state."""
    data = np.random.default_rng(seed)
    mem = ReplayMemory(capacity)
    ref = deque(maxlen=capacity)
    for n in push_sizes:
        s, s_next = data.random((n, 2)), data.random((n, 2))
        a, r = data.integers(5, size=n), float(data.normal())
        terminal = data.random() < 0.3
        mem.push(s, a, r, None if terminal else s_next)
        ref.extend((s[k], a[k], r, None if terminal else s_next[k]) for k in range(n))
        assert len(mem) == len(ref)
        if len(ref) < 2:
            continue
        size = int(data.integers(1, len(ref)))
        slots = mem.sample_minibatch(size, np.random.default_rng(seed))
        idx = np.random.default_rng(seed).choice(len(ref), size=size, replace=False)
        expected = [list(ref)[i] for i in idx]
        assert np.array_equal(mem.s[slots], [tr[0] for tr in expected])
        assert np.array_equal(mem.a[slots], [tr[1] for tr in expected])
        assert np.array_equal(mem.r[slots], [tr[2] for tr in expected])
        assert np.array_equal(mem.live[slots], [tr[3] is not None for tr in expected])
        for row, tr in zip(mem.s_next[slots], expected):
            if tr[3] is not None:
                assert np.array_equal(row, tr[3])


def test_qnetwork_fresh_forward_is_zero():
    net = QNetwork.create([2, 16, 16, 5], np.random.default_rng(3))
    out = net.forward_batch(np.array([0.4, 0.9]))[0]
    assert out.shape == (5,)
    assert np.all(out == 0.0)


def test_qnetwork_forward_matches_hand_rolled_product():
    rng = np.random.default_rng(7)
    net = random_network([2, 4, 3], rng)
    x = np.array([0.3, -1.2])

    hidden = []
    for j in range(4):
        z = net.biases[0][j]
        for i in range(2):
            z += x[i] * net.weights[0][i, j]
        hidden.append(max(z, 0.0))
    expected = []
    for j in range(3):
        z = net.biases[1][j]
        for i in range(4):
            z += hidden[i] * net.weights[1][i, j]
        expected.append(z)

    out = net.forward_batch(x)[0]
    assert out == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_qnetwork_rejects_broken_chains():
    with pytest.raises(ValidationError, match="layer chain broken"):
        QNetwork([np.zeros((2, 4)), np.zeros((5, 3))], [np.zeros(4), np.zeros(3)])
    with pytest.raises(ValidationError, match=r"bias \(3,\) does not fit \(2, 4\)"):
        QNetwork([np.zeros((2, 4))], [np.zeros(3)])
    with pytest.raises(ValidationError, match=r"unusable layer sizes \[2\]"):
        QNetwork.create([2], np.random.default_rng(0))


def test_clone_is_independent():
    net = random_network([2, 4, 3], np.random.default_rng(5))
    other = net.clone()
    other.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != other.weights[0][0, 0]


def test_sync_target_copies_bitwise():
    rng = np.random.default_rng(9)
    pred = random_network([2, 8, 4], rng)
    target = random_network([2, 8, 4], rng)
    sync_target(pred, target)
    x = np.array([0.1, 0.7])
    assert np.array_equal(pred.forward_batch(x)[0], target.forward_batch(x)[0])


def test_sync_target_mismatch_raises():
    rng = np.random.default_rng(9)
    pred = QNetwork.create([2, 8, 4], rng)
    target = QNetwork.create([2, 6, 4], rng)
    with pytest.raises(ValidationError, match=r"cannot copy \(2, 8, 4\) into \(2, 6, 4\)"):
        sync_target(pred, target)


def test_minibatch_targets_values():
    """Bootstrap r + discount * max Q(s'); a terminal sample keeps r alone."""
    net = QNetwork(
        [np.zeros((2, 3))],
        [np.array([0.5, 2.0, -1.0])],
    )
    batch = ring_of(
        s=np.zeros((3, 2)),
        a=np.array([0, 1, 2]),
        r=np.array([1.0, 1.0, -0.5]),
        s_next=np.array([[0.0, 0.0], [9.0, 9.0], [0.3, 0.7]]),
        live=np.array([True, False, True]),
    )
    assert minibatch_targets(*batch, net, 0.9) == pytest.approx([2.8, 1.0, 1.3])
    assert np.array_equal(minibatch_targets(*batch, net, 0.0), [1.0, 1.0, -0.5])
    terminal = ring_of(np.zeros((2, 2)), np.zeros(2, dtype=int), np.full(2, 4.0),
                       np.zeros((2, 2)), np.zeros(2, dtype=bool))
    assert np.array_equal(minibatch_targets(*terminal, net, 0.9), [4.0, 4.0])


def test_minibatch_targets_match_per_sample_forward():
    rng = np.random.default_rng(5)
    net = random_network([2, 8, 4], rng)
    mem, slots = random_batch(rng, 20, 4, terminal_every=3)
    expected = [
        r + 0.9 * float(np.max(net.forward_batch(s_next)[0])) if live else r
        for r, s_next, live in zip(mem.r[slots], mem.s_next[slots], mem.live[slots])
    ]
    assert minibatch_targets(mem, slots, net, 0.9) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("sizes", [(2, 64, 64, 5), SMALL_NET])
def test_network_rows_do_not_depend_on_the_rest_of_the_batch(sizes):
    """Stored bootstrap values rest on this: a row of the training-round
    forward has the same bits in any batch of two or more rows, whichever
    rows and in whatever order.  A BLAS without the property fails here
    first, before the targets tests below."""
    rng = np.random.default_rng(23)
    net = random_network(sizes, rng)
    x = rng.random((5000, 2))
    full = net._activations(x)[-1].copy()
    for k in (2, 3, 7, 35, 1000, 4999):
        shuffled = rng.choice(len(x), size=k, replace=False)
        for sel in (np.sort(shuffled), shuffled):
            assert net._activations(x[sel])[-1].tobytes() == full[sel].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=3, max_value=40),
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=9),
            st.booleans(),
            st.sampled_from([1, 2, 3, 5, 17]),
            st.booleans(),
        ),
        min_size=1,
        max_size=30,
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stored_bootstrap_values_give_the_direct_targets_bit_for_bit(capacity, rounds, seed):
    """Across ring wrap-around, terminal pushes, minibatches of 1, 2, 3 and
    more rows, and target syncs after training steps, every round's targets
    equal one forward over all live successors bit for bit."""
    rng = np.random.default_rng(seed)
    pred = random_network(SMALL_NET, rng)
    target = pred.clone()
    mem = ReplayMemory(capacity)
    replay = np.random.default_rng(seed)
    for n, terminal, size, sync in rounds:
        mem.push(rng.random((n, 2)), rng.integers(4, size=n), float(rng.normal()),
                 None if terminal else rng.random((n, 2)))
        if len(mem) <= size:
            continue
        slots = mem.sample_minibatch(size, replay)
        targets = minibatch_targets(mem, slots, target, 0.9)
        assert targets.tobytes() == reference_targets(mem, slots, target, 0.9).tobytes()
        backward_and_step(pred, mem.s[slots], mem.a[slots], targets, learning_rate=0.1)
        if sync:
            sync_target(pred, target)


def test_stored_bootstrap_values_hold_until_a_sync_or_an_overwrite():
    """The target network runs only on live rows without a stored value,
    never on one row alone while two or more are live, and again after a
    sync or on an overwritten slot."""
    rng = np.random.default_rng(3)
    pred = random_network(SMALL_NET, rng)
    target = pred.clone()
    mem = ReplayMemory(capacity=6)
    mem.push(rng.random((6, 2)), rng.integers(4, size=6), 0.5, rng.random((6, 2)))
    forward_rows = []
    forward = target._activations

    def counted(x):
        forward_rows.append(len(x))
        return forward(x)

    target._activations = counted

    def targets_at(slots):
        slots = np.asarray(slots)
        want = reference_targets(mem, slots, target.clone(), 0.9)
        got = minibatch_targets(mem, slots, target, 0.9)
        assert got.tobytes() == want.tobytes()
        return slots, got

    targets_at([0, 1, 2])
    assert forward_rows == [3]
    targets_at([1, 2, 3])  # one row needs a value: padded with a stored one
    assert forward_rows == [3, 2]
    targets_at([3, 0, 1])
    assert forward_rows == [3, 2]
    assert np.all(mem.boot_version[:4] == target.version)

    mem.push(rng.random((2, 2)), np.zeros(2, dtype=int), 1.0, None)  # slots 0, 1
    assert np.all(mem.boot_version[:2] == -1)
    targets_at([0, 1, 4])  # one live row: the direct path, nothing stored
    assert forward_rows == [3, 2, 1]
    assert mem.boot_version[4] == -1
    targets_at([0, 1, 2, 3])
    assert forward_rows == [3, 2, 1]

    mem.push(rng.random((1, 2)), np.zeros(1, dtype=int), 1.0, rng.random((1, 2)))  # slot 2
    assert mem.boot_version[2] == -1
    targets_at([2, 3])
    assert forward_rows == [3, 2, 1, 2]

    slots, targets = targets_at([2, 3, 5])
    assert forward_rows == [3, 2, 1, 2, 2]
    stored = mem.boot[[2, 3, 5]].copy()
    backward_and_step(pred, mem.s[slots], mem.a[slots], targets, learning_rate=0.5)
    sync_target(pred, target)
    targets_at([2, 3, 5])
    assert forward_rows == [3, 2, 1, 2, 2, 3]
    assert not np.array_equal(mem.boot[[2, 3, 5]], stored)


def test_a_gradient_step_outdates_the_values_stored_for_the_network():
    """Values are kept per parameter version, so a network used as its own
    target network gets fresh bootstrap values after each step."""
    rng = np.random.default_rng(4)
    net = random_network(SMALL_NET, rng)
    mem = ReplayMemory(capacity=8)
    mem.push(rng.random((8, 2)), rng.integers(4, size=8), 0.5, rng.random((8, 2)))
    slots = mem.sample_minibatch(5, rng)
    targets = minibatch_targets(mem, slots, net, 0.9)
    backward_and_step(net, mem.s[slots], mem.a[slots], targets, learning_rate=0.5)
    targets = minibatch_targets(mem, slots, net, 0.9)
    assert targets.tobytes() == reference_targets(mem, slots, net, 0.9).tobytes()


def test_minibatch_loss_single_sample():
    # prediction 1 against target 3 gives (1/2) * (1 - 3)^2 = 2
    pred = QNetwork([np.zeros((2, 1))], [np.array([1.0])])
    target = QNetwork([np.zeros((2, 1))], [np.array([3.0])])
    def terminal(r):
        return ring_of(np.zeros((1, 2)), np.zeros(1, dtype=int), np.array([r]),
                       np.zeros((1, 2)), np.zeros(1, dtype=bool))

    assert minibatch_loss(terminal(3.0), pred, target, 0.9) == pytest.approx(2.0)
    # terminal transition: target is r alone, so matching r zeroes the loss
    assert minibatch_loss(terminal(1.0), pred, pred, 0.9) == pytest.approx(0.0)


def test_minibatch_loss_duplication_invariant():
    rng = np.random.default_rng(21)
    pred = random_network([2, 6, 3], rng)
    target = pred.clone()
    batch = random_batch(rng, 8, 3)
    once = minibatch_loss(batch, pred, target, 0.9)
    twice = minibatch_loss(concat(batch, batch), pred, target, 0.9)
    assert once == pytest.approx(twice, rel=1e-12)


def extract_gradients(net, batch, targets):
    """Recover analytic gradients from a unit-learning-rate step."""
    mem, slots = batch
    probe = net.clone()
    backward_and_step(probe, mem.s[slots], mem.a[slots], targets, learning_rate=1.0)
    grads_w = [w - pw for w, pw in zip(net.weights, probe.weights)]
    grads_b = [b - pb for b, pb in zip(net.biases, probe.biases)]
    return grads_w, grads_b


def numeric_gradient(net, batch, target_net, discount, arr, i, j=None, h=1e-5):
    saved = arr[i] if j is None else arr[i, j]

    def loss_at(v):
        if j is None:
            arr[i] = v
        else:
            arr[i, j] = v
        val = minibatch_loss(batch, net, target_net, discount)
        if j is None:
            arr[i] = saved
        else:
            arr[i, j] = saved
        return val

    return (loss_at(saved + h) - loss_at(saved - h)) / (2 * h)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    net = random_network([2, 8, 5], rng)
    target_net = random_network([2, 8, 5], rng)
    batch = random_batch(rng, 12, 5, terminal_every=5)
    targets = minibatch_targets(*batch, target_net, 0.9)
    grads_w, grads_b = extract_gradients(net, batch, targets)

    for layer in range(len(net.weights)):
        w = net.weights[layer]
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                num = numeric_gradient(net, batch, target_net, 0.9, w, i, j)
                assert grads_w[layer][i, j] == pytest.approx(num, rel=1e-4, abs=1e-8)
        b = net.biases[layer]
        for i in range(b.shape[0]):
            num = numeric_gradient(net, batch, target_net, 0.9, b, i)
            assert grads_b[layer][i] == pytest.approx(num, rel=1e-4, abs=1e-8)


def test_gradient_step_reduces_loss():
    rng = np.random.default_rng(8)
    net = random_network([2, 16, 4], rng)
    target_net = random_network([2, 16, 4], rng)
    mem, slots = batch = random_batch(rng, 32, 4)
    targets = minibatch_targets(mem, slots, target_net, 0.9)
    before = minibatch_loss(batch, net, target_net, 0.9)
    backward_and_step(net, mem.s[slots], mem.a[slots], targets, learning_rate=1e-2)
    after = minibatch_loss(batch, net, target_net, 0.9)
    assert after < before


def test_zero_learning_rate_changes_nothing():
    rng = np.random.default_rng(13)
    net = random_network([2, 4, 3], rng)
    snapshot = net.clone()
    mem, slots = random_batch(rng, 6, 3)
    targets = minibatch_targets(mem, slots, snapshot, 0.9)
    backward_and_step(net, mem.s[slots], mem.a[slots], targets, learning_rate=0.0)
    for w, ws in zip(net.weights, snapshot.weights):
        assert np.array_equal(w, ws)


def reference_forward(net, x):
    """Allocate-per-op forward pass: a fresh array for every layer."""
    acts, pre = [x], []
    a = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    return acts, pre, a @ net.weights[-1] + net.biases[-1]


def reference_round(pred, target, mem, slots, discount, learning_rate):
    """One training round the allocate-per-op way: targets from the stacked
    live successors, then backpropagation with fresh arrays throughout."""
    targets = mem.r[slots]
    live = np.flatnonzero(mem.live[slots])
    if live.size:
        q_next = reference_forward(target, np.stack([mem.s_next[slots[k]] for k in live]))[2]
        targets[live] += discount * q_next.max(axis=1)
    states = np.stack([mem.s[k] for k in slots])
    m = len(slots)
    acts, pre, out = reference_forward(pred, states)
    delta = np.zeros_like(out)
    rows = np.arange(m)
    a = mem.a[slots]
    delta[rows, a] = (out[rows, a] - targets) / m
    grads_w, grads_b = [None] * len(pred.weights), [None] * len(pred.biases)
    for layer in range(len(pred.weights) - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ pred.weights[layer].T) * (pre[layer - 1] > 0.0)
    for w, gw in zip(pred.weights, grads_w):
        w -= learning_rate * gw
    for b, gb in zip(pred.biases, grads_b):
        b -= learning_rate * gb


# A 3-wide output layer after a 16-wide one breaks the stored bootstrap
# values' premise: OpenBLAS gives a row of that product bits that depend on
# the batch it is in, so values stored from one batch of target rows can
# differ by an ulp from one forward over all live successors.  The backward pass is not involved: the
# 4-wide three-hidden-layer case covers it at that depth.
@pytest.mark.parametrize("layer_sizes", [
    pytest.param([2, 8, 5], id="2-8-5"),
    pytest.param([2, 32, 32, 5], id="2-32-32-5"),
    pytest.param([2, 16, 16, 16, 4], id="2-16-16-16-4"),
    pytest.param([2, 16, 16, 16, 3], id="2-16-16-16-3", marks=pytest.mark.xfail(
        strict=True, reason="stored bootstrap values are batch-dependent at this width")),
])
def test_buffered_rounds_match_the_allocating_reference_bit_for_bit(layer_sizes):
    """Consecutive rounds on the networks' buffers, with terminal rows, a
    target sync and a smaller batch after a larger one, reproduce the
    allocate-per-op round exactly, at one, two and three hidden layers: the
    backward pass writes each layer's error into that layer's activation
    buffer, which must have the error's shape at every depth."""
    rng = np.random.default_rng(77)
    pred = random_network(layer_sizes, rng)
    target = pred.clone()
    ref_pred, ref_target = pred.clone(), target.clone()
    mem = ReplayMemory(capacity=300)
    replay = np.random.default_rng(5)
    for step, size in enumerate([64, 64, 128, 40, 64, 128]):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            terminal = rng.random() < 0.2
            mem.push(rng.random((n, 2)), rng.integers(layer_sizes[-1], size=n),
                     float(rng.normal()), None if terminal else rng.random((n, 2)))
        slots = mem.sample_minibatch(size, replay)
        assert not mem.live[slots].all()
        targets = minibatch_targets(mem, slots, target, 0.9)
        backward_and_step(pred, mem.s[slots], mem.a[slots], targets, learning_rate=0.05)
        reference_round(ref_pred, ref_target, mem, slots, 0.9, learning_rate=0.05)
        for mine, ref in zip(pred.weights + pred.biases, ref_pred.weights + ref_pred.biases):
            assert mine.tobytes() == ref.tobytes()
        if step % 2:
            sync_target(pred, target)
            sync_target(ref_pred, ref_target)


def test_forward_matches_the_allocating_reference_bit_for_bit():
    """``forward_batch`` runs in the buffers a training round also uses:
    for any row count, on fresh buffers and on ones a 1,000-row round has
    grown, both networks give the allocate-per-op forward's bits."""
    rng = np.random.default_rng(29)
    pred = random_network([2, 64, 64, 5], rng)
    target = pred.clone()
    x = rng.random((57, 2))

    def check():
        for net in (pred, target):
            for n in (1, 2, 7, 19, 57):
                want = reference_forward(net, x[:n])[2]
                assert net.forward_batch(x[:n]).tobytes() == want.tobytes()

    check()
    assert [len(pred._buffers["out", layer]) for layer in range(3)] == [57] * 3
    mem = ReplayMemory(capacity=1200)
    mem.push(rng.random((1200, 2)), rng.integers(5, size=1200), 0.5, rng.random((1200, 2)))
    slots = mem.sample_minibatch(1000, rng)
    targets = minibatch_targets(mem, slots, target, 0.9)
    backward_and_step(pred, mem.s[slots], mem.a[slots], targets, learning_rate=0.05)
    assert [len(pred._buffers["out", layer]) for layer in range(3)] == [1000] * 3
    check()


def test_training_round_holds_one_float_array_per_layer():
    """After a 1,000-row round the shared buffers hold one float64
    (m, width) array per layer, one bool (m, width) ReLU mask per hidden
    layer and the gradients: the backward pass keeps its errors in the
    forward's activation buffers instead of arrays of its own."""
    rng = np.random.default_rng(41)
    layer_sizes = [2, 64, 64, 5]
    pred = random_network(layer_sizes, rng)
    target = pred.clone()
    m = 1000
    mem = ReplayMemory(capacity=1200)
    mem.push(rng.random((1200, 2)), rng.integers(5, size=1200), 0.5, rng.random((1200, 2)))
    slots = mem.sample_minibatch(m, rng)
    targets = minibatch_targets(mem, slots, target, 0.9)
    backward_and_step(pred, mem.s[slots], mem.a[slots], targets, learning_rate=0.05)
    widths = layer_sizes[1:]
    layers = 8 * m * sum(widths)
    masks = m * sum(widths[:-1])
    grads = 8 * sum(w.size + b.size for w, b in zip(pred.weights, pred.biases))
    assert layers + masks + grads == 1_229_416
    assert sum(buf.nbytes for buf in pred._buffers.values()) <= layers + masks + grads


def test_training_round_leaves_earlier_forward_results_alone():
    """Arrays from ``forward_batch`` are the caller's: a training round on
    either network's buffers, already sized by an earlier round, must not
    write into the search's Q-rows taken between the two."""
    rng = np.random.default_rng(19)
    pred = random_network([2, 16, 16, 4], rng)
    target = pred.clone()
    mem, slots = random_batch(rng, 30, 4, terminal_every=4)

    def train():
        targets = minibatch_targets(mem, slots, target, 0.9)
        backward_and_step(pred, mem.s[slots], mem.a[slots], targets, 0.1)

    train()
    x = rng.random((7, 2))
    qrows, target_rows = pred.forward_batch(x), target.forward_batch(x)
    kept, target_kept = qrows.copy(), target_rows.copy()
    train()
    assert np.array_equal(qrows, kept)
    assert np.array_equal(target_rows, target_kept)
    assert not np.array_equal(pred.forward_batch(x), kept)


def test_empirical_policy_prob_values():
    mem = ReplayMemory(capacity=10)
    mem.push(np.zeros((5, 2)), np.array([2, 2, 0, 1, 2]), 0.0, None)
    # exploit mass 0.9 * 2/5, explore mass 0.1/5
    assert empirical_policy_prob(mem, 0, 0.1, 5) == pytest.approx(0.9 * 0.2 + 0.02)
    total = sum(empirical_policy_prob(mem, a, 0.1, 5) for a in range(5))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_empirical_policy_prob_empty_memory():
    with pytest.raises(ValidationError, match="no transitions recorded yet"):
        empirical_policy_prob(ReplayMemory(4), 0, 0.1, 5)


def test_state_bin_edges():
    assert state_bin(np.array([0.0, 0.0]), 16).tolist() == [0, 0]
    assert state_bin(np.array([0.5, 0.25]), 16).tolist() == [8, 4]
    # values at or above 1 clip into the last bin, negatives into the first
    assert state_bin(np.array([1.0, 2.5]), 16).tolist() == [15, 15]
    assert state_bin(np.array([-0.3, 0.999]), 16).tolist() == [0, 15]
    # a (B, 2) block bins row by row
    block = np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 2.5], [-0.3, 0.999]])
    assert state_bin(block, 16).tolist() == [[0, 0], [8, 4], [15, 15], [0, 15]]


def test_tabular_q_update_spot_values():
    table = np.zeros((2, 2, 3))
    tabular_q_update(table, (0, 1), 2, 1.0, (1, 0), 0.9, 1.0)
    assert table[0, 1, 2] == pytest.approx(1.0)
    # second update bootstraps off the max of the next bin
    table[1, 0, 0] = 2.0
    tabular_q_update(table, (0, 1), 2, 1.0, (1, 0), 0.9, 1.0)
    assert table[0, 1, 2] == pytest.approx(1.0 + 0.9 * 2.0)


def test_tabular_q_update_terminal_drops_bootstrap():
    table = np.full((1, 1, 2), 5.0)
    tabular_q_update(table, (0, 0), 1, 1.0, None, 0.9, 1.0)
    assert table[0, 0, 1] == pytest.approx(1.0)


def test_tabular_q_update_zero_alpha_freezes():
    table = np.full((1, 1, 2), 3.0)
    tabular_q_update(table, (0, 0), 0, 9.0, (0, 0), 0.9, 0.0)
    assert table[0, 0, 0] == 3.0


def test_tabular_q_update_converges_to_fixed_point():
    table = np.zeros((1, 2, 2))
    for _ in range(400):
        tabular_q_update(table, (0, 0), 1, 1.0, (0, 1), 0.9, 0.1)
    assert table[0, 0, 1] == pytest.approx(1.0, abs=1e-6)


def test_tabular_q_update_matches_the_numpy_scalar_formula_bit_for_bit():
    """Random updates, terminal ones included, on a table small enough that
    cells and bootstrap rows collide, give the same bytes as the update
    computed on numpy float64 scalars with ``np.max``."""

    def numpy_update(table, s_bin, action, reward, s_next_bin, discount, alpha):
        boot = 0.0 if s_next_bin is None else discount * float(np.max(table[s_next_bin]))
        q = table[s_bin][action]
        table[s_bin][action] = q + alpha * (reward + boot - q)

    rng = np.random.default_rng(53)
    table = rng.normal(size=(3, 3, 5))
    want = table.copy()
    for _ in range(5000):
        s_bin = tuple(rng.integers(3, size=2).tolist())
        s_next_bin = None if rng.random() < 0.2 else tuple(rng.integers(3, size=2).tolist())
        action = int(rng.integers(5))
        reward = rng.normal() * 10.0 ** int(rng.integers(-3, 4))
        discount, alpha = float(rng.random()), float(rng.random())
        tabular_q_update(table, s_bin, action, reward, s_next_bin, discount, alpha)
        numpy_update(want, s_bin, action, reward, s_next_bin, discount, alpha)
    assert table.tobytes() == want.tobytes()


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    net = random_network([2, 64, 64, 5], rng)
    path = tmp_path / "weights.bin"
    save_weights(net, str(path))
    loaded = load_weights(str(path))
    assert loaded.layer_sizes == net.layer_sizes
    for w, lw in zip(net.weights, loaded.weights):
        assert np.array_equal(w, lw)
    for b, lb in zip(net.biases, loaded.biases):
        assert np.array_equal(b, lb)


def test_load_weights_rejects_truncation(tmp_path):
    rng = np.random.default_rng(32)
    net = QNetwork.create([2, 4, 3], rng)
    path = tmp_path / "weights.bin"
    save_weights(net, str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 9])
    with pytest.raises(ValidationError, match="ends before its declared layers"):
        load_weights(str(path))


def test_load_weights_rejects_stray_bytes(tmp_path):
    rng = np.random.default_rng(33)
    net = QNetwork.create([2, 4, 3], rng)
    path = tmp_path / "weights.bin"
    save_weights(net, str(path))
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ValidationError, match="carries 8 stray bytes"):
        load_weights(str(path))
