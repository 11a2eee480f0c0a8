"""The pure-Python generator in ``womctl.randgen`` draws numpy's streams.

``sub_rng(seed, *key)`` must equal ``numpy.random.default_rng([seed, *key])``
and ``SeedSequence(seed).spawn(n)`` must equal numpy's, draw for draw, for
every draw womctl makes. numpy is needed only here, as the reference.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from womctl.randgen import Rng, SeedSequence, sub_rng

KINDS = ("integers", "random", "uniform", "permutation", "choice")
WIDTHS = (1, 2, 3, 7, 1000, 2**31 + 11, 2**32)


def _plan(r: random.Random, n: int) -> list[tuple]:
    """``n`` draws of mixed kinds, so 32-bit and 64-bit draws interleave."""
    ops = []
    for _ in range(n):
        kind = r.choice(KINDS)
        if kind == "integers":
            lo = r.randrange(-3, 4)
            ops.append((kind, lo, lo + r.choice(WIDTHS)))
        elif kind == "uniform":
            ops.append((kind, 0.0, r.choice((1.0, 2.0))))
        elif kind == "permutation":
            ops.append((kind, r.randrange(0, 9)))
        elif kind == "choice":
            w = [r.random() for _ in range(r.randrange(1, 5))]
            ops.append((kind, [x / sum(w) for x in w]))
        else:
            ops.append((kind,))
    return ops


def _ours(rng: Rng, plan: list[tuple]) -> list:
    return [rng.choice(len(args[0]), args[0]) if kind == "choice"
            else getattr(rng, kind)(*args) for kind, *args in plan]


def _numpy(rng, plan: list[tuple]) -> list:
    out = []
    for kind, *args in plan:
        if kind == "choice":
            out.append(int(rng.choice(len(args[0]), p=args[0])))
        elif kind == "permutation":
            out.append(rng.permutation(*args).tolist())
        else:
            out.append(getattr(rng, kind)(*args))
    return out


def _key_paths() -> list[list[int]]:
    r = random.Random(20)
    fixed = [[0], [0, 0], [1, 2, 3], [2**32], [2**32 - 1, 2**32, 2**64 + 5],
             [7, 2**40, 0, 3, 9], [3, 19, 2], [2**96 + 1, 0]]
    entry = (lambda: r.randrange(50), lambda: r.randrange(2**32),
             lambda: r.randrange(2**32, 2**70))
    return fixed + [[r.choice(entry)() for _ in range(r.randrange(1, 7))]
                    for _ in range(400)]


def test_key_paths_draw_the_streams_of_default_rng():
    r = random.Random(21)
    for path in _key_paths():
        assert (SeedSequence(path).generate_state(8)
                == np.random.SeedSequence(path).generate_state(8).tolist()), path
        plan = _plan(r, 30)
        assert _ours(sub_rng(*path), plan) == _numpy(
            np.random.default_rng(path), plan), path


def test_spawned_streams_match_seed_sequence_spawn():
    r = random.Random(22)
    for seed in [*range(60), 2**32, 2**32 + 7, 2**64 + 1]:
        pairs = list(zip(SeedSequence(seed).spawn(7),
                         np.random.SeedSequence(seed).spawn(7)))
        # a child's own children extend its spawn key
        pairs += list(zip(pairs[1][0].spawn(2), pairs[1][1].spawn(2)))
        for a, b in pairs:
            plan = _plan(r, 6)
            assert _ours(Rng(a), plan) == _numpy(
                np.random.default_rng(b), plan), seed


@pytest.mark.parametrize("ours, theirs", [
    (lambda: sub_rng(-1), lambda: np.random.default_rng([-1])),
    (lambda: sub_rng(5, 1, -2), lambda: np.random.default_rng([5, 1, -2])),
    (lambda: SeedSequence(-3), lambda: np.random.SeedSequence(-3)),
    (lambda: sub_rng(0).integers(3, 3),
     lambda: np.random.default_rng([0]).integers(3, 3)),
    (lambda: sub_rng(0).integers(4, 2),
     lambda: np.random.default_rng([0]).integers(4, 2)),
    (lambda: sub_rng(0).choice(2, [0.5, 0.6]),
     lambda: np.random.default_rng([0]).choice(2, p=[0.5, 0.6])),
    (lambda: sub_rng(0).choice(2, [1.5, -0.5]),
     lambda: np.random.default_rng([0]).choice(2, p=[1.5, -0.5])),
], ids=["negative-seed", "negative-key", "negative-spawn-seed", "lo-eq-hi",
        "lo-gt-hi", "p-sum", "p-negative"])
def test_bad_arguments_raise_value_error_as_numpy_does(ours, theirs):
    with pytest.raises(ValueError):
        theirs()
    with pytest.raises(ValueError):
        ours()
