import signal
from contextlib import contextmanager

import numpy as np
import pytest

from modlift.classify import c3c3_witness_rep, klein_witness_rep, quaternion_witness_rep
from modlift.cyclic_lift import jordan_companion_rep
from modlift.groups import Presentation
from modlift.obstruction import cyclic_witness, module_of_quotient
from modlift.replift import InvalidRepresentation, Representation, eval_word, linearize, validate_rep
from modlift.rings import Mat, PrimeCtx
from modlift.errors import Error


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def klein_rep():
    return klein_witness_rep()


@pytest.fixture(scope="session")
def q8_rep():
    return quaternion_witness_rep()


@pytest.fixture(scope="session")
def c3c3_rep():
    return c3c3_witness_rep()


@pytest.fixture(scope="session")
def c9_module_rep():
    f, h, _ = cyclic_witness(PrimeCtx(3), 2)
    return module_of_quotient(f.group, h)


@pytest.fixture(scope="session")
def witness_suite(klein_rep, q8_rep, c3c3_rep, c9_module_rep):
    """Known representations with their machine-verified verdicts.

    The 6-dim quaternion entry carries the solver's certified verdict
    (liftable); invariance tests assert stability of whatever the verdict is.
    """
    return [
        ("klein", klein_rep, False),
        ("q8-6dim", q8_rep, True),
        ("c3c3", c3c3_rep, False),
        ("c9-j5", c9_module_rep, False),
        ("jordan-2-2-3", jordan_companion_rep(PrimeCtx(2), 2, 3), True),
        ("jordan-3-1-2", jordan_companion_rep(PrimeCtx(3), 1, 2), True),
    ]


def refutes(rep, verdict):
    """verdict carries a refutation of rep's lift system, built afresh."""
    return verdict.refutation is not None and linearize(rep).system.checks_refutation(verdict.refutation)


def random_invertible(rng, p, n):
    while True:
        m = Mat(p, rng.integers(0, p, (n, n)))
        try:
            m.inv()
            return m
        except Error:
            continue


def random_valid_instance(rng, primes, dims, gen_counts, budget, max_relators):
    """A random valid representation small enough for the brute-force oracle.

    p, n and the number of generators k are drawn from the given lists, and
    draws whose search space p^(k n^2) exceeds budget are redrawn.  Each of
    the 1..max_relators relators is a random word of one or two letters
    raised to its order, at most 8 letters in all.
    """
    while True:
        p = int(rng.choice(primes))
        n = int(rng.choice(dims))
        k = int(rng.choice(gen_counts))
        if p ** (k * n * n) > budget:
            continue
        mats = tuple(random_invertible(rng, p, n) for _ in range(k))
        rels = []
        for _ in range(int(rng.integers(1, max_relators + 1))):
            length = int(rng.integers(1, 3))
            w = tuple((int(rng.integers(0, k)), int(rng.choice([1, -1]))) for _ in range(length))
            value = eval_word(mats, w, p, n)
            order = next((d for d in range(1, 9) if (value ** d).is_identity()), None)
            if order is None or order * length > 8:
                break
            rels.append(w * order)
        else:
            pres = Presentation(tuple(f"g{i}" for i in range(k)), tuple(rels))
            rep = Representation(PrimeCtx(p), pres, mats, n)
            try:
                validate_rep(rep)
            except InvalidRepresentation:
                continue
            return rep


def over_budget_rep():
    """Identity generators s, t of dimension 64 under 16 relators.

    Every relator holds, and the lift system would be 65536 x 8192 int64
    entries, 4.3 GB per copy: past the byte budget, though not past the
    dimension cap.
    """
    pres = Presentation(("s", "t"), tuple(((i % 2, 1),) * (i + 2) for i in range(16)))
    eye = Mat.identity(2, 64)
    return Representation(PrimeCtx(2), pres, (eye, eye), 64)


def swapped_c1024_table(a=4, c=2):
    """C1024's table t[i, j] = (i + j) mod 1024 with the intercalate on rows
    a, a + 512 and columns c, c + 512 swapped (0 < a, c < 512).

    By default rows 4 and 516 and columns 2 and 514 hold 6 and 518; after
    the swap t[4, 2] = t[516, 514] = 518 and t[4, 514] = t[516, 2] = 6.  The
    identity, the inverses and the Latin property survive, but (4 * 2) * 1 =
    519 while 4 * (2 * 1) = 7.
    """
    idx = np.arange(1024)
    t = (idx[:, None] + idx) % 1024
    t[a, c] = t[a + 512, c + 512] = a + c + 512
    t[a, c + 512] = t[a + 512, c] = a + c
    return t


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once it has run for seconds (POSIX only)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
