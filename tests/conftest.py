import numpy as np
import pytest
from hypothesis import settings

from afdof import AfAlphabet, AfSchedule, ChannelRealization, plan_achievability
from afdof.simulate import _chain

# Derandomized: every run draws the same examples, so a property that can
# catch a defect catches it on every run, not only on a lucky seed.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# Integer-gain channel used throughout as the hand-checkable reference:
# hop determinants -5 and -1, cross determinants -11 and 4, and a closed
# form power constant c = 1 / (2 sqrt(11)).
REFERENCE_GAINS = (1.0, 2.0, 3.0, 1.0, 1.0, 1.0, 2.0, 1.0)


def reference_channel() -> ChannelRealization:
    return ChannelRealization(*REFERENCE_GAINS)


@pytest.fixture
def ref_channel() -> ChannelRealization:
    return reference_channel()


@pytest.fixture
def ref_plan(ref_channel):
    return plan_achievability(ref_channel)


def schedule_from_pairs(pairs) -> AfSchedule:
    """Schedule of the given per-slot (mu, lambda) pairs over the alphabet
    of their distinct values, in first-occurrence order."""
    mus, lams = np.asarray(pairs, dtype=float).reshape(-1, 2).T.tolist()
    U, V = tuple(dict.fromkeys(mus)), tuple(dict.fromkeys(lams))
    return AfSchedule(AfAlphabet(U=U, V=V), np.array(
        [[U.index(mu), V.index(lam)] for mu, lam in zip(mus, lams)]))


def noiseless_chain(ch: ChannelRealization, schedule: AfSchedule, symbols):
    """Destination samples (y1, y2) of the physical chain on (L, 2) symbols
    with every relay and destination noise sample zero."""
    symbols = np.asarray(symbols, dtype=float)
    y1, y2, _, _ = _chain(ch, schedule.mu, schedule.lam, symbols[:, 0],
                          symbols[:, 1], *np.zeros((4, len(schedule))),
                          *np.empty((2, len(schedule))))
    return y1, y2
