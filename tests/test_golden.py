"""Golden values pinning bit-exact schedules and kernel output.

The digests were recorded from the dict-of-dicts schedule and per-site
coin loop that preceded the packed-array core (commit 85ba039), so they
pin two contracts across that rewrite: a seed gives the same phases, and
the evolution gives the same amplitudes to the last bit.  The schedule
digests hash ``PhaseSchedule.phases``; they were recorded from the
(step, site)-ordered triples the old schedule listed, so they also pin
that the packed order is that order.  The kernel digests are taken
through ``amplitude()``, which reads the same under either state layout.

The oracle digests were recorded from the recursive path sum that
preceded the integer-indexed array path sum (commit dc273b5), so they pin
that the rewrite sums the same products in the same order, to the last
bit, and lists the branch histories in the same order.
"""

import hashlib

import numpy as np
import pytest

from beamwalk import (
    BINARY_0_PI,
    UNIFORM_0_2PI,
    DisorderSpec,
    disordered_schedule,
    enumerate_paths,
    evolve,
    initial_state,
    oracle_state,
    ordered_schedule,
)
from beamwalk.apparatus import reachable_sites
from beamwalk.oracle import REFLECT

SEED = 20190129

SCHEDULE_SHA256 = {
    (BINARY_0_PI, 7, 0): "0334d88d94fd8e1485825c6d313fb82adf3ca547d5858821ce411c421da8c2b6",
    (BINARY_0_PI, 7, 1): "6f0cb8ea7df923a6442425772510c5bbf16ab087e66e2f127a1cb1a4cfa693fa",
    (BINARY_0_PI, 50, 0): "6ffb8a527097ae22a4bff36973233c9de575f357be3d011aa367bf685676ec66",
    (BINARY_0_PI, 50, 1): "e2ddca05e7d5a6cff95387f465493b56367143e9480bef03b0b1c8073d4de957",
    (BINARY_0_PI, 201, 0): "0ab80ad342f37e8c565b26b8ae4b47802b46521765d0409ed72914bb0f8c3e3c",
    (BINARY_0_PI, 201, 1): "6c5599ad5d6b7851fef50a29c33050ab427f51166b9c3acb1604cff50cdda3bc",
    (UNIFORM_0_2PI, 7, 0): "7f6ae6d45207860a1ba30937007de71e3236527a862c1991810c5ca898185af3",
    (UNIFORM_0_2PI, 7, 1): "58c9b875c8e3b8542623115fdf74a3703fd640dc95c0d2be3daaf03601166cbf",
    (UNIFORM_0_2PI, 50, 0): "88ccc47dcc41b244948efb1ca6125490eac43b91509761f7a88498e0ea93c841",
    (UNIFORM_0_2PI, 50, 1): "8277a1606694370c7f9bae6df70c7d425f0b7187d2cd5036ec0607f5caa8c813",
    (UNIFORM_0_2PI, 201, 0): "62e6f305961d6d8765cb543dfcc192c7b7fe15e5b564d0300d6d36b5d41df6bf",
    (UNIFORM_0_2PI, 201, 1): "993a095f117de598c70bdfa9604e3a4b4246df9e20887b5215d7d094b0fc5eef",
}

# (label, schedule factory, reflectivity, phase_gauge) -> digest of the
# final light-cone amplitudes, coin-major, sites ascending, '<c16'.
KERNEL_SHA256 = {
    "ordered-theta0-R0.5-N64": (
        lambda: ordered_schedule(64, 0.0), 0.5, 0.0,
        "fdeab57af56ab0035ead2f54acd92e8443933522c97b53607ddd67e97fcfc446",
    ),
    "binary-seed42-R0.44-N50": (
        lambda: disordered_schedule(50, DisorderSpec(BINARY_0_PI, 42, 1), 0), 0.44, 0.0,
        "cac02a5fa9f05b1814285004cd502c6a20a1c202114700c7786d87fa57348cbf",
    ),
    "uniform-seed7-R0.3-N50-gauge0.7": (
        lambda: disordered_schedule(50, DisorderSpec(UNIFORM_0_2PI, 7, 1), 0), 0.3, 0.7,
        "dcb4a7b913e7b4061c462a78d18ebc213fed55dd410c6dd7b62de29ac1f5cc11",
    ),
}


# label -> (schedule factory, reflectivity, initial coin, digest of
# oracle_state(...).amplitudes as '<c16').
ORACLE_SHA256 = {
    "uniform-seed1-R0.5-N16-coin0": (
        lambda: disordered_schedule(16, DisorderSpec(UNIFORM_0_2PI, 1, 1), 0), 0.5, 0,
        "e6d801d06d3ad1a3e2525626a37414f5e5a93b02bceeea9fdf87b85edc80f83f",
    ),
    "binary-seed42-R0.44-N12-coin1": (
        lambda: disordered_schedule(12, DisorderSpec(BINARY_0_PI, 42, 1), 0), 0.44, 1,
        "72903b7e26d62d2db29b27161630104b042cf114d64ddf831811a6edbf2e11ab",
    ),
    "ordered-theta0.3-R0.3-N9-coin0": (
        lambda: ordered_schedule(9, 0.3), 0.3, 0,
        "361464d35129837aaf2166608275f29c2c4ea99a273e29e9f135a3df75240cba",
    ),
    # The enumeration guard's size, and the benchmark's oracle walk (N=16,
    # R=0.5, coin 1); recorded from the (prefix, port) broadcast loop that
    # preceded the flat per-port entry tables.
    "uniform-seed1-R0.44-N20-coin1": (
        lambda: disordered_schedule(20, DisorderSpec(UNIFORM_0_2PI, 1, 1), 0), 0.44, 1,
        "4c6edcc161e49dc15c94cfac5cacd9f0c83061516010fda32d70a0bc6474aaf1",
    ),
    "uniform-seed1-R0.5-N16-coin1": (
        lambda: disordered_schedule(16, DisorderSpec(UNIFORM_0_2PI, 1, 1), 0), 0.5, 1,
        "79776f03f308b6c2231a2037b16605c7de36bd15c68cfad76774c597ee7cf396",
    ),
}

# enumerate_paths(1, uniform seed 7 N=7, R=0.3) in record order: the
# amplitudes ('<c16'), then (final_coin, final_site) pairs ('<i8'), then
# every record's choices as one R/T string.
PATHS_SHA256 = "54fdebcb01f058f3da9955ade35b5f723f8dd3c7bd01843e9dae3cebf45ba0b9"


def sha256_of(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


@pytest.mark.parametrize("kind,num_steps,index", sorted(SCHEDULE_SHA256))
def test_schedule_phases_match_recorded_digest(kind, num_steps, index):
    schedule = disordered_schedule(num_steps, DisorderSpec(kind, SEED, 2), index)
    assert schedule.phases.size == num_steps * (num_steps + 1) // 2
    assert sha256_of(schedule.phases.astype("<f8")) == SCHEDULE_SHA256[kind, num_steps, index]


@pytest.mark.parametrize("label", sorted(KERNEL_SHA256))
def test_final_amplitudes_match_recorded_digest(label):
    make_schedule, reflectivity, gauge, digest = KERNEL_SHA256[label]
    schedule = make_schedule()
    final = evolve(initial_state(), schedule, reflectivity,
                   phase_gauge=gauge)[-1]
    sites = reachable_sites(final.step_index)
    amps = np.array(
        [[final.amplitude(coin, int(site)) for site in sites] for coin in (0, 1)],
        dtype="<c16",
    )
    assert sha256_of(amps) == digest


@pytest.mark.parametrize("label", sorted(ORACLE_SHA256))
def test_oracle_amplitudes_match_recorded_digest(label):
    make_schedule, reflectivity, coin, digest = ORACLE_SHA256[label]
    summed = oracle_state(coin, make_schedule(), reflectivity)
    assert sha256_of(summed.amplitudes.astype("<c16")) == digest


def test_path_records_match_recorded_digest():
    schedule = disordered_schedule(7, DisorderSpec(UNIFORM_0_2PI, 7, 1), 0)
    records = enumerate_paths(1, schedule, 0.3)
    assert len(records) == 2**7
    digest = hashlib.sha256()
    digest.update(np.array([r.amplitude for r in records], dtype="<c16").tobytes())
    digest.update(np.array([(r.final_coin, r.final_site) for r in records],
                           dtype="<i8").tobytes())
    digest.update("".join("R" if choice == REFLECT else "T"
                          for r in records for choice in r.choices).encode())
    assert digest.hexdigest() == PATHS_SHA256
