import numpy as np
import pytest

from ctxopt import harness, problems, seeding
from ctxopt.errors import ConfigurationError


def test_splitmix64_reference_vector():
    # First output of the reference splitmix64 stream seeded with 0.
    assert seeding.splitmix64(0) == 0xE220A8397B1DCDAF


def test_splitmix64_stays_in_64_bits():
    for z in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEF):
        assert 0 <= seeding.splitmix64(z) < 2**64


def test_mix_is_deterministic_and_label_sensitive():
    assert seeding.mix(1, 2, 3) == seeding.mix(1, 2, 3)
    assert seeding.mix(1, 2, 3) != seeding.mix(1, 3, 2)
    assert seeding.mix(0) != seeding.mix(0, 0)
    assert seeding.mix(7) != seeding.mix(8)


def test_substream_reproducible_and_independent():
    a = seeding.substream(42, seeding.STREAM_TRAJECTORY).random(8)
    b = seeding.substream(42, seeding.STREAM_TRAJECTORY).random(8)
    c = seeding.substream(42, seeding.STREAM_STOPPING).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_ids_distinct():
    ids = {seeding.STREAM_TRAJECTORY, seeding.STREAM_STOPPING,
           seeding.STREAM_DIAGNOSTICS, seeding.STREAM_MOMENTS,
           seeding.STREAM_V_EVAL, seeding.STREAM_LEDGER,
           seeding.STREAM_GRADCHECK, seeding.STREAM_LG_VECTOR}
    assert len(ids) == 8
    # the table holds every label, and no label changed value
    assert {name: value for name, value in vars(seeding).items()
            if name.startswith("STREAM_")} == {
        "STREAM_TRAJECTORY": 1, "STREAM_STOPPING": 2, "STREAM_DIAGNOSTICS": 3,
        "STREAM_MOMENTS": 7, "STREAM_V_EVAL": 8, "STREAM_LEDGER": 17,
        "STREAM_GRADCHECK": 23, "STREAM_LG_VECTOR": 101}


@pytest.mark.parametrize("parts, message", [
    ((1.5, 3), "seed must be an integer, got 1.5"),
    ((1, 3.0), "label 1 must be an integer, got 3.0"),
    ((True, 3), "seed must be an integer, got True")])
def test_substream_refuses_a_seed_or_label_that_is_not_an_integer(parts, message):
    # mix would truncate 1.5 to 1 and draw seed 1's stream
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        seeding.substream(*parts)


def test_the_ledger_estimate_refuses_a_fractional_seed():
    with pytest.raises(ConfigurationError, match="^seed must be an integer, got 1.5$"):
        harness.estimated_ledger(problems.by_name("BT"), 1.5)


def test_substream_draws_a_numpy_integer_seed_stream():
    expected = seeding.substream(3, seeding.STREAM_LEDGER).random(4)
    for seed in (np.int64(3), np.uint32(3), np.int8(3)):
        assert np.array_equal(
            seeding.substream(seed, np.int16(seeding.STREAM_LEDGER)).random(4),
            expected)
