import numpy as np

from ctxopt import seeding


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
