import numpy as np

from errorlab import seeding


def _splitmix64_reference(state: int) -> int:
    # Independent transcription of the public-domain generator: advance the
    # state by the golden-gamma increment, then finalize.
    mask = np.uint64(0xFFFFFFFFFFFFFFFF)
    z = np.uint64(state) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return int((z ^ (z >> np.uint64(31))) & mask)


def test_splitmix64_matches_independent_implementation():
    with np.errstate(over="ignore"):
        for state in (0, 1, 1234567, 2**64 - 1, 0xDEADBEEF):
            assert seeding.splitmix64(state) == _splitmix64_reference(state)


def test_splitmix64_golden_values():
    # Frozen outputs; any change here breaks every recorded substream.
    assert seeding.splitmix64(0) == 16294208416658607535
    assert seeding.splitmix64(1) == 10451216379200822465


def test_fnv1a64_known_values():
    # Standard FNV-1a test vectors.
    assert seeding.fnv1a64(b"") == 0xCBF29CE484222325
    assert seeding.fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_derive_seed_is_stable_and_in_range():
    seed = seeding.derive_seed(42, "train/rep0001")
    assert seed == seeding.derive_seed(42, "train/rep0001")
    assert 0 <= seed < 2**64


def test_distinct_labels_and_purposes_give_distinct_streams():
    base = seeding.derive_seed(7, "a")
    assert base != seeding.derive_seed(7, "b")
    assert base != seeding.derive_seed(8, "a")
    assert seeding.derive_seed(7, "a", "x") != seeding.derive_seed(7, "a", "eps")


def test_rng_for_reproduces_draws():
    a = seeding.rng_for(3, "label").standard_normal(8)
    b = seeding.rng_for(3, "label").standard_normal(8)
    c = seeding.rng_for(3, "other").standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_recording_collects_the_labels_handed_out_in_its_block():
    seeding.rng_for(1, "before")
    with seeding.recording() as outer:
        seeding.rng_for(1, "a", "x")
        seeding.rng_for(2, "a", "eps")
        with seeding.recording() as inner:
            seeding.rng_for(3, "b")
        seeding.record(["from/worker"])
    seeding.rng_for(1, "after")
    assert inner == {"b"}
    assert outer == {"a", "b", "from/worker"}


def test_record_outside_a_recording_is_a_no_op():
    seeding.record(["nobody/listens"])
    with seeding.recording() as labels:
        pass
    assert labels == set()
