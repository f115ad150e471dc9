"""Memory image: allocation, lazy storage, access checking, digest rendering."""

from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.workloads import mem
from repro.workloads.mem import WORD_BYTES, MemoryImage


def test_allocation_is_aligned_and_disjoint():
    memory = MemoryImage()
    a = memory.allocate("a", 10)
    b = memory.allocate("b", 10)
    assert a % 64 == 0 and b % 64 == 0
    assert b >= a + 10 * WORD_BYTES


def test_duplicate_region_rejected():
    memory = MemoryImage()
    memory.allocate("a", 4)
    with pytest.raises(ValueError):
        memory.allocate("a", 4)


def test_empty_region_rejected():
    with pytest.raises(ValueError):
        MemoryImage().allocate("a", 0)


def test_untouched_words_read_zero():
    memory = MemoryImage()
    base = memory.allocate("a", 1000)
    assert memory.load(base + 512 * WORD_BYTES) == 0
    assert memory.touched_words() == 0  # lazily materialized


def test_store_load_roundtrip():
    memory = MemoryImage()
    base = memory.allocate("a", 4)
    memory.store(base + 8, 42)
    assert memory.load(base + 8) == 42
    assert memory.touched_words() == 1


def test_misaligned_access_rejected():
    memory = MemoryImage()
    base = memory.allocate("a", 4)
    with pytest.raises(ValueError):
        memory.load(base + 3)
    with pytest.raises(ValueError):
        memory.store(base + 5, 1)


def test_indexed_helpers():
    memory = MemoryImage()
    memory.allocate("a", 8)
    memory.store_index("a", 3, 7)
    assert memory.load_index("a", 3) == 7
    assert memory.load_index("a", 2) == 0


def test_store_array_allocates_and_fills():
    memory = MemoryImage()
    base = memory.store_array("data", [5, 6, 7])
    assert memory.base("data") == base
    assert [memory.load_index("data", i) for i in range(3)] == [5, 6, 7]
    assert memory.size_words("data") == 3


def test_contains():
    memory = MemoryImage()
    base = memory.allocate("a", 4)
    assert memory.contains("a", base)
    assert memory.contains("a", base + 3 * WORD_BYTES)
    assert not memory.contains("a", base + 4 * WORD_BYTES)


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=-(2**40), max_value=2**40),
        max_size=50,
    )
)
def test_property_roundtrip_many_words(values):
    """Stores are independent per word and reads reproduce them exactly."""
    memory = MemoryImage()
    base = memory.allocate("region", 501)
    for index, value in values.items():
        memory.store(base + index * WORD_BYTES, value)
    for index in range(501):
        expected = values.get(index, 0)
        assert memory.load(base + index * WORD_BYTES) == expected


# ---------------------------------------------------------------------- #
# pristine rendering + write set: the spliced lines equal a full render
# ---------------------------------------------------------------------- #

values = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 0.0, -0.0, float("nan")]),
)


def _full_render(model: dict) -> bytes:
    """Reference: every materialized word, rendered one line at a time."""
    return "".join(
        f"{addr}={model[addr]!r}\n" for addr in sorted(model)
    ).encode()


def _build(layout) -> tuple[MemoryImage, dict]:
    """An image from (gap words, values, sparse?) regions, and its model.

    Gap regions are allocated but never written, so the pristine image
    has holes; sparse regions materialize every other word only.
    """
    memory = MemoryImage()
    model: dict[int, object] = {}
    for i, (gap, region, sparse) in enumerate(layout):
        if gap:
            memory.allocate(f"gap{i}", gap)
        if sparse and region:
            memory.allocate(f"r{i}", 2 * len(region))
            for j, value in enumerate(region):
                memory.store_index(f"r{i}", 2 * j, value)
        elif region:
            memory.store_array(f"r{i}", region)
        else:
            memory.allocate(f"r{i}", 1)
        base = memory.base(f"r{i}")
        step = 2 if sparse else 1
        for j, value in enumerate(region):
            model[base + step * j * WORD_BYTES] = value
    return memory, model


layouts = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.lists(values, max_size=12),
        st.booleans(),
    ),
    max_size=4,
)


@given(
    layout=layouts,
    block_words=st.sampled_from([1, 2, 3, 5, 256]),
    shared=st.booleans(),
    data=st.data(),
)
def test_property_spliced_rendering_equals_full_render(
    layout, block_words, shared, data
):
    """After a snapshot, any mix of writes renders like the final image.

    Writes land before the first block, after the last one, inside gaps
    and over pristine words, repeat, and rewrite the value already there.
    With *shared*, the rendering comes from an identical earlier build,
    as :func:`repro.workloads.tracecache.annotate` reuses it.
    """
    with mock.patch.object(mem, "BLOCK_WORDS", block_words):
        memory, model = _build(layout)
        if shared:
            twin, _ = _build(layout)
            memory.snapshot(twin.snapshot())
        else:
            memory.snapshot()
        assert b"".join(memory.rendered()) == _full_render(model)

        # From below the default heap base to past the last region.
        lo = MemoryImage().allocate("probe", 1) - 16 * WORD_BYTES
        hi = memory.allocate("tail", 1) + 16 * WORD_BYTES
        addr = st.integers(lo // WORD_BYTES, hi // WORD_BYTES).map(
            lambda word: word * WORD_BYTES
        )
        names = [f"r{i}" for i in range(len(layout))]
        ops = st.one_of(
            st.tuples(st.just("store"), addr, values),
            st.tuples(st.just("same"), addr),
            st.tuples(st.just("array"), st.sampled_from(names + ["new"]),
                      st.lists(values, min_size=1, max_size=6)),
        )
        if names:
            ops = ops | st.tuples(
                st.just("index"), st.sampled_from(names),
                st.integers(0, 12), values,
            )
        for i, op in enumerate(data.draw(st.lists(ops, max_size=25))):
            if op[0] == "store":
                memory.store(op[1], op[2])
                model[op[1]] = op[2]
            elif op[0] == "same":
                value = memory.load(op[1])
                memory.store(op[1], value)
                model[op[1]] = value
            elif op[0] == "index":
                memory.store_index(op[1], op[2], op[3])
                model[memory.base(op[1]) + op[2] * WORD_BYTES] = op[3]
            else:
                name = op[1] if op[1] != "new" else f"new{i}"
                base = memory.store_array(name, op[2])
                for j, value in enumerate(op[2]):
                    model[base + j * WORD_BYTES] = value
        chunks = list(memory.rendered())
    assert all(chunks)  # content keys strip the last byte of the last chunk
    assert b"".join(chunks) == _full_render(model)


def test_writes_before_snapshot_are_not_tracked():
    memory = MemoryImage()
    memory.store_array("a", [1, 2, 3])
    memory.store_index("a", 1, 9)
    assert memory.rendering is None
    rendering = memory.snapshot()
    assert memory.rendering is rendering and rendering.nwords == 3
    assert b"".join(memory.rendered()) == _full_render(
        {memory.base("a"): 1, memory.base("a") + 8: 9, memory.base("a") + 16: 3}
    )


def test_unsnapshotted_image_renders_in_one_pass():
    memory = MemoryImage()
    base = memory.store_array("a", [0.5, -0.0, float("nan")])
    assert b"".join(memory.rendered()) == (
        f"{base}=0.5\n{base + 8}=-0.0\n{base + 16}=nan\n".encode()
    )
