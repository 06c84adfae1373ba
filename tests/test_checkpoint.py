import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfil import backbone as bb
from mfil.checkpoint import (MAGIC, VERSION, CheckpointError,
                             load_checkpoint, load_into, save_checkpoint)
from mfil.tensor import Tensor


def _params(rng):
    return {
        "a.weight": Tensor(rng.standard_normal((3, 4)).astype(np.float32),
                           dtype="f32"),
        "b.bias": Tensor(rng.standard_normal(5).astype(np.float32),
                         dtype="f32"),
        "c.scalar": Tensor(np.float32(2.5), dtype="f32"),
    }


def test_round_trip_values_and_order(rng, tmp_path):
    params = _params(rng)
    path = tmp_path / "p.mfil"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(params)  # insertion order preserved
    for name, t in params.items():
        assert loaded[name].dtype == np.float32
        assert np.array_equal(loaded[name], t.data)


def test_interrupted_write_keeps_the_previous_checkpoint(rng, tmp_path):
    path = tmp_path / "model-final.mfil"
    save_checkpoint(path, _params(rng))
    before = path.read_bytes()

    class Unreadable:
        @property
        def data(self):
            raise OSError("device full")

    # The first entry is written before the second one raises.
    params = {"a.weight": _params(rng)["a.weight"], "b.bias": Unreadable()}
    with pytest.raises(OSError, match="device full"):
        save_checkpoint(path, params)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_round_trip_logits_bit_identical(rng, tmp_path):
    model = bb.build(bb.desk(), seed=5)
    x = Tensor(rng.standard_normal((2, 3, 32, 32)).astype(np.float32),
               dtype="f32")
    before = model.forward(x).data.copy()
    path = tmp_path / "model.mfil"
    save_checkpoint(path, model.parameters())
    other = bb.build(bb.desk(), seed=99)
    assert not np.array_equal(other.forward(x).data, before)
    load_into(other.parameters(), load_checkpoint(path))
    assert np.array_equal(other.forward(x).data, before)


def test_header_layout_is_normative(rng, tmp_path):
    path = tmp_path / "p.mfil"
    save_checkpoint(path, {"x": Tensor(np.arange(6, dtype=np.float32)
                                       .reshape(2, 3), dtype="f32")})
    blob = path.read_bytes()
    assert blob[:4] == MAGIC == b"MFIL"
    version, count = struct.unpack_from("<II", blob, 4)
    assert version == VERSION and count == 1
    (name_len,) = struct.unpack_from("<H", blob, 12)
    assert name_len == 1 and blob[14:15] == b"x"
    (rank,) = struct.unpack_from("<B", blob, 15)
    assert rank == 2
    extents = struct.unpack_from("<QQ", blob, 16)
    assert extents == (2, 3)
    values = np.frombuffer(blob[32:], dtype="<f4")
    assert np.array_equal(values, np.arange(6, dtype=np.float32))


def test_bad_magic_and_version(rng, tmp_path):
    path = tmp_path / "p.mfil"
    save_checkpoint(path, _params(rng))
    blob = bytearray(path.read_bytes())
    bad = tmp_path / "bad.mfil"
    bad.write_bytes(b"NOPE" + bytes(blob[4:]))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad)
    blob2 = bytearray(blob)
    struct.pack_into("<I", blob2, 4, 999)
    bad.write_bytes(bytes(blob2))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad)


def test_truncation_names_the_short_entry(rng, tmp_path):
    path = tmp_path / "p.mfil"
    save_checkpoint(path, _params(rng))
    blob = path.read_bytes()
    short = tmp_path / "short.mfil"
    short.write_bytes(blob[:-5])
    with pytest.raises(CheckpointError,
                       match="truncated.*entry 'c.scalar'"):
        load_checkpoint(short)


@pytest.mark.parametrize("extent", (2 ** 40, 2 ** 62, 2 ** 63 + 5))
def test_corrupt_extent_names_the_entry(rng, tmp_path, extent):
    """An extent past the file's end is refused before any allocation."""
    path = tmp_path / "p.mfil"
    save_checkpoint(path, _params(rng))
    blob = bytearray(path.read_bytes())
    # First entry "a.weight": u16 length, 8 name bytes, u8 rank, extents.
    struct.pack_into("<Q", blob, 12 + 2 + 8 + 1, extent)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="entry 'a.weight'"):
        load_checkpoint(path)


def test_huge_extent_of_an_empty_entry_names_the_entry(tmp_path):
    path = tmp_path / "p.mfil"
    save_checkpoint(path, {"e": Tensor(np.zeros((0, 3), dtype=np.float32),
                                       dtype="f32")})
    blob = bytearray(path.read_bytes())
    struct.pack_into("<Q", blob, 12 + 2 + 1 + 1 + 8, 2 ** 63 + 5)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="entry 'e'"):
        load_checkpoint(path)


def test_undecodable_name_names_the_entry(rng, tmp_path):
    path = tmp_path / "p.mfil"
    save_checkpoint(path, _params(rng))
    blob = bytearray(path.read_bytes())
    blob[14] = 0xFF  # first byte of the first entry's name
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="entry 0 name"):
        load_checkpoint(path)


def test_duplicate_entry_name_names_both_indices(tmp_path):
    """A name given to two entries is refused, not won by the last one."""
    path = tmp_path / "p.mfil"
    save_checkpoint(path, {"w": Tensor(np.zeros(2, dtype=np.float32)),
                           "x": Tensor(np.ones(2, dtype=np.float32))})
    # Second entry: 12-byte header, then entry 0 (2 + 1 + 1 + 8 + 8 bytes)
    # and the second entry's u16 name length.
    blob = bytearray(path.read_bytes())
    assert blob[34:35] == b"x"
    blob[34:35] = b"w"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError,
                       match="entry 'w' appears twice: entries 0 and 1"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(rng, tmp_path):
    path = tmp_path / "p.mfil"
    save_checkpoint(path, _params(rng))
    noisy = tmp_path / "noisy.mfil"
    noisy.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(noisy)


def test_shape_and_name_diff_listing(rng, tmp_path):
    path = tmp_path / "p.mfil"
    save_checkpoint(path, _params(rng))
    loaded = load_checkpoint(path)
    target = _params(rng)
    target["a.weight"] = Tensor(np.zeros((4, 4), dtype=np.float32),
                                dtype="f32")
    del target["b.bias"]
    target["d.new"] = Tensor(np.zeros(2, dtype=np.float32), dtype="f32")
    with pytest.raises(CheckpointError) as exc:
        load_into(target, loaded)
    msg = str(exc.value)
    assert "shape mismatch: a.weight" in msg
    assert "unexpected in checkpoint: b.bias" in msg
    assert "missing from checkpoint: d.new" in msg


def test_f64_params_stored_as_f32(rng, tmp_path):
    p = {"w": Tensor(rng.standard_normal(4))}
    path = tmp_path / "p.mfil"
    save_checkpoint(path, p)
    loaded = load_checkpoint(path)
    assert loaded["w"].dtype == np.float32
    assert np.allclose(loaded["w"], p["w"].data, atol=1e-7)


def _tobytes_checkpoint(params) -> bytes:
    """The checkpoint bytes of ``params``, each entry's values copied out
    with ``tobytes``."""
    out = [MAGIC, struct.pack("<II", VERSION, len(params))]
    for name, tensor in params.items():
        raw = name.encode("utf-8")
        arr = tensor.data.astype("<f4")
        out += [struct.pack("<H", len(raw)), raw,
                struct.pack("<B", arr.ndim),
                *(struct.pack("<Q", extent) for extent in arr.shape),
                arr.tobytes()]
    return b"".join(out)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_entries_are_written_with_the_bytes_tobytes_gives(tmp_path, dtype):
    """Entries are written from their buffers: the file has the bytes of a
    writer that copies each entry out with ``tobytes``, for a desk model,
    a 1-element entry and a 0-d entry, at both dtypes."""
    params = dict(bb.build(bb.desk(), seed=0, dtype=dtype).parameters())
    params["one"] = Tensor(np.array([-1.5]), dtype=dtype)
    params["scalar"] = Tensor(np.array(2.25), dtype=dtype)
    path = tmp_path / "p.mfil"
    save_checkpoint(path, params)
    assert path.read_bytes() == _tobytes_checkpoint(params)


@pytest.fixture(scope="module")
def small_desk_checkpoint(tmp_path_factory):
    """The desk parameters of at most 64 elements: 66 entries, a quarter
    of the bytes structure rather than values."""
    model = bb.build(bb.desk(), seed=0)
    path = tmp_path_factory.mktemp("fuzz") / "small.mfil"
    save_checkpoint(path, {k: v for k, v in model.parameters().items()
                           if v.size <= 64})
    return path, path.read_bytes()


@st.composite
def damaged(draw, data: bytes):
    """One byte overwritten, an 8-byte run overwritten, or a truncation."""
    kind = draw(st.sampled_from(["byte", "run", "truncate"]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    width = 1 if kind == "byte" else 8
    at = draw(st.integers(0, len(data) - width))
    patch = draw(st.binary(min_size=width, max_size=width))
    return data[:at] + patch + data[at + width:]


def test_damaged_checkpoint_loads_or_raises_checkpoint_error(
        small_desk_checkpoint):
    path, data = small_desk_checkpoint
    target = path.with_name("damaged.mfil")

    @settings(max_examples=600, deadline=None, derandomize=True,
              database=None)
    @given(damaged(data))
    def check(raw):
        target.write_bytes(raw)
        try:
            loaded = load_checkpoint(target)
        except CheckpointError:
            return
        assert all(v.dtype == np.float32 for v in loaded.values())

    check()
