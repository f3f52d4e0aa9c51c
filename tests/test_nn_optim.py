import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import nn_reference as ref
from gridcast import nn
from gridcast.errors import ArtifactError, ConfigError, ShapeError
from gridcast.seeding import seeded_rng


def test_zero_gradient_leaves_params_unchanged():
    p = {"w": np.array([1.0, -2.0, 3.0])}
    g = {"w": np.zeros(3)}
    opt = nn.Adam(lr=0.1)
    opt.step(p, g)
    np.testing.assert_array_equal(p["w"], [1.0, -2.0, 3.0])


def test_first_step_matches_bias_corrected_hand_value():
    # scalar grad 1, lr 0.1: m_hat = v_hat = 1, so the step is -lr/(1 + eps)
    p = {"w": np.array([0.0])}
    g = {"w": np.array([1.0])}
    opt = nn.Adam(lr=0.1)
    opt.step(p, g)
    assert p["w"][0] == pytest.approx(-0.1, rel=1e-6)


def test_constant_gradient_decreases_monotonically():
    p = {"w": np.array([5.0])}
    opt = nn.Adam(lr=0.01)
    prev = p["w"][0]
    for _ in range(50):
        opt.step(p, {"w": np.array([2.5])})
        assert p["w"][0] < prev
        prev = p["w"][0]


def test_bad_betas_rejected():
    for setting, name in [
        (dict(beta1=1.0), "betas"),
        # these three were accepted
        (dict(lr=float("nan")), "lr"), (dict(lr=-1.0), "lr"), (dict(eps=0.0), "eps"),
        # a bool was taken as 1 or 0
        (dict(lr=True), "lr"), (dict(eps=True), "eps"), (dict(beta2=False), "betas"),
        # numpy's bool is no bool subclass and was taken as 1 or 0
        (dict(lr=np.True_), "lr"), (dict(beta1=np.False_), "betas"),
        # a non-number raised a raw TypeError from the comparison
        (dict(lr="a"), "lr"), (dict(eps=None), "eps"), (dict(beta2="0.9"), "betas"),
    ]:
        with pytest.raises(ConfigError, match=f"^{name} must"):
            nn.Adam(**setting)


@pytest.mark.parametrize("grads, match", [
    # a raw KeyError
    pytest.param({"w": np.ones(3)}, "parameter 'b' has no gradient", id="missing-key"),
    # ignored
    pytest.param({"w": np.ones(3), "b": np.ones(2), "x": np.ones(1)},
                 "gradient 'x' has no parameter", id="extra-key"),
    # a raw ValueError from the in-place update
    pytest.param({"w": np.ones((3, 1)), "b": np.ones(2)},
                 "gradient 'w' has shape (3, 1), its parameter (3,)", id="column-gradient"),
    # broadcast, so every entry took the same step
    pytest.param({"w": np.array(1.0), "b": np.ones(2)},
                 "gradient 'w' has shape (), its parameter (3,)", id="0-d-gradient"),
])
def test_step_rejects_grads_that_do_not_match_the_params(grads, match):
    params = {"w": np.array([1.0, -2.0, 3.0]), "b": np.zeros(2)}
    opt = nn.Adam(lr=0.1)
    with pytest.raises(ShapeError, match=f"^{re.escape(match)}$"):
        opt.step(params, grads)
    # nothing was updated
    assert opt.step_count == 0
    np.testing.assert_array_equal(params["w"], [1.0, -2.0, 3.0])
    np.testing.assert_array_equal(params["b"], [0.0, 0.0])


# any float64 up to 1e300, whose square overflows, with both signed zeros
adam_values = st.floats(-1e300, 1e300) | st.sampled_from([-0.0, 0.0, -1e300, 1e300])
unit_open = st.floats(0.0, 1.0, exclude_min=True)


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       shapes=st.lists(array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
                       min_size=1, max_size=3),
       steps=st.integers(1, 5), lr=unit_open, eps=unit_open,
       beta1=st.floats(0.0, 1.0, exclude_max=True), beta2=st.floats(0.0, 1.0, exclude_max=True))
def test_adam_gives_the_reference_bytes_and_leaves_grads_unchanged(
        data, shapes, steps, lr, eps, beta1, beta2):
    def draw(shape, label):
        return data.draw(arrays(np.float64, shape, elements=adam_values), label=label)

    params = {f"p{i}": draw(shape, f"p{i}") for i, shape in enumerate(shapes)}
    # per key: the reference's (p, m, v)
    expected = {key: (p.copy(), np.zeros_like(p), np.zeros_like(p)) for key, p in params.items()}
    opt = nn.Adam(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    for t in range(1, steps + 1):
        grads = {key: draw(p.shape, f"{key} gradient, step {t}") for key, p in params.items()}
        sent = {key: g.copy() for key, g in grads.items()}
        # g * g overflows and an infinite m_hat over an infinite root is NaN:
        # both sides must still agree to the bit
        with np.errstate(over="ignore", invalid="ignore"):
            opt.step(params, grads)
            expected = {key: ref.adam_step(p, sent[key], m, v, t, lr, beta1, beta2, eps)
                        for key, (p, m, v) in expected.items()}
        for key, p in params.items():
            assert p.tobytes() == np.asarray(expected[key][0]).tobytes(), (key, t)
            assert grads[key].tobytes() == sent[key].tobytes(), (key, t)


def test_checkpoint_roundtrip_and_determinism(tmp_path):
    rng = seeded_rng(3, "ckpt")
    tensors = {
        "layer0.W": rng.normal(size=(4, 3)),
        "layer0.b": rng.normal(size=3),
        "scalarish": np.array(2.5),
    }
    meta = {"seed": 3, "kind": "test"}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    nn.save_checkpoint(p1, tensors, meta)
    nn.save_checkpoint(p2, tensors, meta)
    assert p1.read_bytes() == p2.read_bytes()
    loaded, meta2 = nn.load_checkpoint(p1)
    assert meta2 == meta
    assert set(loaded) == set(tensors)
    for k in tensors:
        assert loaded[k].shape == tensors[k].shape
        np.testing.assert_array_equal(loaded[k], tensors[k])


def test_checkpoint_rejects_other_files(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"not a checkpoint")
    with pytest.raises(ArtifactError, match="junk.bin"):
        nn.load_checkpoint(p)


def saved_checkpoint(tmp_path):
    rng = seeded_rng(4, "ckpt-damage")
    path = tmp_path / "good.ckpt"
    nn.save_checkpoint(path, {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)})
    return path, path.read_bytes()


def test_checkpoint_rejects_truncated_file(tmp_path):
    path, raw = saved_checkpoint(tmp_path)
    path.write_bytes(raw[:-8])
    with pytest.raises(ArtifactError, match="good.ckpt.*bytes"):
        nn.load_checkpoint(path)


def test_checkpoint_rejects_flipped_blob_byte(tmp_path):
    path, raw = saved_checkpoint(tmp_path)
    damaged = bytearray(raw)
    damaged[-5] ^= 0x01
    path.write_bytes(bytes(damaged))
    with pytest.raises(ArtifactError, match="good.ckpt.*SHA-256"):
        nn.load_checkpoint(path)


def rewrite_header(path, edit, sign):
    """Apply `edit` to a checkpoint's parsed header. With `sign` the header
    is re-signed, so only the directory check can reject the file."""
    magic, digest, header, blob = path.read_bytes().split(b"\n", 3)
    fields = json.loads(header)
    edit(fields)
    header = json.dumps(fields, sort_keys=True, ensure_ascii=True).encode("ascii")
    if sign:
        digest = hashlib.sha256(header + b"\n" + blob).hexdigest().encode("ascii")
    path.write_bytes(b"\n".join([magic, digest, header, blob]))


def set_field(i, key, value):
    def edit(fields):
        fields["tensors"][i][key] = value
    return edit


def swap_field(i, j, key):
    def edit(fields):
        a, b = fields["tensors"][i], fields["tensors"][j]
        a[key], b[key] = b[key], a[key]
    return edit


def set_meta(key, value):
    def edit(fields):
        fields["meta"][key] = value
    return edit


@pytest.mark.parametrize("edit", [
    # same shapes, so the swapped directory passes every structural check
    pytest.param(swap_field(0, 1, "name"), id="swapped-names"),
    pytest.param(set_meta("epoch", 4), id="edited-meta"),
])
def test_checkpoint_digest_covers_directory_and_meta(tmp_path, edit):
    path = tmp_path / "swap.ckpt"
    nn.save_checkpoint(path, {"a": np.zeros(3), "b": np.ones(3)}, meta={"epoch": 3})
    rewrite_header(path, edit, sign=False)
    with pytest.raises(ArtifactError, match="swap.ckpt.*SHA-256"):
        nn.load_checkpoint(path)


def test_checkpoint_rejects_undecodable_header(tmp_path):
    path, raw = saved_checkpoint(tmp_path)
    magic, digest, _, blob = raw.split(b"\n", 3)
    path.write_bytes(b"\n".join([magic, digest, b"\xff{not json", blob]))
    with pytest.raises(ArtifactError, match="good.ckpt.*header"):
        nn.load_checkpoint(path)


@pytest.mark.parametrize("edit, match", [
    # a zero-size tensor keeps the blob length whatever its other dimension
    pytest.param(set_field(0, "shape", [-3, 0]), "'a' has shape", id="negative-dimension"),
    pytest.param(set_field(1, "shape", [3.0]), "'b' has shape", id="float-dimension"),
    pytest.param(set_field(1, "name", "a"), "name 'a' is not a unique", id="repeated-name"),
    pytest.param(set_field(1, "name", 7), "name 7 is not a unique", id="non-string-name"),
])
def test_checkpoint_rejects_a_directory_save_would_not_write(tmp_path, edit, match):
    path = tmp_path / "dir.ckpt"
    nn.save_checkpoint(path, {"a": np.zeros((0, 3)), "b": np.ones(3), "c": np.arange(3.0)})
    rewrite_header(path, edit, sign=True)
    with pytest.raises(ArtifactError, match=f"dir.ckpt.*{re.escape(match)}"):
        nn.load_checkpoint(path)


@pytest.mark.parametrize("tensors, meta, match", [
    # written, then rejected by load_checkpoint
    pytest.param({1: np.ones(2)}, None, "tensor name 1 must be a str", id="int-name"),
    # integer tensors, which float64 would round beyond 2**53
    pytest.param({"i": np.array([2**53 + 1])}, None, "'i' has dtype int64, not float",
                 id="int64-beyond-2**53"),
    pytest.param({"u": np.array([2**64 - 1], dtype=np.uint64)}, None,
                 "'u' has dtype uint64, not float", id="uint64-max"),
    pytest.param({"b": np.array([True])}, None, "'b' has dtype bool, not float", id="bool"),
    # rounded to float64: 1 + 2**-60 loaded back as 1.0
    pytest.param({"l": np.array([np.longdouble(1) + 2**-60])}, None,
                 f"'l' has dtype {np.dtype(np.longdouble)}, not float", id="longdouble",
                 marks=pytest.mark.skipif(np.dtype(np.longdouble).itemsize <= 8,
                                          reason="np.longdouble is float64 here")),
    # the imaginary part was dropped with only a ComplexWarning
    pytest.param({"z": np.array([1 + 2j])}, None, "'z' has dtype complex128", id="complex"),
    # stored as NaN
    pytest.param({"o": np.array([None, 1.0])}, None, "'o' has dtype object", id="object"),
    # each a raw ValueError
    pytest.param({"a": "xyz"}, None, "'a' has dtype <U3", id="string"),
    pytest.param({"r": [[1.0], [1.0, 2.0]]}, None, "'r' is not an array", id="ragged"),
    # a raw TypeError
    pytest.param({}, {"step": np.int64(3)}, "meta is not JSON", id="numpy-int-meta"),
    # round-tripped as a list
    pytest.param({}, [1], "meta must be a dict, got list", id="list-meta"),
    # written as Infinity, which is not JSON
    pytest.param({}, {"x": np.inf}, "meta is not JSON", id="infinite-meta"),
    # read back with the key "1"
    pytest.param({}, {1: "a"}, "does not read back as written", id="int-key-meta"),
])
def test_save_checkpoint_rejects_what_load_would_not_give_back(tmp_path, tensors, meta, match):
    path = tmp_path / "bad.ckpt"
    with pytest.raises(ConfigError, match=re.escape(match)):
        nn.save_checkpoint(path, tensors, meta)
    assert not path.exists()


def test_checkpoint_rejects_meta_that_is_not_an_object(tmp_path):
    path = tmp_path / "meta.ckpt"
    nn.save_checkpoint(path, {"a": np.zeros(3)})
    rewrite_header(path, lambda fields: fields.update(meta=[1]), sign=True)
    with pytest.raises(ArtifactError, match=r"meta.ckpt.*meta \[1\] is not a JSON object"):
        nn.load_checkpoint(path)


# 0-4 tensors of 0-3 dimensions of size 0-4, any float64 (NaN, +-inf and
# -0.0 included), and meta that JSON holds exactly
ckpt_tensors = st.dictionaries(
    st.text(max_size=6),
    arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
           elements=st.floats(width=64)),
    max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3), max_leaves=8)
ckpt_meta = st.dictionaries(st.text(max_size=6), json_values, max_size=4)


@settings(max_examples=100, deadline=None)
@given(tensors=ckpt_tensors, meta=ckpt_meta, data=st.data())
def test_checkpoint_round_trips_bit_exact_and_rejects_any_flipped_byte(
        tmp_path_factory, tensors, meta, data):
    path = tmp_path_factory.mktemp("ckpt") / "x.ckpt"
    nn.save_checkpoint(path, tensors, meta)
    raw = path.read_bytes()
    loaded, meta2 = nn.load_checkpoint(path)
    assert meta2 == meta
    assert {name: (a.shape, a.tobytes()) for name, a in loaded.items()} == {
        name: (a.shape, a.astype("<f8").tobytes()) for name, a in tensors.items()}
    # what was loaded saves to the same bytes
    nn.save_checkpoint(path, loaded, meta2)
    assert path.read_bytes() == raw
    damaged = bytearray(raw)
    damaged[data.draw(st.integers(0, len(raw) - 1), label="byte")] ^= data.draw(
        st.integers(1, 255), label="mask")
    path.write_bytes(bytes(damaged))
    with pytest.raises(ArtifactError, match="x.ckpt"):
        nn.load_checkpoint(path)
