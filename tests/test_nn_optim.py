import numpy as np
import pytest

from gridcast import nn
from gridcast.errors import ArtifactError, ConfigError
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
    with pytest.raises(ConfigError):
        nn.Adam(beta1=1.0)


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


def test_checkpoint_rejects_undecodable_header(tmp_path):
    path, raw = saved_checkpoint(tmp_path)
    magic_end = len(b"GRIDCAST-CKPT-1\n")
    path.write_bytes(raw[:magic_end] + b"\xff{not json\n" + raw[raw.index(b"\n", magic_end) + 1:])
    with pytest.raises(ArtifactError, match="good.ckpt.*header"):
        nn.load_checkpoint(path)
