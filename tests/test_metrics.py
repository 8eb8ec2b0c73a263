"""Distribution metrics, config round-trips, and checkpoint persistence."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tfdl
from conftest import fresh_process_env
from tfdl.errors import ConfigurationError, NumericsError
from tfdl.metrics import (_MMD_TILE, _lift, _sliced_w2_dirs, _tile_sum, evaluate, mmd_rbf,
                          sliced_w2)
from tfdl.net import N_TOKENS, NetSpec
from tfdl.optim import ParamVector
from tfdl.runio import RunConfig, load_net, save_net, save_params


def test_sliced_w2_identical_multisets():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 2))
    assert sliced_w2(a, a.copy(), n_proj=32, seed=1) <= 1e-12


def test_sliced_w2_point_masses_along_axis():
    d = 1.7
    a = np.zeros((64, 2))
    b = np.zeros((64, 2))
    b[:, 0] = d
    dirs = np.array([[1.0, 0.0]])
    assert _sliced_w2_dirs(a, b, dirs) == pytest.approx(d, abs=1e-15)


def test_sliced_w2_translation_covariance():
    # E |<u, c>| over random directions is (2/pi) ||c||, inside [0.6, 1] ||c||
    rng = np.random.default_rng(2)
    a = rng.standard_normal((512, 2))
    c = np.array([0.8, -0.6])
    val = sliced_w2(a, a + c, n_proj=512, seed=3)
    assert 0.6 * np.linalg.norm(c) <= val <= np.linalg.norm(c)


def test_sliced_w2_size_mismatch():
    with pytest.raises(ValueError):
        sliced_w2(np.zeros((4, 2)), np.zeros((5, 2)))


def test_mmd_identical_samples_clamped_to_zero():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((128, 2))
    assert mmd_rbf(a, a.copy()) == 0.0


def test_mmd_same_distribution_within_permutation_noise():
    rng = np.random.default_rng(5)
    pool = rng.standard_normal((256, 2))
    a, b = pool[:128], pool[128:]
    value = mmd_rbf(a, b)
    perms = []
    for k in range(200):
        idx = np.random.default_rng(100 + k).permutation(256)
        perms.append(mmd_rbf(pool[idx[:128]], pool[idx[128:]]))
    assert value <= np.mean(perms) + 3 * np.std(perms)


def test_mmd_far_clusters_saturate():
    a = np.zeros((64, 2))
    b = np.full((64, 2), 50.0)
    assert mmd_rbf(a, b, bandwidth=1.0) == pytest.approx(2.0, abs=1e-12)


def test_mmd_symmetric():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((64, 2))
    b = rng.standard_normal((64, 2)) + 0.5
    assert mmd_rbf(a, b) == pytest.approx(mmd_rbf(b, a), rel=1e-12)


def test_mmd_matches_dense_kernel_formula():
    # unequal sizes, neither a multiple of the kernel's row block
    rng = np.random.default_rng(7)
    a = rng.standard_normal((700, 2))
    b = 0.8 * rng.standard_normal((1030, 2)) + 0.3
    gamma = 0.5 / 0.7 ** 2

    def kernel(u, v):
        return np.exp(-gamma * ((u[:, None, :] - v[None, :, :]) ** 2).sum(-1))

    kaa, kbb, kab = kernel(a, a), kernel(b, b), kernel(a, b)
    dense = ((kaa.sum() - np.trace(kaa)) / (700 * 699)
             + (kbb.sum() - np.trace(kbb)) / (1030 * 1029) - 2.0 * kab.mean())
    assert dense > 0
    assert mmd_rbf(a, b, bandwidth=0.7) == pytest.approx(dense, rel=1e-12)


def _dense_mmd(a, b, gamma):
    def kernel(u, v):
        return np.exp(-gamma * ((u[:, None, :] - v[None, :, :]) ** 2).sum(-1))

    na, nb = len(a), len(b)
    kaa, kbb, kab = kernel(a, a), kernel(b, b), kernel(a, b)
    return ((kaa.sum() - np.trace(kaa)) / (na * (na - 1))
            + (kbb.sum() - np.trace(kbb)) / (nb * (nb - 1)) - 2.0 * kab.mean())


@pytest.mark.parametrize("na, nb", [(2 * _MMD_TILE, _MMD_TILE),
                                    (_MMD_TILE + 1, 2 * _MMD_TILE + 1)])
def test_mmd_matches_dense_kernel_formula_at_tile_edges(na, nb):
    # exact tile multiples, and one point past a tile on each side
    rng = np.random.default_rng(8)
    a = rng.standard_normal((na, 2))
    b = 0.8 * rng.standard_normal((nb, 2)) + 0.3
    gamma = 0.5 / 0.7 ** 2
    dense = _dense_mmd(a, b, gamma)
    assert dense > 0
    assert mmd_rbf(a, b, bandwidth=0.7) == pytest.approx(dense, rel=1e-12)


def test_mmd_identical_samples_over_several_tiles_is_zero():
    a = np.random.default_rng(9).standard_normal((2 * _MMD_TILE + 7, 2))
    assert mmd_rbf(a, a.copy()) == 0.0


def _alloc_tile_sum(u, v, gamma):
    sq = np.zeros((len(u), len(v)))
    for k in range(u.shape[1]):
        d = u[:, k, None] - v[:, k]
        sq += d * d
    sq *= -gamma
    return np.exp(sq, out=sq).sum()


def _alloc_mmd(a, b, bandwidth=1.0):
    """Reference: ``mmd_rbf``'s tiles in subtract-and-square form, with a fresh
    array per tile. The lifted GEMM tiles round differently, so they must match
    it to 1e-12 relative, not bit for bit."""
    def kernel_sum(u, v):
        return sum(_alloc_tile_sum(u[i:i + _MMD_TILE], v[j:j + _MMD_TILE], gamma)
                   for i in range(0, len(u), _MMD_TILE) for j in range(0, len(v), _MMD_TILE))

    def self_kernel_sum(u):
        total = 0.0
        for i in range(0, len(u), _MMD_TILE):
            rows = u[i:i + _MMD_TILE]
            total += _alloc_tile_sum(rows, rows, gamma)
            for j in range(i + _MMD_TILE, len(u), _MMD_TILE):
                total += 2.0 * _alloc_tile_sum(rows, u[j:j + _MMD_TILE], gamma)
        return total

    gamma = 1.0 / (2.0 * bandwidth ** 2)
    na, nb = len(a), len(b)
    est = ((self_kernel_sum(a) - na) / (na * (na - 1))
           + (self_kernel_sum(b) - nb) / (nb * (nb - 1))
           - 2.0 * kernel_sum(a, b) / (na * nb))
    return max(0.0, float(est))


@pytest.mark.parametrize("na, nb", [(4096, 4096), (700, 1030), (257, 513), (2, 3)])
def test_mmd_matches_allocating_tiles(na, nb):
    rng = np.random.default_rng(10)
    a = rng.standard_normal((na, 2))
    b = 0.8 * rng.standard_normal((nb, 2)) + 0.3
    # abs=0: approx's default absolute tolerance of 1e-12 would swamp the
    # relative one on estimates well below 1
    assert mmd_rbf(a, b, bandwidth=0.7) == pytest.approx(_alloc_mmd(a, b, bandwidth=0.7),
                                                         rel=1e-12, abs=0)
    assert mmd_rbf(b, a) == pytest.approx(_alloc_mmd(b, a), rel=1e-12, abs=0)


@pytest.mark.parametrize("offset", [1.0, 100.0, 1e3])
def test_mmd_translation_invariant(offset):
    # the lifted rows hold |u|^2, so without centring a far offset would cost
    # digits of the exponent
    rng = np.random.default_rng(11)
    a = rng.standard_normal((700, 2))
    b = 0.8 * rng.standard_normal((1030, 2)) + 0.3
    c = offset * np.array([1.0, -0.6])
    assert mmd_rbf(a + c, b + c) == pytest.approx(mmd_rbf(a, b), rel=1e-12, abs=0)


def test_mmd_self_kernel_diagonal_counts_exactly_n():
    # a's points lie at least 100 apart, so its off-diagonal kernels underflow
    # to 0, and up to 3e4 from their mean, so an unzeroed diagonal exponent
    # would round away from 0; b is one point repeated, far from a. The
    # estimate is 0 + 1 - 0.
    rng = np.random.default_rng(16)
    a = 100.0 * rng.permutation(300)[:, None] * np.array([1.0, 0.37])
    a += rng.uniform(0, 1, (300, 2)) + 1e4
    b = np.tile([-1e4 - 0.1234567, -3.21987], (300, 1))
    for bandwidth in (0.3, 0.7, 1.3):
        assert mmd_rbf(a, b, bandwidth=bandwidth) == 1.0


def test_mmd_tile_kernel_never_exceeds_one():
    # a repeated point lifted far from the centre gets exponents of either sign
    # from rounding; the clamp keeps every kernel value at most 1
    u = np.tile([1e4 + 0.1234567, 3.21987], (64, 1))
    rows, cols = _lift(u, np.zeros(2), 1.0 / (2.0 * 0.3 ** 2))
    assert _tile_sum(rows, cols, np.empty(64 * 64)) <= 64 * 64


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_metrics_reject_non_finite_points(bad):
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((64, 2)), rng.standard_normal((64, 2))
    a[5, 1] = bad
    for metric in (mmd_rbf, sliced_w2):
        for args in ((a, b), (b, a)):
            with pytest.raises(NumericsError):
                metric(*args)
    with pytest.raises(NumericsError):
        evaluate(a, b)


def test_mmd_overflowing_exponent_raises():
    # finite points whose squared norms overflow would give a NaN exponent,
    # which the clamp at 0 would otherwise report as a perfect score
    a = np.array([[0.0, 0.0], [1e160, 0.0], [1e160, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError):
        mmd_rbf(a, a[::-1])


# 1e-160 and 1e-200 are positive, but 1/(2 bandwidth^2) overflows
@pytest.mark.parametrize("bandwidth", [-1.0, 0.0, np.inf, np.nan, 1e-160, 1e-200])
def test_mmd_rejects_bad_bandwidth(bandwidth):
    a = np.random.default_rng(13).standard_normal((16, 2))
    with pytest.raises(ValueError, match="bandwidth"):
        mmd_rbf(a, a + 1.0, bandwidth=bandwidth)


def test_mmd_rejects_mismatched_dimensions():
    rng = np.random.default_rng(14)
    with pytest.raises(ValueError, match="dimension"):
        mmd_rbf(rng.standard_normal((16, 2)), rng.standard_normal((16, 3)))


def test_evaluate_rejects_unequal_sizes():
    rng = np.random.default_rng(15)
    a, b = rng.standard_normal((64, 2)), rng.standard_normal((65, 2))
    with pytest.raises(ValueError, match="sizes differ"):
        evaluate(a, b)
    report = evaluate(a, b[:64], seed=2)
    assert report.n_samples == 64
    assert report.mmd_rbf == mmd_rbf(a, b[:64])
    assert report.sliced_w2 == sliced_w2(a, b[:64], seed=2)


def test_mmd_rejects_single_sample():
    # the unbiased within-set terms divide by n (n - 1)
    one, many = np.zeros((1, 2)), np.ones((8, 2))
    for a, b in ((one, many), (many, one), (one, one)):
        with pytest.raises(ValueError):
            mmd_rbf(a, b)


def test_runconfig_roundtrip():
    cfg = RunConfig()
    cfg.dataset.name = "two-moons"
    cfg.distill.lambda_adv = 0.25
    cfg.distill.cfg_scales = (3.0, 4.0)
    text = cfg.to_json()
    back = RunConfig.from_json(text)
    assert back.to_json() == text
    assert back.dataset.name == "two-moons"
    assert back.distill.lambda_adv == 0.25
    assert back.distill.cfg_scales == (3.0, 4.0)


def test_runconfig_drops_null_sigma_d_of_older_configs():
    # to_json once wrote a null sigma_d into each timestep distribution
    d = json.loads(RunConfig().to_json())
    assert "sigma_d" not in json.dumps(d)
    for key in ("gen_tdist", "disc_tdist"):
        d["distill"][key]["sigma_d"] = None
    assert RunConfig.from_json(json.dumps(d)) == RunConfig()


def test_runconfig_written_before_lr_decay_was_retired_loads():
    # RunConfig().to_json() of the code that still had teacher.lr_decay
    path = os.path.join(os.path.dirname(__file__), "old_run_config.json")
    with open(path) as fh:
        text = fh.read()
    assert '"lr_decay": "cosine"' in text and '"n_freq": 64' in text
    assert RunConfig.from_json(text) == RunConfig()


def test_runconfig_rejects_unknown_top_level_key():
    d = json.loads(RunConfig().to_json())
    d["eval_seeed"] = 4
    with pytest.raises(ConfigurationError, match="eval_seeed"):
        RunConfig.from_json(json.dumps(d))


def test_checkpoint_roundtrip_bitwise(tmp_path):
    net = tfdl.VelocityNet(3, seed=7, zero_out=False)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_net(p1, net, {"sigma_d": 0.5, "role": "student"})
    loaded, meta = load_net(p1)
    assert meta["sigma_d"] == 0.5
    np.testing.assert_array_equal(loaded.params.flat, net.params.flat)
    assert loaded.spec == net.spec
    save_net(p2, loaded, {"sigma_d": 0.5, "role": "student"})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_of_small_spec_roundtrips(tmp_path):
    spec = NetSpec(width=16, depth=1)
    net = tfdl.VelocityNet(2, spec=spec, seed=3, zero_out=False)
    path = tmp_path / "small.ckpt"
    save_net(path, net, {"sigma_d": 0.5})
    loaded, meta = load_net(path)
    assert (loaded.n_classes, loaded.spec, meta) == (2, spec, {"sigma_d": 0.5})
    np.testing.assert_array_equal(loaded.params.flat, net.params.flat)
    x = np.random.default_rng(3).standard_normal((5, 2))
    np.testing.assert_array_equal(loaded.forward(x, 0.4, 1, 4.5), net.forward(x, 0.4, 1, 4.5))


def test_checkpoint_header_with_top_level_net_flags_loads(tmp_path):
    # older headers also carried c_noise_scale and qk_norm outside meta, and
    # n_tokens, attention and n_freq inside it; the reader rebuilds the net from the
    # NetSpec keys of meta alone, and a re-save drops the old keys
    net = tfdl.VelocityNet(3, spec=NetSpec(qk_norm=False, c_noise_scale=1000.0), seed=8,
                           zero_out=False)
    path = tmp_path / "old.ckpt"
    save_net(path, net, {"sigma_d": 0.5})
    new_bytes = path.read_bytes()
    head, payload = new_bytes.split(b"\n", 1)
    header = json.loads(head)
    assert "c_noise_scale" not in header and "qk_norm" not in header
    assert not {"n_tokens", "attention", "n_freq"} & header["meta"].keys()
    header.update(c_noise_scale=net.spec.c_noise_scale, qk_norm=net.spec.qk_norm)
    header["meta"].update(n_tokens=N_TOKENS, attention=True, n_freq=net.spec.width // 2)
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
    loaded, meta = load_net(path)
    np.testing.assert_array_equal(loaded.params.flat, net.params.flat)
    assert (loaded.spec.qk_norm, loaded.spec.c_noise_scale) == (False, 1000.0)
    assert meta == {"sigma_d": 0.5}
    save_net(path, loaded, meta)
    assert path.read_bytes() == new_bytes


def test_checkpoint_with_other_token_count_is_rejected(tmp_path):
    # an older header that spelled n_tokens = 4 has 32x32 attention weights,
    # which the net rebuilt with N_TOKENS = 8 does not
    net = tfdl.VelocityNet(3, seed=8)
    segs = [(name, (32, 32) if name.startswith("attn_") else net.params.shapes[name])
            for name in net.params.names]
    path = tmp_path / "tokens4.ckpt"
    save_params(path, ParamVector(segs), meta={**net.meta(), "n_tokens": 4, "sigma_d": 0.5})
    with pytest.raises(ConfigurationError, match="segment names or shapes"):
        load_net(path)


_OVERSIZED_PROBE = """
import resource, sys
from tfdl.errors import ConfigurationError
from tfdl.runio import load_net
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    load_net(sys.argv[1])
    print("loaded")
except ConfigurationError as exc:
    print("rejected", exc)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


def test_oversized_header_is_rejected_before_allocating(tmp_path):
    # a class count of 100,000 over a 3-class payload describes a 100 MB table;
    # the layout check must reject it before any net is built
    net = tfdl.VelocityNet(3, seed=8)
    path = tmp_path / "oversized.ckpt"
    save_params(path, net.params, meta={**net.meta(), "n_classes": 100_000})
    out = subprocess.run([sys.executable, "-c", _OVERSIZED_PROBE, str(path)],
                         env=fresh_process_env(), capture_output=True, text=True,
                         check=True, timeout=300).stdout.splitlines()
    assert out[0].startswith("rejected") and "segment names or shapes" in out[0]
    assert float(out[1]) < 20.0  # MB of peak RSS grown by the rejected load


def test_checkpoint_with_non_finite_meta_is_not_written(tmp_path):
    net = tfdl.VelocityNet(3, seed=8)
    with pytest.raises(NumericsError, match="sigma_d"):
        save_params(tmp_path / "inf.ckpt", net.params, meta={"sigma_d": float("inf")})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
def test_checkpoint_header_holding_non_json_constant_is_rejected(tmp_path, constant):
    net = tfdl.VelocityNet(3, seed=8)
    path = tmp_path / "a.ckpt"
    save_net(path, net, {"sigma_d": 0.5})
    text = path.read_bytes().replace(b'"sigma_d": 0.5', f'"sigma_d": {constant}'.encode(), 1)
    path.write_bytes(text)
    with pytest.raises(ConfigurationError, match=f"malformed checkpoint .*{constant}"):
        load_net(path)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_net(tmp_path / "missing.ckpt")


def test_csv_quoting(tmp_path):
    from tfdl.runio import write_csv
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [["x,y", 1.5], ["plain", 2]])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == '"x,y",1.5'
