"""Command-line contract: artifacts, exit codes, determinism."""

import copy
import dataclasses
import json
import typing

import numpy as np
import pytest

from tfdl import runio
from tfdl.cli import cli
from tfdl.runio import RunConfig


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A tiny but complete pretrain+distill run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = RunConfig()
    cfg.dataset.n = 2000
    cfg.teacher.iters = 60
    cfg.distill.iters = 8
    cfg.distill.batch = 32
    cfg.eval_samples = 256
    cfg.out_dir = str(root / "out")
    cfg_path = root / "run.json"
    cfg_path.write_text(cfg.to_json())
    assert cli(["pretrain", "--config", str(cfg_path)]) == 0
    assert cli(["distill", "--config", str(cfg_path),
                "--ckpt", str(root / "out" / "teacher.ckpt")]) == 0
    return root, cfg_path


def test_sample_writes_csv_and_svg(run_dir):
    root, cfg_path = run_dir
    out = root / "out"
    assert cli(["sample", "--config", str(cfg_path), "--steps", "2",
                "--ckpt", str(out / "student.ckpt")]) == 0
    csv_path = out / "samples_2step.csv"
    svg_path = out / "samples_2step.svg"
    assert csv_path.exists() and svg_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,y,label"
    assert len(lines) == 257
    assert svg_path.read_text().startswith("<svg")


def test_metrics_csv_has_expected_header(run_dir):
    root, _ = run_dir
    lines = (root / "out" / "distill_metrics.csv").read_text().splitlines()
    assert lines[0] == "iter,scm_loss,adv_g,adv_d,grad_norm,r,t_mean"
    assert len(lines) == 9  # one row per step
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(8))
    # a checkpoint every quarter of the run, named by completed steps
    for k in (2, 4, 6, 8):
        assert (root / "out" / f"student_{k:06d}.ckpt").exists()


def _fresh_config(tmp_path):
    """A default run config whose out_dir does not exist yet."""
    d = json.loads(RunConfig().to_json())
    d["out_dir"] = str(tmp_path / "out")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(d))
    return path


def test_missing_checkpoint_exits_3(tmp_path, capsys):
    missing = str(tmp_path / "nope.ckpt")
    code = cli(["sample", "--config", str(_fresh_config(tmp_path)), "--ckpt", missing])
    assert code == 3
    assert missing in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a missing --ckpt, or a flag the subcommand does not read
@pytest.mark.parametrize("argv", [["sample"], ["pretrain", "--ckpt", "x"], ["plot", "--seed", "1"],
                                  ["distill", "--ckpt", "x", "--steps", "1"]],
                         ids=["sample", "pretrain-ckpt", "plot-seed", "distill-steps"])
def test_usage_error_exits_2_and_writes_nothing(tmp_path, argv):
    assert cli(argv + ["--config", str(_fresh_config(tmp_path))]) == 2
    assert not (tmp_path / "out").exists()


def test_unknown_subcommand_exits_2():
    assert cli(["frobnicate", "--config", "x.json"]) == 2


def test_bad_config_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli(["plot", "--config", str(bad)]) == 3


def test_unknown_config_key_exits_3(tmp_path, capsys):
    d = json.loads(RunConfig().to_json())
    d["eval_seeed"] = 4
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps(d))
    assert cli(["plot", "--config", str(bad)]) == 3
    assert "eval_seeed" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("teacher", "lr_decay", "foo"),
    ("distill", "iters", 0),
    ("distill", "cfg_scales", []),
    ("distill", "cfg_scales", [4.0, float("nan")]),
    (None, "eval_samples", 0),
    (None, "eval_samples", 1),
    (None, "eval_cfg_scale", float("nan")),
    ("dataset", "n", 0),
    ("dataset", "n", 1),
    ("net", "width", 100),
    # the retired n_freq is width // 2, but 36 does not split into the net's 8 tokens
    pytest.param("net", "n_tokens", {"width": 36, "n_freq": 18}, id="net-width-36-n_freq-18"),
    ("teacher", "iters", 0),
    ("teacher", "batch", 0),
    ("teacher", "log_every", 0),
    ("teacher", "weighting", 1),
    ("teacher", "cfg_scales", [4.0]),
    ("distill", "batch", 0),
    # the ramp length is warmup_steps; the old half-step key is unknown
    ("distill", "warmup_H", 1000),
    ("distill", "warmup_steps", 0),
    # every net has the attention block; the old switch is an unknown key
    ("net", "attention", False),
    # the timestep distributions take sigma_d from the dataset
    pytest.param("distill", "distill.gen_tdist.sigma_d",
                 {"gen_tdist": {"p_mean": 0.0, "p_std": 1.6, "sigma_d": 9.0, "max_time_prob": 0.5}},
                 id="distill-gen_tdist-sigma_d-9.0"),
    pytest.param("distill", "distill.disc_tdist.sigma_d",
                 {"disc_tdist": {"p_mean": -0.6, "p_std": 1.0, "sigma_d": 9.0, "max_time_prob": 0.0}},
                 id="distill-disc_tdist-sigma_d-9.0"),
    # every value below loaded before each field checked its own type and range
    ("net", "qk_norm", "no"),
    ("teacher", "lr", -1),
    ("distill", "lambda_adv", float("nan")),
    ("net", "c_noise_scale", 0),
    ("distill", "head_width", 0),
    ("net", "depth", 0),
    ("distill", "iters", 1.5),
    ("dataset", "comp_std", float("nan")),
    ("dataset", "components", 0),
    (None, "teacher_seed", -1),
    ("teacher", "lr", float("nan")),
    ("teacher", "lr", 0),
    ("distill", "lr", float("nan")),
    ("distill", "lr", -1e-4),
    ("distill", "tangent_c", float("nan")),
    ("net", "c_noise_scale", float("nan")),
    ("net", "c_noise_scale", -1.0),
    # an error inside a timestep distribution names the distribution by its path
    pytest.param("distill", "distill.gen_tdist.p_mean",
                 {"gen_tdist": {"p_mean": float("nan"), "p_std": 1.6, "max_time_prob": 0.5}},
                 id="distill-gen_tdist-p_mean-nan"),
    pytest.param("distill", "distill.disc_tdist.p_std",
                 {"disc_tdist": {"p_mean": -0.6, "p_std": float("nan"), "max_time_prob": 0.0}},
                 id="distill-disc_tdist-p_std-nan"),
    ("dataset", "comp_std", -0.3),
    ("distill", "use_scm", "yes"),
    ("teacher", "batch", 2.5),
    (None, "eval_seed", -1),
    (None, "eval_samples", 4096.0),
    ("dataset", "name", "nope"),
    ("distill", "cfg_scales", ["a"]),
    # an int beyond the float range, which math.isfinite cannot take
    pytest.param("teacher", "lr", 10 ** 400, id="teacher-lr-10**400"),
    # a retired key loads only with the one value that is today's behaviour
    pytest.param("teacher", "teacher.lr_decay", {"lr_decay": "none"}, id="teacher-lr_decay-none"),
    # the retired n_freq loads only as width // 2
    pytest.param("net", "net.n_freq", {"width": 32, "n_freq": 8}, id="net-width-32-n_freq-8"),
    # a cross-field rule names its section too
    pytest.param("net", "net.width", {"width": 100}, id="net-width-100-path"),
    pytest.param("distill", "distill.use_scm", {"use_scm": False, "lambda_adv": 0.0},
                 id="distill-use_scm-false-lambda_adv-0"),
    # a dataset whose sigma_d overflows to inf or underflows to 0
    pytest.param("dataset", "sigma_d", {"radius": 1e300}, id="dataset-radius-1e300-sigma_d-inf"),
    pytest.param("dataset", "sigma_d", {"components": 1, "radius": 0.0, "comp_std": 1e-300},
                 id="dataset-comp_std-1e-300-sigma_d-0"),
    # timestep distributions are bounded, so exp(tau) in sample_t cannot overflow
    pytest.param("distill", "distill.gen_tdist.p_mean",
                 {"gen_tdist": {"p_mean": 1e10, "p_std": 1.6, "max_time_prob": 0.5}},
                 id="distill-gen_tdist-p_mean-1e10"),
    pytest.param("distill", "distill.disc_tdist.p_std",
                 {"disc_tdist": {"p_mean": -0.6, "p_std": 100.0, "max_time_prob": 0.0}},
                 id="distill-disc_tdist-p_std-100"),
    # guidance scales lie in [0, 1e3], where float64 sin of 0.1 * cfg * 300 is accurate
    pytest.param("distill", "distill.cfg_scales", [1e300], id="distill-cfg_scales-1e300"),
    pytest.param("distill", "distill.cfg_scales", [4.0, 1e300],
                 id="distill-cfg_scales-4.0-1e300"),
    pytest.param(None, "eval_cfg_scale", 1e300, id="None-eval_cfg_scale-1e300"),
    pytest.param(None, "eval_cfg_scale", -1.0, id="None-eval_cfg_scale--1"),
])
def test_out_of_range_config_value_exits_3(tmp_path, capsys, section, key, value):
    # section None is a top-level RunConfig key; a dict value edits several
    # keys, and its key is the part of the message the test looks for
    d = json.loads(RunConfig().to_json())
    target = d if section is None else d[section]
    target.update(value if isinstance(value, dict) else {key: value})
    d["out_dir"] = str(tmp_path / "out")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert cli(["plot", "--config", str(bad)]) == 3
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _leaf_keys(cls, path=()):
    """(key path, annotated type) of every leaf field under the dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            yield from _leaf_keys(hints[f.name], path + (f.name,))
        else:
            yield path + (f.name,), hints[f.name]


LEAF_KEYS = list(_leaf_keys(RunConfig))


@pytest.mark.parametrize("path, annotated", LEAF_KEYS, ids=[".".join(p) for p, _ in LEAF_KEYS])
def test_every_config_key_rejects_a_wrong_type(tmp_path, capsys, path, annotated):
    # generated from the schema, so a field added without a checked
    # __post_init__ fails here: a string for numbers and bools, a number for strings
    d = json.loads(RunConfig().to_json())
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = 1 if annotated is str else "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert cli(["plot", "--config", str(bad), "--out", str(tmp_path / "out")]) == 3
    assert path[-1] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# (command, the config seed its --seed replaces, checkpoint in the run directory)
@pytest.mark.parametrize("command, seed_key, ckpt", [
    ("pretrain", "teacher_seed", None),
    ("distill", "distill_seed", "teacher.ckpt"),
    ("sample", "eval_seed", "student.ckpt"),
    ("search-steps", "eval_seed", "student.ckpt"),
    ("eval", "eval_seed", "student.ckpt"),
])
def test_seed_flag_equals_config_seed(run_dir, tmp_path, command, seed_key, ckpt):
    # --seed replaces the config seed everywhere it is used: the artifacts of
    # --seed 7 are those of a config whose seed is 7, byte for byte
    root, cfg_path = run_dir
    d = json.loads(cfg_path.read_text())
    d["teacher"]["iters"] = 5
    ckpt_args = [] if ckpt is None else ["--ckpt", str(root / "out" / ckpt)]
    flagged, edited = tmp_path / "flagged", tmp_path / "edited"
    for out, seed_args, seed in ((flagged, ["--seed", "7"], d[seed_key]), (edited, [], 7)):
        path = tmp_path / f"{out.name}.json"
        path.write_text(json.dumps({**d, seed_key: seed}))
        assert cli([command, "--config", str(path), "--out", str(out)]
                   + seed_args + ckpt_args) == 0
    names = sorted(p.name for p in flagged.iterdir())
    assert names == sorted(p.name for p in edited.iterdir())
    assert all((flagged / n).read_bytes() == (edited / n).read_bytes() for n in names)


def test_negative_seed_flag_exits_3(tmp_path, capsys):
    code = cli(["pretrain", "--config", str(_fresh_config(tmp_path)), "--seed", "-1"])
    assert code == 3
    assert "teacher_seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _probe_config(out):
    """A small run config: width 32, depth 2, 20 teacher iterations, 4 distill steps."""
    d = json.loads(RunConfig().to_json())
    d["net"].update(width=32, depth=2)
    d["teacher"]["iters"] = 20
    d["distill"]["iters"] = 4
    d["eval_samples"] = 256
    d["out_dir"] = str(out)
    return d


@pytest.fixture(scope="module")
def probe_teacher(tmp_path_factory):
    root = tmp_path_factory.mktemp("probe")
    path = root / "run.json"
    path.write_text(json.dumps(_probe_config(root)))
    assert cli(["pretrain", "--config", str(path)]) == 0
    return root / "teacher.ckpt"


# values inside their config domains whose arithmetic overflows: the run
# exits 1 naming the training iteration instead of going on with inf
@pytest.mark.parametrize("command, path, value, message", [
    ("pretrain", ("net", "c_noise_scale"), 1e300, "iteration 1: overflow encountered in multiply"),
], ids=["net-c_noise_scale-1e300"])
def test_floating_point_error_exits_1(probe_teacher, tmp_path, capsys, command, path, value,
                                      message):
    d = _probe_config(tmp_path / "out")
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(d))
    ckpt = [] if command == "pretrain" else ["--ckpt", str(probe_teacher)]
    capsys.readouterr()
    assert cli([command, "--config", str(cfg_path)] + ckpt) == 1
    assert f"training diverged at {message}" in capsys.readouterr().err


# (command, checkpoint in the run directory, dataset of the config, mismatched keys)
@pytest.mark.parametrize("command, ckpt, dataset, keys", [
    ("distill", "student.ckpt", "gauss-mix", ["role"]),
    ("distill", "teacher.ckpt", "two-moons", ["sigma_d", "n_classes"]),
    ("sample", "teacher.ckpt", "two-moons", ["sigma_d", "n_classes"]),
    ("search-steps", "teacher.ckpt", "two-moons", ["sigma_d", "n_classes"]),
    ("eval", "teacher.ckpt", "two-moons", ["sigma_d", "n_classes"]),
], ids=["distill-student", "distill-two-moons", "sample-two-moons", "search-steps-two-moons",
        "eval-two-moons"])
def test_mismatched_checkpoint_exits_3(run_dir, tmp_path, capsys, command, ckpt, dataset,
                                       keys):
    # the run directory holds a gauss-mix teacher and the student distilled from it
    root, cfg_path = run_dir
    d = json.loads(cfg_path.read_text())
    d["dataset"]["name"] = dataset
    d["out_dir"] = str(tmp_path / "out")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(d))
    capsys.readouterr()
    assert cli([command, "--config", str(path), "--ckpt", str(root / "out" / ckpt)]) == 3
    err = capsys.readouterr().err
    assert str(root / "out" / ckpt) in err
    assert all(key in err for key in keys)
    assert not (tmp_path / "out").exists()


def test_eval_deterministic(run_dir):
    root, cfg_path = run_dir
    out = root / "out"
    reports = []
    for _ in range(2):
        assert cli(["eval", "--config", str(cfg_path), "--steps", "1",
                    "--seed", "42", "--ckpt", str(out / "student.ckpt")]) == 0
        reports.append(json.loads((out / "eval_1step.json").read_text()))
    assert reports[0] == reports[1]
    assert reports[0]["sliced_w2"] >= 0.0


def test_search_steps_writes_schedule(run_dir):
    root, cfg_path = run_dir
    out = root / "out"
    assert cli(["search-steps", "--config", str(cfg_path), "--steps", "2",
                "--ckpt", str(out / "student.ckpt")]) == 0
    sched = json.loads((out / "schedule.json").read_text())
    assert sched["steps"] == 2
    times = sched["times"]
    assert times[-1] == 0.0 and all(a > b for a, b in zip(times, times[1:]))
    table = (out / "search_table.csv").read_text().splitlines()
    assert table[0] == "step_index,candidate_t,metric"


def test_plot_writes_dataset_artifacts(run_dir):
    root, cfg_path = run_dir
    out = root / "out"
    assert cli(["plot", "--config", str(cfg_path)]) == 0
    assert (out / "dataset.svg").exists() and (out / "dataset.csv").exists()


def _rewrite_header(path, edit):
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    edit(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-5])


def _bad_schema(path):
    _rewrite_header(path, lambda h: h.update(schema=99))


def _flip_shape(path):
    _rewrite_header(path, lambda h: h["shapes"]["in_w"].reverse())


def _nan_param(path):
    data = bytearray(path.read_bytes())
    data[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(data))


def _string_qk_norm(path):
    _rewrite_header(path, lambda h: h["meta"].update(qk_norm="no"))


def _zero_c_noise_scale(path):
    _rewrite_header(path, lambda h: h["meta"].update(c_noise_scale=0))


@pytest.mark.parametrize("corrupt", [_truncate, _bad_schema, _flip_shape, _nan_param,
                                     _string_qk_norm, _zero_c_noise_scale])
def test_malformed_checkpoint_exits_3(run_dir, tmp_path, capsys, corrupt):
    root, cfg_path = run_dir
    bad = tmp_path / "student.ckpt"
    bad.write_bytes((root / "out" / "student.ckpt").read_bytes())
    corrupt(bad)
    capsys.readouterr()
    code = cli(["sample", "--config", str(cfg_path), "--out", str(tmp_path),
                "--ckpt", str(bad)])
    assert code == 3
    assert str(bad) in capsys.readouterr().err


def test_interrupted_checkpoint_write_keeps_old_file(run_dir, tmp_path):
    root, _ = run_dir
    path = tmp_path / "student.ckpt"
    path.write_bytes((root / "out" / "student.ckpt").read_bytes())
    before = path.read_bytes()
    net, _ = runio.load_net(str(path))

    class FailingValues:
        def astype(self, dtype):
            raise OSError("disk full")

    params = copy.copy(net.params)
    params.flat = FailingValues()
    with pytest.raises(OSError):
        runio.save_params(str(path), params)
    assert path.read_bytes() == before
    assert not (tmp_path / "student.ckpt.tmp").exists()
