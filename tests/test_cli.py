import json
import os
import shutil

import numpy as np
import pytest

from hashdec.checkpoint import load_params, save_params
from hashdec.cli import main
from hashdec.config import ExperimentConfig
from hashdec.nnd import GroundTruthTable

from test_pipeline import flip_byte, tiny_config


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "cfg.json"
    tiny_config().save(path)
    return str(path)


def test_init_config_writes_defaults(tmp_path, capsys):
    out = tmp_path / "default.json"
    assert main(["init-config", "--out", str(out)]) == 0
    cfg = ExperimentConfig.load(out)
    assert cfg.fingerprint() == ExperimentConfig().fingerprint()
    blob = json.loads(out.read_text())
    assert blob["code_m"] == 6 and blob["fusion_mode"] == "bla"


def test_full_pipeline_through_cli(tmp_path, cfg_file, capsys):
    run = str(tmp_path / "run")
    assert main(["generate-data", "--config", cfg_file, "--run-dir", run]) == 0
    assert main(["train-mdh", "--config", cfg_file, "--run-dir", run]) == 0
    assert main(["ground-truth", "--config", cfg_file, "--run-dir", run]) == 0
    assert main(["train-nnd", "--config", cfg_file, "--run-dir", run]) == 0
    assert main(["joint-optimize", "--config", cfg_file, "--run-dir", run]) == 0
    assert main(["evaluate", "--config", cfg_file, "--run-dir", run, "--variant", "mdhnd"]) == 0
    out = capsys.readouterr().out
    # one pass writes and prints both modes
    assert "eer" in out and "identification_accuracy" in out
    for name in ("metrics_auth_mdhnd.txt", "roc_auth_mdhnd.csv", "metrics_ident_mdhnd.txt"):
        assert os.path.exists(os.path.join(run, name)), name
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--config", cfg_file, "--run-dir", run,
              "--mode", "auth", "--variant", "mdhnd"])
    assert exc.value.code == 2
    assert main(["bench", "--config", cfg_file, "--run-dir", run,
                 "--repetitions", "10"]) == 0


def test_stage_gating_error_is_categorised(tmp_path, cfg_file, capsys):
    # every command that needs the data names generate-data before it reads anything
    run = str(tmp_path / "run")
    for command in (["train-mdh"], ["evaluate", "--variant", "mdh"], ["bench"]):
        rc = main([*command, "--config", cfg_file, "--run-dir", run])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error[pipeline]:")
        assert "run 'generate-data' first" in err, err


def test_missing_checkpoint_names_prerequisite(tmp_path, cfg_file, capsys):
    run = str(tmp_path / "run")
    main(["generate-data", "--config", cfg_file, "--run-dir", run])
    main(["train-mdh", "--config", cfg_file, "--run-dir", run])
    rc = main(["evaluate", "--config", cfg_file, "--run-dir", run, "--variant", "nnd"])
    assert rc == 3
    # names the first missing prerequisite command in stage order
    assert "ground-truth" in capsys.readouterr().err


def test_unknown_variant_is_usage_error(cfg_file):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--config", cfg_file, "--run-dir", "/tmp/x", "--variant", "turbo"])
    assert exc.value.code == 2


def test_nonpositive_repetitions_is_usage_error(tmp_path, cfg_file, capsys):
    # refused by the parser, before any record is read or written
    run = tmp_path / "run"
    for value in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", cfg_file, "--run-dir", str(run), "--repetitions", value])
        assert exc.value.code == 2
        assert "--repetitions: must be >= 1" in capsys.readouterr().err
    assert not run.exists()


def test_bad_config_is_categorised(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"fusion_mode\": \"cca\"}")
    rc = main(["generate-data", "--config", str(bad), "--run-dir", str(tmp_path / "r")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error[config]:")
    # a mistyped or out-of-range value is refused when the config loads,
    # before anything is written, with a message that names the field
    cases = [{"code_m": "6"}, {"far_targets": None}, {"seed": 1.5},
             {"nnd_snr_range_db": []}, {"nnd_batch_size": 0}, {"batch_size": 0},
             {"joint_batch_size": 0}, {"nnd_finetune_steps": -1}, {"joint_steps": -1},
             {"lr": 0}, {"nnd_step_size": -1e-3}, {"joint_step_size": 0},
             {"phase_c_lr_factor": 0}, {"w_cls": 0},
             {"joint_freeze_mdh": True, "joint_freeze_nnd": True},
             # data shapes the pipeline cannot use
             {"enroll_fraction": 1.5}, {"face_dim": 0}, {"fusion_dim": 0}, {"feature_dim": 0},
             {"encoder_hidden": [0]}, {"latent_dim": 0}, {"samples_per_subject": 1},
             # ceil(0.6 * 2) = 2: every sample enrolls, no probe is left
             {"samples_per_subject": 2, "enroll_fraction": 0.6},
             # no BCH code of these parameters
             {"code_t": 0}, {"code_t": 40}, {"code_m": 1}, {"code_m": 11}, {"code_m": -1},
             {"code_m": 10**10},
             {"seed": -1}, {"eps_loss": -1e-4},
             # non-finite floats, alone or in a tuple
             {"eps_loss": float("nan")}, {"gain_jitter": float("nan")},
             {"sigma_face": float("nan")}, {"bandwidths": [1, float("nan")]},
             {"nnd_snr_range_db": [float("nan")]}, {"offset_sigma": float("inf")},
             {"lr": float("inf")}, {"llr_scale": float("inf")},
             # finite, but the gain's range 2 * gain_jitter is not
             {"gain_jitter": 1e308}]
    for case in cases:
        bad.write_text(json.dumps({**tiny_config().to_dict(), **case}))
        rc = main(["run-all", "--config", str(bad), "--run-dir", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2, case
        assert err.startswith("error[config]:") and all(name in err for name in case), err
        assert not (tmp_path / "r").exists()
    # valid JSON that is not an object is refused by the type it is
    for blob, name in (([], "list"), (5, "int"), (None, "NoneType"), ("x", "str")):
        bad.write_text(json.dumps(blob))
        rc = main(["generate-data", "--config", str(bad), "--run-dir", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2, blob
        assert err.startswith("error[config]:") and f"not a {name!r} value" in err, err
        assert not (tmp_path / "r").exists()


def test_records_of_another_config_refused(tmp_path, capsys):
    """A checkpoint or a data set written under another config stops the stage
    that would read it, naming the file."""
    configs = {}
    for name, overrides in (("ours", {}), ("wider", {"fusion_dim": 24}),
                            ("noisier", {"sigma_face": 0.5})):
        configs[name] = str(tmp_path / f"{name}.json")
        tiny_config(**overrides).save(configs[name])

    def run(command, name, run_dir="ours"):
        return main([command, "--config", configs[name], "--run-dir", str(tmp_path / run_dir)])

    for name in ("ours", "wider"):
        assert run("generate-data", name, name) == 0 and run("train-mdh", name, name) == 0
    assert run("generate-data", "noisier", "noisier") == 0
    capsys.readouterr()

    shutil.copy(tmp_path / "wider" / "mdh.ckpt", tmp_path / "ours" / "mdh.ckpt")
    assert run("ground-truth", "ours") == 3
    err = capsys.readouterr().err
    assert err.startswith("error[pipeline]:") and str(tmp_path / "ours" / "mdh.ckpt") in err

    shutil.copy(tmp_path / "noisier" / "data.ckpt", tmp_path / "ours" / "data.ckpt")
    assert run("train-mdh", "ours") == 3
    err = capsys.readouterr().err
    assert err.startswith("error[pipeline]:")
    assert str(tmp_path / "ours" / "data.ckpt") in err


def test_deleted_record_names_the_command(tmp_path, cfg_file, capsys):
    # a stage has run when its record exists: with mdh.ckpt gone, the next
    # stage names the command that writes it
    run = str(tmp_path / "run")
    for command in ("generate-data", "train-mdh"):
        assert main([command, "--config", cfg_file, "--run-dir", run]) == 0
    os.remove(os.path.join(run, "mdh.ckpt"))
    capsys.readouterr()
    assert main(["ground-truth", "--config", cfg_file, "--run-dir", run]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[pipeline]:") and "run 'train-mdh' first" in err, err


def test_missing_pretrained_decoder_names_the_command(tmp_path, cfg_file, capsys):
    # nnd_pretrained.ckpt is no stage's record, so the refusal comes when the
    # nnd variant reads it, and it names the command that writes it
    run = tmp_path / "run"
    for command in ("generate-data", "train-mdh", "ground-truth", "train-nnd"):
        assert main([command, "--config", cfg_file, "--run-dir", str(run)]) == 0
    os.remove(run / "nnd_pretrained.ckpt")
    capsys.readouterr()
    assert main(["evaluate", "--config", cfg_file, "--run-dir", str(run),
                 "--variant", "nnd"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[pipeline]:") and "nnd_pretrained.ckpt" in err, err
    assert "run 'train-nnd' to rebuild it" in err, err


def test_new_data_starts_a_new_log(tmp_path, capsys):
    # run-all --overwrite under another seed in the same directory keeps only
    # the new run's log
    run = str(tmp_path / "run")
    for seed in (5, 6):
        path = tmp_path / f"seed{seed}.json"
        tiny_config(seed=seed).save(path)
        assert main(["run-all", "--config", str(path), "--run-dir", run, "--overwrite"]) == 0
    log = (tmp_path / "run" / "experiment.log").read_text().splitlines()
    assert sum(line.startswith("run_all completed") for line in log) == 1
    assert sum(line.startswith("llr_scale_sweep best=") for line in log) == 1


def test_leftover_state_file_is_ignored(tmp_path, cfg_file, capsys):
    # run directories once kept stage markers in state.json; one left empty
    # by a crash mid-write neither gates nor breaks a command
    run = tmp_path / "run"
    run.mkdir()
    (run / "state.json").write_text("")
    for command in (["generate-data"], ["generate-data", "--overwrite"], ["train-mdh"]):
        assert main([*command, "--config", cfg_file, "--run-dir", str(run)]) == 0, command
    assert (run / "state.json").read_text() == ""


def test_corrupt_checkpoint_is_refused(tmp_path, cfg_file, capsys):
    run = tmp_path / "run"
    for command in ("generate-data", "train-mdh"):
        assert main([command, "--config", cfg_file, "--run-dir", str(run)]) == 0
    ckpt = run / "mdh.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-40])
    capsys.readouterr()
    assert main(["ground-truth", "--config", cfg_file, "--run-dir", str(run)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[pipeline]:") and str(ckpt) in err, err


def test_ground_truth_of_another_config_refused(tmp_path, cfg_file, capsys):
    """ground_truth.ckpt names the fingerprint of its config; a table of
    another config, or one that names none, stops the stages that read it."""
    run = tmp_path / "run"
    for command in ("generate-data", "train-mdh", "ground-truth", "train-nnd"):
        assert main([command, "--config", cfg_file, "--run-dir", str(run)]) == 0
    gt = run / "ground_truth.ckpt"
    table, meta = GroundTruthTable.load(gt)
    assert meta == {"kind": "ground_truth", "n": 15, "fingerprint": tiny_config().fingerprint()}
    for meta in ({"fingerprint": tiny_config(seed=6).fingerprint()}, {}):
        table.save(gt, meta)
        for command in ("train-nnd", "joint-optimize"):
            capsys.readouterr()
            assert main([command, "--config", cfg_file, "--run-dir", str(run)]) == 3, command
            err = capsys.readouterr().err
            assert err.startswith("error[pipeline]:") and str(gt) in err, err


@pytest.fixture(scope="module")
def records_run(tmp_path_factory):
    """A run directory that holds the data, the hashing network, the ground
    truth and both decoders."""
    run = tmp_path_factory.mktemp("records")
    cfg = str(run / "cfg.json")
    tiny_config().save(cfg)
    for command in ("generate-data", "train-mdh", "ground-truth", "train-nnd"):
        assert main([command, "--config", cfg, "--run-dir", str(run / "run")]) == 0
    return cfg, run / "run"


_READERS = [
    ("ground_truth.ckpt", "train-nnd", "ground-truth"),
    ("data.ckpt", "train-nnd", "generate-data"),
    ("data.ckpt", "ground-truth", "generate-data"),
    ("mdh.ckpt", "evaluate --variant mdh", "train-mdh"),
    ("nnd_finetuned.ckpt", "joint-optimize", "train-nnd"),
]
# a record of the right kind that lacks one entry: a parameter, or a meta key
_MISSING = {"data.ckpt": "test/iris", "ground_truth.ckpt": "n", "mdh.ckpt": "beta"}
# a column cut short of the ones it runs beside
_SHORT = {"data.ckpt": "test/face", "ground_truth.ckpt": "support"}


def _damage(run, path, damage):
    """Spoil the record at ``path`` in the way ``damage`` names."""
    if damage == "flipped byte":
        flip_byte(path)
    elif damage == "another kind":
        shutil.copy(run / ("nnd_pretrained.ckpt" if path.name == "mdh.ckpt" else "mdh.ckpt"), path)
    elif damage == "the other decoder":
        pretrained = path.name == "nnd_pretrained.ckpt"
        shutil.copy(run / ("nnd_finetuned.ckpt" if pretrained else "nnd_pretrained.ckpt"), path)
    else:  # re-saved with its kind, its fingerprint and a valid checksum
        params, meta = load_params(path)
        if damage == "wrong shape":
            params["hash/w"] = params["hash/w"][:, :3]
        elif damage == "short column":
            params[_SHORT[path.name]] = params[_SHORT[path.name]][:-3]
        elif damage == "short label":
            params["label"] = params["label"][:-1]
        elif damage == "labeled and excluded":
            params["excluded"] = np.append(params["excluded"], params["labeled"][0])
        elif damage == "labeled id not a subject":
            params["labeled"] = np.append(params["labeled"][1:], params["subject"].max() + 1)
        elif _MISSING[path.name] in params:
            del params[_MISSING[path.name]]
        else:
            del meta[_MISSING[path.name]]
        save_params(path, params, meta)


@pytest.mark.parametrize("damage, record, command, writer", [
    *((damage, *reader) for damage in ("flipped byte", "another kind") for reader in _READERS),
    ("missing entry", "data.ckpt", "evaluate --variant mdh", "generate-data"),
    ("missing entry", "ground_truth.ckpt", "train-nnd", "ground-truth"),
    ("missing entry", "mdh.ckpt", "evaluate --variant mdh", "train-mdh"),
    ("the other decoder", "nnd_finetuned.ckpt", "joint-optimize", "train-nnd"),
    ("the other decoder", "nnd_pretrained.ckpt", "evaluate --variant nnd", "train-nnd"),
    ("wrong shape", "mdh.ckpt", "evaluate --variant mdh", "train-mdh"),
    ("short column", "data.ckpt", "evaluate --variant mdh", "generate-data"),
    ("short column", "ground_truth.ckpt", "train-nnd", "ground-truth"),
    ("short label", "ground_truth.ckpt", "train-nnd", "ground-truth"),
    ("labeled and excluded", "ground_truth.ckpt", "train-nnd", "ground-truth"),
    ("labeled id not a subject", "ground_truth.ckpt", "train-nnd", "ground-truth"),
])
def test_damaged_record_is_refused(records_run, capsys, damage, record, command, writer):
    """One flipped payload byte, a record of another kind in its place, one
    that lacks an entry, one whose parameters are not its kind's, or one
    whose columns disagree in length or on subjects is refused before a
    stage uses it, naming the file and the command that rewrites it."""
    cfg, run = records_run
    path = run / record
    clean = path.read_bytes()
    _damage(run, path, damage)
    capsys.readouterr()
    try:
        assert main([*command.split(), "--config", cfg, "--run-dir", str(run)]) == 3
    finally:
        path.write_bytes(clean)
    err = capsys.readouterr().err
    assert err.startswith("error[pipeline]:") and str(path) in err, err
    assert f"run '{writer}" in err, err
    reason = {"missing entry": f"no entry {_MISSING.get(record)!r}",
              "the other decoder": f"not a '{path.stem}' one",
              "wrong shape": f"not a '{path.stem}' record's",
              "short column": "disagree in length", "short label": "disagree in length",
              "labeled and excluded": "either labeled or excluded",
              "labeled id not a subject": "either labeled or excluded"}
    assert reason.get(damage, "") in err, err


def test_overwrite_flag_via_cli(tmp_path, cfg_file, capsys):
    run = str(tmp_path / "run")
    assert main(["generate-data", "--config", cfg_file, "--run-dir", run]) == 0
    data = (tmp_path / "run" / "data.ckpt").read_bytes()
    capsys.readouterr()
    assert main(["generate-data", "--config", cfg_file, "--run-dir", run]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[pipeline]:") and "data.ckpt already exists" in err, err
    assert (tmp_path / "run" / "data.ckpt").read_bytes() == data
    assert main(["generate-data", "--config", cfg_file, "--run-dir", run, "--overwrite"]) == 0
