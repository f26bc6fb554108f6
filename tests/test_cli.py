import json
import os
import shutil

import pytest

from hashdec.cli import main
from hashdec.config import ExperimentConfig

from test_pipeline import tiny_config


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
    assert main(["evaluate", "--config", cfg_file, "--run-dir", run,
                 "--mode", "auth", "--variant", "mdhnd"]) == 0
    out = capsys.readouterr().out
    assert "eer" in out
    assert main(["bench", "--config", cfg_file, "--run-dir", run,
                 "--repetitions", "10"]) == 0


def test_stage_gating_error_is_categorised(tmp_path, cfg_file, capsys):
    # every command that needs the data names generate-data before it reads anything
    run = str(tmp_path / "run")
    for command in (["train-mdh"], ["evaluate", "--mode", "auth", "--variant", "mdh"], ["bench"]):
        rc = main([*command, "--config", cfg_file, "--run-dir", run])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error[pipeline]:")
        assert "run 'generate-data' first" in err, err


def test_missing_checkpoint_names_prerequisite(tmp_path, cfg_file, capsys):
    run = str(tmp_path / "run")
    main(["generate-data", "--config", cfg_file, "--run-dir", run])
    main(["train-mdh", "--config", cfg_file, "--run-dir", run])
    rc = main(["evaluate", "--config", cfg_file, "--run-dir", run,
               "--mode", "auth", "--variant", "nnd"])
    assert rc == 3
    # names the first missing prerequisite command in stage order
    assert "ground-truth" in capsys.readouterr().err


def test_unknown_variant_is_usage_error(cfg_file):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--config", cfg_file, "--run-dir", "/tmp/x",
              "--mode", "auth", "--variant", "turbo"])
    assert exc.value.code == 2


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
             {"encoder_hidden": [0]}, {"latent_dim": 0}, {"samples_per_subject": 1}]
    for case in cases:
        bad.write_text(json.dumps({**tiny_config().to_dict(), **case}))
        rc = main(["run-all", "--config", str(bad), "--run-dir", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2, case
        assert err.startswith("error[config]:") and all(name in err for name in case), err
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

    for name in ("data_train.txt", "data_nnd.txt", "data_test.txt", "data_manifest.json"):
        shutil.copy(tmp_path / "noisier" / name, tmp_path / "ours" / name)
    assert run("train-mdh", "ours") == 3
    err = capsys.readouterr().err
    assert err.startswith("error[pipeline]:")
    assert str(tmp_path / "ours" / "data_manifest.json") in err


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
    """ground_truth.txt ends with the fingerprint of its config; a table of
    another config, or one without the line, stops the stages that read it."""
    run = tmp_path / "run"
    for command in ("generate-data", "train-mdh", "ground-truth", "train-nnd"):
        assert main([command, "--config", cfg_file, "--run-dir", str(run)]) == 0
    gt = run / "ground_truth.txt"
    lines = gt.read_text().splitlines()
    assert lines[-1] == f"fingerprint {tiny_config().fingerprint()}"
    for tail in ([f"fingerprint {tiny_config(seed=6).fingerprint()}"], []):
        gt.write_text("\n".join(lines[:-1] + tail) + "\n")
        for command in ("train-nnd", "joint-optimize"):
            capsys.readouterr()
            assert main([command, "--config", cfg_file, "--run-dir", str(run)]) == 3, command
            err = capsys.readouterr().err
            assert err.startswith("error[pipeline]:") and str(gt) in err, err


def test_overwrite_flag_via_cli(tmp_path, cfg_file, capsys):
    run = str(tmp_path / "run")
    assert main(["generate-data", "--config", cfg_file, "--run-dir", run]) == 0
    assert main(["generate-data", "--config", cfg_file, "--run-dir", run]) == 3
    assert main(["generate-data", "--config", cfg_file, "--run-dir", run, "--overwrite"]) == 0
