import json
import os

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
    blob = json.load(open(out))
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
    run = str(tmp_path / "run")
    rc = main(["train-mdh", "--config", cfg_file, "--run-dir", run])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error[pipeline]:")
    assert "generate-data" in err


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
             {"joint_freeze_mdh": True, "joint_freeze_nnd": True}]
    for case in cases:
        bad.write_text(json.dumps({**tiny_config().to_dict(), **case}))
        rc = main(["run-all", "--config", str(bad), "--run-dir", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2, case
        assert err.startswith("error[config]:") and all(name in err for name in case), err
        assert not (tmp_path / "r").exists()


def test_overwrite_flag_via_cli(tmp_path, cfg_file, capsys):
    run = str(tmp_path / "run")
    assert main(["generate-data", "--config", cfg_file, "--run-dir", run]) == 0
    assert main(["generate-data", "--config", cfg_file, "--run-dir", run]) == 3
    assert main(["generate-data", "--config", cfg_file, "--run-dir", run, "--overwrite"]) == 0
