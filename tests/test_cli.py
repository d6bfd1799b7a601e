"""End-to-end CLI runs in temporary directories: outputs, determinism, exit codes."""

import json

import numpy as np
import pytest

from evidkit.cli import main
from evidkit.enn import enn_init_random
from evidkit.mlp import mlp_init
from evidkit.model import EvidentialModel, params_to_dict


def run(argv):
    return main(argv)


@pytest.fixture()
def data_dir(tmp_path):
    d = tmp_path / "data"
    assert run(["gen-data", "--out-dir", str(d), "--n-train", "120", "--n-test", "200",
                "--seed", "5", "--ood", "--n-ood", "50"]) == 0
    return d


class TestGenData:
    def test_writes_expected_files(self, data_dir):
        assert (data_dir / "train.csv").exists()
        assert (data_dir / "test.csv").exists()
        assert (data_dir / "ood.csv").exists()
        header = (data_dir / "train.csv").read_text().splitlines()[0]
        assert header == "x1,x2,label"
        assert len((data_dir / "train.csv").read_text().splitlines()) == 121

    def test_rerun_is_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run(["gen-data", "--out-dir", str(d), "--n-train", "50",
                        "--n-test", "50", "--seed", "9"]) == 0
        assert (d1 / "train.csv").read_bytes() == (d2 / "train.csv").read_bytes()
        assert (d1 / "test.csv").read_bytes() == (d2 / "test.csv").read_bytes()

    def test_segmentation_tasks(self, tmp_path):
        d = tmp_path / "seg"
        assert run(["gen-data", "--out-dir", str(d), "--seg", "--n-tasks", "2",
                    "--width", "32", "--height", "32", "--n-blobs", "2", "--seed", "3"]) == 0
        assert (d / "task_000" / "mask.csv").exists()
        assert (d / "task_001" / "channel1.csv").exists()


class TestTrain:
    def test_kmeans_run_writes_outputs(self, data_dir, tmp_path):
        out = tmp_path / "run"
        assert run(["train", "--data", str(data_dir / "train.csv"), "--model", "enn",
                    "--init", "kmeans", "--I", "6", "--epochs", "20", "--lr", "0.1",
                    "--lambda", "1e-3", "--seed", "1", "--out-dir", str(out)]) == 0
        ckpt = json.loads((out / "checkpoint.json").read_text())
        assert ckpt["model"] == "enn"
        assert len(ckpt["layer"]["proto"]) == 6
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss,train_err,val_err,mean_ignorance"
        assert len(history) == 21

    def test_zero_epochs_initial_checkpoint(self, data_dir, tmp_path):
        out = tmp_path / "run0"
        assert run(["train", "--data", str(data_dir / "train.csv"), "--model", "rbf",
                    "--epochs", "0", "--out-dir", str(out), "--seed", "2"]) == 0
        ckpt = json.loads((out / "checkpoint.json").read_text())
        np.testing.assert_allclose(np.exp(ckpt["layer"]["log_gamma"]), 0.01, rtol=1e-12)
        assert (out / "history.csv").read_text().splitlines() == [
            "epoch,loss,train_err,val_err,mean_ignorance"
        ]

    def test_deterministic_checkpoints(self, data_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run(["train", "--data", str(data_dir / "train.csv"), "--model", "rbf",
                        "--epochs", "15", "--lr", "0.05", "--seed", "7",
                        "--out-dir", str(out)]) == 0
            outs.append((out / "checkpoint.json").read_bytes())
        assert outs[0] == outs[1]

    def test_feature_net_four_stage(self, data_dir, tmp_path):
        out = tmp_path / "staged"
        assert run(["train", "--data", str(data_dir / "train.csv"), "--model", "enn",
                    "--init", "kmeans", "--feature-net", "--H", "2", "--hidden", "8",
                    "--I", "4", "--epochs", "15", "--lr", "0.01",
                    "--out-dir", str(out), "--seed", "3"]) == 0
        ckpt = json.loads((out / "checkpoint.json").read_text())
        assert ckpt["feature_net"] is not None
        assert [np.shape(w) for w in ckpt["feature_net"]["weights"]] == [(2, 8), (8, 2)]

    def test_missing_data_is_io_error(self, tmp_path):
        assert run(["train", "--data", str(tmp_path / "absent.csv"),
                    "--out-dir", str(tmp_path)]) == 2


class TestSweep:
    def test_grid_rows_and_determinism(self, tmp_path):
        spec = {
            "models": ["enn", "rbf"],
            "lambdas": [1e-3, 1e-1],
            "seeds": [0, 1],
            "I": 4,
            "init": "kmeans",
            "epochs": 10,
            "lr": 0.1,
            "data": {"n_train": 80, "n_test": 100, "noise": 0.1, "seed": 11},
        }
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run(["sweep", "--spec", str(spec_path), "--out-dir", str(out1)]) == 0
        assert run(["sweep", "--spec", str(spec_path), "--out-dir", str(out2),
                    "--workers", "2"]) == 0
        rows1 = (out1 / "sweep.csv").read_text().splitlines()
        assert rows1[0] == "model,lambda,seed,test_error,mean_ignorance"
        assert len(rows1) == 9  # 2 models x 2 lambdas x 2 seeds
        # a 2-worker pool merges in grid order and matches the serial run
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


class TestEvalAndContours:
    @pytest.fixture()
    def trained(self, data_dir, tmp_path):
        out = tmp_path / "model"
        assert run(["train", "--data", str(data_dir / "train.csv"), "--model", "enn",
                    "--init", "kmeans", "--I", "6", "--epochs", "40", "--lr", "0.2",
                    "--lambda", "1e-3", "--seed", "1", "--out-dir", str(out)]) == 0
        return out / "checkpoint.json"

    def test_eval_report(self, data_dir, trained, tmp_path):
        out = tmp_path / "eval"
        assert run(["eval", "--checkpoint", str(trained), "--data",
                    str(data_dir / "test.csv"), "--out-dir", str(out)]) == 0
        header, values = (out / "report.csv").read_text().splitlines()
        assert header == "ece,error,mean_ignorance,n"
        report = dict(zip(header.split(","), [float(v) for v in values.split(",")]))
        assert 0 <= report["error"] <= 1
        assert 0 <= report["ece"] <= 1

    def test_ood_ignorance_exceeds_test(self, data_dir, trained, tmp_path):
        reports = {}
        for name in ("test", "ood"):
            out = tmp_path / f"eval_{name}"
            assert run(["eval", "--checkpoint", str(trained), "--data",
                        str(data_dir / f"{name}.csv"), "--out-dir", str(out)]) == 0
            header, values = (out / "report.csv").read_text().splitlines()
            reports[name] = dict(zip(header.split(","), [float(v) for v in values.split(",")]))
        assert reports["ood"]["mean_ignorance"] > reports["test"]["mean_ignorance"]

    def test_contours_grid(self, trained, tmp_path):
        out = tmp_path / "grid"
        assert run(["contours", "--checkpoint", str(trained), "--resolution", "20",
                    "--out-dir", str(out)]) == 0
        rows = (out / "contours.csv").read_text().splitlines()
        assert rows[0] == "x,y,m1,m2,mOmega"
        assert len(rows) == 401
        masses = np.array([[float(v) for v in r.split(",")[2:]] for r in rows[1:]])
        np.testing.assert_allclose(masses.sum(axis=1), 1.0, atol=1e-10)

    def test_eval_segmentation(self, tmp_path):
        seg_dir = tmp_path / "segdata"
        assert run(["gen-data", "--out-dir", str(seg_dir), "--seg", "--n-tasks", "2",
                    "--width", "32", "--height", "32", "--n-blobs", "2", "--seed", "8"]) == 0
        out = tmp_path / "segrun"
        assert run(["train", "--seg", "--data", str(seg_dir / "task_000"),
                    "--model", "rbf", "--init", "random", "--feature-net", "--H", "2",
                    "--I", "4", "--epochs", "60", "--lr", "0.01", "--loss", "dice",
                    "--out-dir", str(out), "--seed", "4"]) == 0
        ev = tmp_path / "segeval"
        assert run(["eval", "--seg", "--checkpoint", str(out / "checkpoint.json"),
                    "--data", str(seg_dir / "task_001"), "--out-dir", str(ev)]) == 0
        header, values = (ev / "report.csv").read_text().splitlines()
        report = dict(zip(header.split(","), [float(v) for v in values.split(",")]))
        assert "dice" in report and 0 <= report["dice"] <= 1


def read_contour_rows(path):
    rows = path.read_text().splitlines()
    return rows[0], [[float(v) for v in r.split(",")] for r in rows[1:]]


def test_contour_rows_are_plain_numbers(tmp_path):
    ckpt = tmp_path / "checkpoint.json"
    EvidentialModel("enn", enn_init_random(3, 2, 2, seed=0)).save(ckpt)
    assert run(["contours", "--checkpoint", str(ckpt), "--resolution", "5",
                "--out-dir", str(tmp_path)]) == 0
    header, rows = read_contour_rows(tmp_path / "contours.csv")
    assert header == "x,y,m1,m2,mOmega"
    assert len(rows) == 25 and all(len(r) == 5 for r in rows)
    assert rows[0][:2] == [-2.0, -1.5] and rows[-1][:2] == [3.0, 2.0]


# --------------------------------------------------------------------------
# bad input files: rc 1 and an error_category=MalformedInput line, no traceback
# --------------------------------------------------------------------------

BAD_CSV = {
    "empty": "",
    "short-row": "x1,x2,label\n0.1,0.2,0\n0.3,1\n",
    "non-numeric": "x1,x2,label\n0.1,0.2,0\n0.3,abc,1\n",
    "nan-feature": "x1,x2,label\n0.1,0.2,0\n0.3,nan,1\n",
}
BAD_GRID = {
    "empty": "",
    "short-row": "0.1,0.2\n0.3\n",
    "non-numeric": "0.1,0.2\n0.3,abc\n",
}


def write_seg_task(directory, channel1):
    directory.mkdir()
    (directory / "channel1.csv").write_text(channel1)
    (directory / "channel2.csv").write_text("0.5,0.5\n0.5,0.5\n")
    (directory / "mask.csv").write_text("0,1\n1,0\n")
    return directory


def assert_category(argv, category, capsys):
    assert run(argv) == 1
    assert f"error_category={category}" in capsys.readouterr().err


def assert_malformed(argv, capsys):
    assert_category(argv, "MalformedInput", capsys)


@pytest.fixture()
def checkpoint(tmp_path):
    path = tmp_path / "checkpoint.json"
    EvidentialModel("enn", enn_init_random(3, 2, 2, seed=0)).save(path)
    return path


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("bad", list(BAD_CSV))
def test_malformed_csv(command, bad, checkpoint, tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text(BAD_CSV[bad])
    extra = ["--checkpoint", str(checkpoint)] if command == "eval" else ["--epochs", "1"]
    assert_malformed([command, "--data", str(data), "--out-dir", str(tmp_path / "out"), *extra], capsys)


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("bad", list(BAD_GRID))
def test_malformed_segmentation_task(command, bad, checkpoint, tmp_path, capsys):
    task = write_seg_task(tmp_path / "task", BAD_GRID[bad])
    extra = ["--checkpoint", str(checkpoint)] if command == "eval" else ["--epochs", "1"]
    assert_malformed([command, "--seg", "--data", str(task), "--out-dir", str(tmp_path / "out"), *extra],
                     capsys)


def test_malformed_validation_csv(data_dir, tmp_path, capsys):
    val = tmp_path / "val.csv"
    val.write_text(BAD_CSV["short-row"])
    assert_malformed(["train", "--data", str(data_dir / "train.csv"), "--val", str(val),
                      "--epochs", "1", "--out-dir", str(tmp_path / "out")], capsys)


def test_four_stage_init_on_one_class_data(tmp_path):
    # the class count is at least 2 on every construction path, as for random init
    data = tmp_path / "one_class.csv"
    rows = [f"{0.1 * i},{0.05 * i * i},0" for i in range(20)]
    data.write_text("x1,x2,label\n" + "\n".join(rows) + "\n")
    assert run(["train", "--data", str(data), "--model", "enn", "--feature-net", "--init", "kmeans",
                "--I", "3", "--epochs", "3", "--out-dir", str(tmp_path / "out")]) == 0
    ckpt = json.loads((tmp_path / "out" / "checkpoint.json").read_text())
    assert np.shape(ckpt["layer"]["u_logit"])[1] == 2


# --------------------------------------------------------------------------
# bad checkpoints: rc 1 and error_category=MalformedInput from eval and contours
# --------------------------------------------------------------------------

def mutated_checkpoint(mutate):
    data = EvidentialModel("enn", enn_init_random(3, 2, 2, seed=0)).to_dict()
    mutate(data)
    return json.dumps(data)


BAD_CHECKPOINT = {
    "empty": "",
    "not-json": '{"format": 2, "model": ',
    "missing-key": mutated_checkpoint(lambda d: d["layer"].pop("alpha_raw")),
    "ragged-array": mutated_checkpoint(lambda d: d["layer"]["proto"][1].pop()),
    "short-array": mutated_checkpoint(lambda d: d["layer"]["log_gamma"].pop()),
    "nan-parameter": mutated_checkpoint(lambda d: d["layer"]["u_logit"][0].__setitem__(1, float("nan"))),
    "unknown-model": mutated_checkpoint(lambda d: d.update(model="svm")),
    # a feature net of width 3 over a layer with 2-d prototypes
    "feature-net-width": mutated_checkpoint(
        lambda d: d.update(feature_net=params_to_dict(mlp_init([2, 4, 3], seed=0)))),
    # the constrained-value layout that carried no format number
    "old-format": json.dumps({"model": "enn", "feature_net": None, "layer": {
        "kind": "enn", "I": 1, "H": 2, "K": 2, "proto": [0.0, 0.0], "alpha": [0.5], "gamma": [0.01],
        "u": [0.5, 0.5]}}),
}


@pytest.mark.parametrize("command", ["eval", "contours"])
@pytest.mark.parametrize("bad", list(BAD_CHECKPOINT))
def test_malformed_checkpoint(command, bad, tmp_path, capsys):
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(BAD_CHECKPOINT[bad])
    data = tmp_path / "data.csv"
    data.write_text("x1,x2,label\n0.1,0.2,0\n0.3,0.4,1\n")
    extra = ["--data", str(data)] if command == "eval" else ["--resolution", "3"]
    assert_malformed([command, "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "out"), *extra], capsys)


# --------------------------------------------------------------------------
# labels outside the layer's classes
# --------------------------------------------------------------------------

def labeled_csv(path, labels):
    rows = [f"{0.3 * i},{(-1) ** i * 0.2},{label}" for i, label in enumerate(labels)]
    path.write_text("x1,x2,label\n" + "\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("init", ["kmeans", "random"])
def test_negative_label(init, tmp_path, capsys):
    data = labeled_csv(tmp_path / "neg.csv", [0, 1, -1, 0])
    assert_malformed(["train", "--data", str(data), "--init", init, "--I", "2", "--epochs", "1",
                      "--out-dir", str(tmp_path / "out")], capsys)


def test_rbf_rejects_more_than_two_classes(tmp_path, capsys):
    data = labeled_csv(tmp_path / "three.csv", [0, 1, 2, 0, 1, 2])
    assert run(["train", "--data", str(data), "--model", "rbf", "--I", "2", "--epochs", "1",
                "--out-dir", str(tmp_path / "out")]) == 1
    assert "error_category=OutOfRange" in capsys.readouterr().err


def test_validation_labels_outside_the_classes(data_dir, tmp_path, capsys):
    assert run(["train", "--data", str(data_dir / "train.csv"), "--val", str(data_dir / "ood.csv"),
                "--I", "2", "--epochs", "1", "--out-dir", str(tmp_path / "out")]) == 1
    assert "error_category=OutOfRange" in capsys.readouterr().err


# --------------------------------------------------------------------------
# numeric flags out of range, bad sweep specs and surplus --data paths
# --------------------------------------------------------------------------

@pytest.mark.parametrize("resolution", ["0", "-1"])
def test_contours_resolution_below_one(resolution, checkpoint, tmp_path, capsys):
    assert_category(["contours", "--checkpoint", str(checkpoint), "--resolution", resolution,
                     "--out-dir", str(tmp_path / "out")], "OutOfRange", capsys)


def test_eval_zero_ece_bins(data_dir, checkpoint, tmp_path, capsys):
    assert_category(["eval", "--checkpoint", str(checkpoint), "--data", str(data_dir / "test.csv"),
                     "--ece-bins", "0", "--out-dir", str(tmp_path / "out")], "OutOfRange", capsys)


@pytest.mark.parametrize("noise", ["-0.5", "nan"])
def test_gen_data_noise_below_zero_or_nan(noise, tmp_path, capsys):
    assert_category(["gen-data", "--noise", noise, "--out-dir", str(tmp_path / "out")], "OutOfRange", capsys)


def test_gen_data_negative_blob_count(tmp_path, capsys):
    assert_category(["gen-data", "--seg", "--n-blobs", "-2", "--width", "16", "--height", "16",
                     "--out-dir", str(tmp_path / "out")], "OutOfRange", capsys)


BAD_SPEC = {
    "not-json": "models: [enn]",
    "not-an-object": "[1, 2]",
    "no-models": json.dumps({"lambdas": [0.0], "seeds": [0]}),
    "lambdas-not-a-list": json.dumps({"models": ["enn"], "lambdas": 0.1, "seeds": [0]}),
    "no-seeds": json.dumps({"models": ["enn"], "lambdas": [0.0]}),
}


@pytest.mark.parametrize("bad", list(BAD_SPEC))
def test_malformed_sweep_spec(bad, tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(BAD_SPEC[bad])
    assert_malformed(["sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "out")], capsys)


def test_eval_refuses_a_second_data_path(data_dir, checkpoint, tmp_path, capsys):
    assert_category(["eval", "--checkpoint", str(checkpoint), "--data", str(data_dir / "test.csv"),
                     str(data_dir / "ood.csv"), "--out-dir", str(tmp_path / "out")], "OutOfRange", capsys)
    assert not (tmp_path / "out" / "report.csv").exists()


def test_train_refuses_a_second_data_path(data_dir, tmp_path, capsys):
    assert_category(["train", "--data", str(data_dir / "train.csv"), str(data_dir / "test.csv"),
                     "--epochs", "1", "--out-dir", str(tmp_path / "out")], "OutOfRange", capsys)
    assert not (tmp_path / "out" / "checkpoint.json").exists()
