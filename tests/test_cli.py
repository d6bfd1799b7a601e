"""End-to-end CLI runs in temporary directories: outputs, determinism, exit codes."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from helpers import traced_peak

from evidkit import cli
from evidkit.cli import WRITE_CHUNK_LINES, _write_lines, build_parser, main
from evidkit.datasets import LabeledSet, ToySegTask, load_seg_task, save_labeled, save_seg_task, seg_task_as_samples
from evidkit.enn import enn_init_random
from evidkit.metrics import ContourGrid, seg_scores
from evidkit.mlp import mlp_init
from evidkit.model import EvidentialModel, params_to_dict
from evidkit.training import EpochRecord, TrainHistory


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

    def test_staged_run_writes_every_stage_history(self, data_dir, tmp_path):
        train = ["train", "--data", str(data_dir / "train.csv"), "--val", str(data_dir / "test.csv"),
                 "--feature-net", "--I", "4", "--epochs", "7", "--seed", "3"]
        for init in ("kmeans", "random"):
            assert run([*train, "--init", init, "--out-dir", str(tmp_path / init)]) == 0
        header = "epoch,loss,train_err,val_err,mean_ignorance"
        for stage in ("history", "history_pretrain", "history_layer"):
            rows = (tmp_path / "kmeans" / f"{stage}.csv").read_text().splitlines()
            assert rows[0] == header and len(rows) == 8, stage
        # pretraining scores the validation set, and its head puts no mass on
        # the frame; the layer stage has both
        pretrain = [row.split(",") for row in (tmp_path / "kmeans" / "history_pretrain.csv").read_text().splitlines()[1:]]
        assert all(0 <= float(val_err) <= 1 and ignorance == "0.0" for *_, val_err, ignorance in pretrain)
        assert ",nan" not in (tmp_path / "kmeans" / "history_layer.csv").read_text()
        assert sorted(p.name for p in (tmp_path / "random").iterdir()) == ["checkpoint.json", "history.csv"]

    def test_the_pretraining_head_is_no_model_choice(self, data_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", str(data_dir / "train.csv"), "--model", "head", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2 and "invalid choice: 'head'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("kind", ["enn", "rbf"])
    def test_a_sweep_row_is_gen_data_train_and_eval(self, kind, tmp_path):
        spec = {"models": [kind], "lambdas": [1e-3], "seeds": [2], "I": 4, "init": "kmeans",
                "epochs": 20, "lr": 0.1, "data": {"n_train": 120, "n_test": 200, "noise": 0.1, "seed": 11}}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        assert run(["sweep", "--spec", str(spec_path), "--out-dir", str(tmp_path / "sweep")]) == 0
        row = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1].split(",")

        data, model, report = tmp_path / "data", tmp_path / "model", tmp_path / "eval"
        assert run(["gen-data", "--out-dir", str(data), "--n-train", "120", "--n-test", "200",
                    "--noise", "0.1", "--seed", "11"]) == 0
        assert run(["train", "--data", str(data / "train.csv"), "--model", kind, "--init", "kmeans",
                    "--I", "4", "--epochs", "20", "--lr", "0.1", "--lambda", "1e-3", "--seed", "2",
                    "--out-dir", str(model)]) == 0
        assert run(["eval", "--checkpoint", str(model / "checkpoint.json"),
                    "--data", str(data / "test.csv"), "--out-dir", str(report)]) == 0
        header, values = (report / "report.csv").read_text().splitlines()
        evaluated = dict(zip(header.split(","), values.split(",")))
        assert row[3:] == [evaluated["error"], evaluated["mean_ignorance"]]


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
        # the mask is the model's `decide` classes, as `predict` returns them
        task = load_seg_task(seg_dir / "task_001")
        model = EvidentialModel.load(out / "checkpoint.json")
        scores = seg_scores(model.predict(seg_task_as_samples(task)[0]).reshape(task.mask.shape), task.mask)
        assert [report[k] for k in ("dice", "sensitivity", "precision")] == [
            scores.dice, scores.sensitivity, scores.precision]
        assert header.split(",") == ["dice", "ece", "error", "mean_ignorance", "n", "precision", "sensitivity"]
        assert 0 <= report["error"] <= 1

    def test_eval_segmentation_refuses_a_model_of_more_than_two_classes(self, tmp_path, capsys):
        save_seg_task(tmp_path / "task", ToySegTask(np.zeros((16, 16, 2)), np.eye(16, dtype=int)))
        EvidentialModel("enn", enn_init_random(3, 2, 3, seed=0)).save(tmp_path / "checkpoint.json")
        assert run(["eval", "--seg", "--checkpoint", str(tmp_path / "checkpoint.json"), "--data", str(tmp_path / "task"),
                    "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error_category=OutOfRange: " in err and "3 classes" in err
        assert not (tmp_path / "out").exists()

    def test_eval_segmentation_of_an_empty_mask_scores_nan_in_the_box(self, tmp_path):
        save_seg_task(tmp_path / "task", ToySegTask(np.zeros((8, 8, 2)), np.zeros((8, 8), dtype=int)))
        EvidentialModel("enn", enn_init_random(3, 2, 2, seed=0)).save(tmp_path / "checkpoint.json")
        assert run(["eval", "--seg", "--checkpoint", str(tmp_path / "checkpoint.json"), "--data", str(tmp_path / "task"),
                    "--out-dir", str(tmp_path / "out")]) == 0
        header, values = (tmp_path / "out" / "report.csv").read_text().splitlines()
        report = dict(zip(header.split(","), [float(v) for v in values.split(",")]))
        assert np.isnan(report["error"]) and np.isnan(report["ece"]) and report["n"] == 64

    def test_eval_segmentation_ece_of_a_perfect_segmenter_is_zero(self, tmp_path, monkeypatch):
        # fully confident and always right, on a diagonal mask: its bounding box
        # is 10% foreground, and every pixel is right at confidence 1
        mask = np.eye(10, dtype=int)
        save_seg_task(tmp_path / "task", ToySegTask(np.zeros((10, 10, 2)), mask))
        truth = mask.ravel().astype(float)

        class PerfectModel:
            n_classes = 2
            load = staticmethod(lambda path: PerfectModel())
            masses = staticmethod(lambda x: np.column_stack([1.0 - truth, truth, np.zeros_like(truth)]))

        monkeypatch.setattr(cli, "EvidentialModel", PerfectModel)
        assert run(["eval", "--seg", "--checkpoint", str(tmp_path / "unused.json"), "--data", str(tmp_path / "task"),
                    "--out-dir", str(tmp_path / "out")]) == 0
        header, values = (tmp_path / "out" / "report.csv").read_text().splitlines()
        report = dict(zip(header.split(","), [float(v) for v in values.split(",")]))
        assert report["dice"] == 1.0 and report["ece"] == 0.0


def readme_commands():
    """Every `evidkit ...` command in README's sh blocks, with `\\` continuations
    joined and heredoc bodies skipped, as argv lists."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.S | re.M):
        block = re.sub(r"<<'(\w+)'\n.*?^\1$", "", block, flags=re.S | re.M).replace("\\\n", " ")
        commands += [shlex.split(line) for line in block.splitlines() if line.startswith("evidkit ")]
    return commands


def test_readme_shows_every_command():
    assert {argv[1] for argv in readme_commands()} == {name[4:].replace("_", "-") for name in dir(cli)
                                                       if name.startswith("cmd_")}


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: " ".join(argv[1:3]))
def test_readme_commands_parse(argv):
    # parsed, not run: a flag renamed or dropped in the CLI but not in README fails here
    assert build_parser().parse_args(argv[1:]).command == argv[1]


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


def test_contours_at_the_readme_resolution_hold_under_twice_the_file(checkpoint, tmp_path):
    argv = ["contours", "--checkpoint", str(checkpoint), "--resolution", "200", "--out-dir", str(tmp_path)]
    rc, peak = traced_peak(run, argv)
    assert rc == 0
    size = (tmp_path / "contours.csv").stat().st_size
    assert size > 3_000_000 and peak < 2 * size


PARENT_TRAIN_SEG_PEAK = 1_631_560  # bytes, when each training step allocated all its arrays afresh


def test_train_seg_peaks_no_higher_than_with_fresh_arrays(tmp_path):
    seg = tmp_path / "seg"
    assert run(["gen-data", "--out-dir", str(seg), "--seg", "--n-tasks", "2", "--width", "32", "--height", "32",
                "--n-blobs", "3", "--seed", "0"]) == 0
    argv = ["train", "--seg", "--data", str(seg / "task_000"), str(seg / "task_001"), "--model", "enn",
            "--init", "random", "--feature-net", "--loss", "dice", "--epochs", "4", "--lr", "1e-2", "--seed", "2",
            "--out-dir", str(tmp_path / "run")]
    assert run(argv) == 0  # imports and first-use set-up are not the command's
    rc, peak = traced_peak(run, argv)
    assert rc == 0 and peak <= PARENT_TRAIN_SEG_PEAK


def test_every_csv_field_is_a_plain_number(tmp_path):
    # each command at a small size; every field below a header must read back with float()
    data, seg = tmp_path / "data", tmp_path / "seg"
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"models": ["enn", "rbf"], "lambdas": [1e-3], "seeds": [0], "I": 3, "epochs": 3,
                                "data": {"n_train": 40, "n_test": 30, "noise": 0.1, "seed": 1}}))
    train = ["train", "--epochs", "3", "--I", "3", "--seed", "1"]
    moons = ["--data", str(data / "train.csv"), "--val", str(data / "test.csv")]
    for argv in (
        ["gen-data", "--out-dir", str(data), "--n-train", "40", "--n-test", "30", "--ood", "--n-ood", "10"],
        ["gen-data", "--out-dir", str(seg), "--seg", "--n-tasks", "2", "--width", "16", "--height", "16",
         "--n-blobs", "1"],
        [*train, *moons, "--out-dir", str(tmp_path / "moons")],
        [*train, *moons, "--feature-net", "--hidden", "4", "--init", "kmeans", "--out-dir", str(tmp_path / "staged")],
        [*train, "--seg", "--data", str(seg / "task_000"), "--init", "random", "--out-dir", str(tmp_path / "seg-run")],
        ["eval", "--checkpoint", str(tmp_path / "moons" / "checkpoint.json"), "--data", str(data / "ood.csv"),
         "--out-dir", str(tmp_path / "eval")],
        ["eval", "--seg", "--checkpoint", str(tmp_path / "seg-run" / "checkpoint.json"),
         "--data", str(seg / "task_001"), "--out-dir", str(tmp_path / "eval-seg")],
        ["contours", "--checkpoint", str(tmp_path / "staged" / "checkpoint.json"), "--resolution", "4",
         "--out-dir", str(tmp_path / "contours")],
        ["sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "sweep")],
    ):
        assert run(argv) == 0, argv[0]
    written = sorted(tmp_path.rglob("*.csv"))
    assert {p.name for p in written} >= {"history.csv", "history_pretrain.csv", "history_layer.csv", "report.csv",
                                         "contours.csv", "sweep.csv", "train.csv", "mask.csv"}
    for path in written:
        lines = path.read_text().splitlines()
        if not path.parent.name.startswith("task_"):  # task grids have no header
            lines = lines[1:]
        for line in lines:
            fields = line.split(",")[path.name == "sweep.csv":]  # a sweep row starts with the model name
            for field in fields:
                float(field)  # ValueError names the field and fails the test


@pytest.mark.parametrize("argv", [["gen-data"], ["gen-data", "--seg", "--width", "16", "--height", "16"],
                                  ["train", "--init", "kmeans"], ["train", "--init", "random"]],
                         ids=["gen-data", "gen-data-seg", "train-kmeans", "train-random"])
def test_negative_seed(argv, data_dir, tmp_path, capsys):
    data = ["--data", str(data_dir / "train.csv"), "--epochs", "1"] if argv[0] == "train" else []
    out = tmp_path / "out"
    assert_category([*argv, *data, "--seed", "-1", "--out-dir", str(out)], "OutOfRange", capsys)
    assert not out.exists()


@pytest.mark.parametrize("n_lines", [1, WRITE_CHUNK_LINES - 1, WRITE_CHUNK_LINES, 2 * WRITE_CHUNK_LINES + 1])
def test_lines_written_in_chunks_are_the_joined_text(n_lines, tmp_path):
    lines = [f"{i},{i / 7!r}" for i in range(n_lines)]
    _write_lines(tmp_path / "out" / "lines.csv", iter(lines))
    assert (tmp_path / "out" / "lines.csv").read_text() == "\n".join(lines) + "\n"


def test_file_formats_byte_for_byte(tmp_path):
    # datasets: shortest-repr floats, CRLF; grids: %.17g / %d, LF; contours and history: shortest repr
    save_labeled(tmp_path / "a.csv", LabeledSet(np.array([[1e-05, -0.0], [1e+16, 5e-324], [0.1, 2.0]]),
                                                np.array([0, 1, 2])))
    assert (tmp_path / "a.csv").read_bytes() == (
        b"x1,x2,label\r\n1e-05,-0.0,0\r\n1e+16,5e-324,1\r\n0.1,2.0,2\r\n")

    image = np.stack([[[0.1, 1 / 3, -0.0], [1e+16, 5e-324, 2.0]],
                      [[1e-05, 0.5, 1.0], [-2.5, 7.0, 1e300]]], axis=-1)
    save_seg_task(tmp_path / "task", ToySegTask(image, np.array([[0, 1, 1], [1, 0, 0]])))
    assert (tmp_path / "task" / "channel1.csv").read_bytes() == (
        b"0.10000000000000001,0.33333333333333331,-0\n10000000000000000,4.9406564584124654e-324,2\n")
    assert (tmp_path / "task" / "channel2.csv").read_bytes() == (
        b"1.0000000000000001e-05,0.5,1\n-2.5,7,1.0000000000000001e+300\n")
    assert (tmp_path / "task" / "mask.csv").read_bytes() == b"0,1,1\n1,0,0\n"

    masses = np.array([[[0.0, 5e-324, 1.0], [0.25, 0.5, 0.25]], [[1 / 3, 0.0, 2 / 3], [5e-324, 0.0, 1.0]]])
    grid = ContourGrid(np.array([-2.0, 0.1]), np.array([1e-05, 3.0]), masses)
    assert list(grid.csv_rows()) == [
        "x,y,m1,m2,mOmega",
        "-2.0,1e-05,0.0,5e-324,1.0",
        "0.1,1e-05,0.25,0.5,0.25",
        "-2.0,3.0,0.3333333333333333,0.0,0.6666666666666666",
        "0.1,3.0,5e-324,0.0,1.0",
    ]
    history = TrainHistory([EpochRecord(0, 0.6931471805599453, 0.5, float("nan"), 1.0),
                            EpochRecord(1, 1e-05, 0.0, 0.25, 5e-324)])
    assert list(history.csv_rows()) == [
        "epoch,loss,train_err,val_err,mean_ignorance",
        "0,0.6931471805599453,0.5,nan,1.0",
        "1,1e-05,0.0,0.25,5e-324",
    ]


def test_one_parser_serves_every_call(data_dir, tmp_path):
    assert build_parser() is build_parser()
    train = ["train", "--data", str(data_dir / "train.csv"), "--epochs", "3", "--seed", "2"]
    assert run([*train, "--val", str(data_dir / "test.csv"), "--out-dir", str(tmp_path / "val")]) == 0
    assert run([*train, "--out-dir", str(tmp_path / "after")]) == 0
    build_parser.cache_clear()  # the same command on a parser that never saw --val
    assert run([*train, "--out-dir", str(tmp_path / "first")]) == 0
    after, first = ((tmp_path / d / "history.csv").read_bytes() for d in ("after", "first"))
    assert after == first and b",nan," in after


# --------------------------------------------------------------------------
# bad input files: rc 1 and an error_category=MalformedInput line, no traceback
# --------------------------------------------------------------------------

BAD_CSV = {
    "empty": b"",
    "short-row": b"x1,x2,label\n0.1,0.2,0\n0.3,1\n",
    "non-numeric": b"x1,x2,label\n0.1,0.2,0\n0.3,abc,1\n",
    "nan-feature": b"x1,x2,label\n0.1,0.2,0\n0.3,nan,1\n",
    "not-utf8": b"x1,x2,label\n0.1,0.2,0\n0.3,\xff,1\n",
    "oversized-field": b"x1,x2,label\n0.1,0.2,0\n" + b"1" * 131073 + b",0.2,1\n",  # csv's limit is 131072
    "no-header": b"0.1,0.2,0\n0.3,0.4,1\n0.5,0.6,1\n",  # the first row is data, not a header
    "label-overflow": b"x1,x2,label\n0.1,0.2,0\n0.3,0.4,9223372036854775808\n",  # 2**63, past int64
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
    data.write_bytes(BAD_CSV[bad])
    extra = ["--checkpoint", str(checkpoint)] if command == "eval" else ["--epochs", "1"]
    assert_malformed([command, "--data", str(data), "--out-dir", str(tmp_path / "out"), *extra], capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad, where", [("not-utf8", ": not utf-8 text: "), ("oversized-field", ", line 3: "),
                                        ("label-overflow", ", line 3: ")])
def test_unreadable_csv_names_the_file(bad, where, checkpoint, tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_bytes(BAD_CSV[bad])
    assert run(["eval", "--checkpoint", str(checkpoint), "--data", str(data),
                "--out-dir", str(tmp_path / "out")]) == 1
    assert f"error_category=MalformedInput: {data}{where}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("bad", list(BAD_GRID))
def test_malformed_segmentation_task(command, bad, checkpoint, tmp_path, capsys):
    task = write_seg_task(tmp_path / "task", BAD_GRID[bad])
    extra = ["--checkpoint", str(checkpoint)] if command == "eval" else ["--epochs", "1"]
    assert_malformed([command, "--seg", "--data", str(task), "--out-dir", str(tmp_path / "out"), *extra],
                     capsys)
    assert not (tmp_path / "out").exists()


def test_malformed_validation_csv(data_dir, tmp_path, capsys):
    val = tmp_path / "val.csv"
    val.write_bytes(BAD_CSV["short-row"])
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


def test_eval_zero_ece_bins_without_in_distribution_labels(data_dir, checkpoint, tmp_path, capsys):
    # no label of ood.csv is in the layer's classes, so no calibration is computed
    assert_category(["eval", "--checkpoint", str(checkpoint), "--data", str(data_dir / "ood.csv"),
                     "--ece-bins", "0", "--out-dir", str(tmp_path / "out")], "OutOfRange", capsys)
    assert not (tmp_path / "out" / "report.csv").exists()


@pytest.mark.parametrize("flag, value", [("--lambda", "nan"), ("--lambda", "inf"), ("--lambda", "-0.1"),
                                         ("--lr", "nan"), ("--lr", "inf"), ("--lr", "0")])
def test_train_settings_outside_their_finite_range(flag, value, data_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert_category(["train", "--data", str(data_dir / "train.csv"), flag, value, "--epochs", "0",
                     "--out-dir", str(out)], "OutOfRange", capsys)
    assert not (out / "checkpoint.json").exists()


@pytest.mark.parametrize("init", ["random", "kmeans"])
def test_train_zero_hidden_width(init, data_dir, tmp_path, capsys):
    assert_category(["train", "--data", str(data_dir / "train.csv"), "--feature-net", "--hidden", "0",
                     "--init", init, "--epochs", "1", "--out-dir", str(tmp_path / "out")], "OutOfRange", capsys)


@pytest.mark.parametrize("flags", [["--lambda", "nan"], ["--I", "0"], ["--H", "0", "--feature-net"],
                                   ["--epochs", "-1"]])
def test_failing_train_leaves_no_out_dir(flags, data_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert_category(["train", "--data", str(data_dir / "train.csv"), *flags, "--out-dir", str(out)],
                    "OutOfRange", capsys)
    assert not out.exists()


def test_train_into_a_file_fails_before_training(data_dir, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    out.write_text("kept\n")
    monkeypatch.setattr(cli, "fit", lambda *args: pytest.fail("trained before checking --out-dir"))
    assert run(["train", "--data", str(data_dir / "train.csv"), "--out-dir", str(out)]) == 2
    assert "error_category=IO" in capsys.readouterr().err
    assert out.read_text() == "kept\n"


def test_gen_data_negative_task_count(tmp_path, capsys):
    assert_category(["gen-data", "--seg", "--n-tasks", "-1", "--width", "16", "--height", "16",
                     "--out-dir", str(tmp_path / "out")], "OutOfRange", capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("noise", ["-0.5", "nan"])
def test_gen_data_noise_below_zero_or_nan(noise, tmp_path, capsys):
    assert_category(["gen-data", "--noise", noise, "--out-dir", str(tmp_path / "out")], "OutOfRange", capsys)


def test_gen_data_negative_blob_count(tmp_path, capsys):
    assert_category(["gen-data", "--seg", "--n-blobs", "-2", "--width", "16", "--height", "16",
                     "--out-dir", str(tmp_path / "out")], "OutOfRange", capsys)


@pytest.mark.parametrize("flags", [["--seg", "--width", "4"], ["--n-test", "1"], ["--ood", "--n-ood", "0"]])
def test_refused_gen_data_leaves_no_out_dir(flags, tmp_path, capsys):
    # every set is generated before the first file is written
    out = tmp_path / "out"
    assert_category(["gen-data", *flags, "--out-dir", str(out)], "OutOfRange", capsys)
    assert not out.exists()


BAD_SPEC = {
    "not-json": "models: [enn]",
    "not-an-object": "[1, 2]",
    "no-models": json.dumps({"lambdas": [0.0], "seeds": [0]}),
    "lambdas-not-a-list": json.dumps({"models": ["enn"], "lambdas": 0.1, "seeds": [0]}),
    "no-seeds": json.dumps({"models": ["enn"], "lambdas": [0.0]}),
    "unknown-model": json.dumps({"models": ["knn"], "lambdas": [0.0], "seeds": [0]}),
    "I-not-a-number": json.dumps({"models": ["enn"], "lambdas": [0.0], "seeds": [0], "I": "six"}),
    "lambda-not-a-number": json.dumps({"models": ["enn"], "lambdas": ["a"], "seeds": [0]}),
    "partial-data": json.dumps({"models": ["enn"], "lambdas": [0.0], "seeds": [0], "data": {"n_train": 50}}),
    "fractional-seed": json.dumps({"models": ["enn"], "lambdas": [0.0], "seeds": [0.5]}),
}


@pytest.mark.parametrize("bad", list(BAD_SPEC))
def test_malformed_sweep_spec(bad, tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(BAD_SPEC[bad])
    assert_malformed(["sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "out")], capsys)


@pytest.mark.parametrize("bad, key", [("unknown-model", "models"), ("I-not-a-number", "I"),
                                      ("lambda-not-a-number", "lambdas"), ("partial-data", "data.n_test"),
                                      ("fractional-seed", "seeds")])
def test_sweep_spec_error_names_the_key(bad, key, tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(BAD_SPEC[bad])
    assert run(["sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "out")]) == 1
    assert f"error_category=MalformedInput: {spec}: bad or missing {key}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_sweep_workers_below_one(workers, tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"models": ["enn"], "lambdas": [0.0], "seeds": [0], "epochs": 1}))
    assert_category(["sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "out"), "--workers", workers],
                    "OutOfRange", capsys)
    assert not (tmp_path / "out").exists()


def test_eval_refuses_a_second_data_path(data_dir, checkpoint, tmp_path, capsys):
    assert_category(["eval", "--checkpoint", str(checkpoint), "--data", str(data_dir / "test.csv"),
                     str(data_dir / "ood.csv"), "--out-dir", str(tmp_path / "out")], "OutOfRange", capsys)
    assert not (tmp_path / "out" / "report.csv").exists()


def test_train_refuses_a_second_data_path(data_dir, tmp_path, capsys):
    assert_category(["train", "--data", str(data_dir / "train.csv"), str(data_dir / "test.csv"),
                     "--epochs", "1", "--out-dir", str(tmp_path / "out")], "OutOfRange", capsys)
    assert not (tmp_path / "out" / "checkpoint.json").exists()
