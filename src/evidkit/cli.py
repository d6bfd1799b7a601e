"""Command-line front end: data generation, training, sweeps, evaluation,
and mass-contour export.

Commands write plain CSV/JSON files and are idempotent given identical flags
and seeds.  Exit code 0 on success; failures print a machine-readable
`error_category=<Name>` line on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .datasets import (
    gen_half_moons,
    gen_ood_class,
    gen_toy_segmentation,
    load_labeled,
    load_seg_task,
    save_labeled,
    save_seg_task,
    seg_task_as_samples,
)
from .errors import EvidkitError, MalformedInput, OutOfRange
from .metrics import contour_grid, ece, error_rate, mean_ignorance, seg_scores
from .model import LAYERS, EvidentialModel, decide
from .numeric import pignistic
from .training import TrainConfig, fit


WRITE_CHUNK_LINES = 1024


def _write_lines(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = iter(lines)
    with path.open("w") as fh:
        while chunk := list(itertools.islice(lines, WRITE_CHUNK_LINES)):
            fh.write("\n".join(chunk))
            fh.write("\n")


# --- gen-data

def cmd_gen_data(args) -> int:
    """Generate every set before the first write, so a refused run leaves no --out-dir."""
    if args.seg and args.n_tasks < 1:
        raise OutOfRange(f"--n-tasks must be at least 1, got {args.n_tasks}")
    out = Path(args.out_dir)
    if args.seg:
        tasks = [gen_toy_segmentation(args.width, args.height, args.n_blobs, seed=args.seed + i)
                 for i in range(args.n_tasks)]
        for i, task in enumerate(tasks):
            save_seg_task(out / f"task_{i:03d}", task)
        print(f"wrote {args.n_tasks} segmentation tasks to {out}")
        return 0
    sets = {"train.csv": gen_half_moons(args.n_train, args.noise, seed=args.seed),
            "test.csv": gen_half_moons(args.n_test, args.noise, seed=args.seed + 1)}
    if args.ood:
        sets["ood.csv"] = gen_ood_class(args.n_ood, seed=args.seed + 2)
    out.mkdir(parents=True, exist_ok=True)
    for name, ds in sets.items():
        save_labeled(out / name, ds)
    print(f"wrote {', '.join(sets)} to {out}")
    return 0


# --- train

def _default_loss(model_kind: str, seg: bool) -> str:
    return "dice" if seg else LAYERS[model_kind].losses[0]


def _single_path(paths) -> str:
    """The one path of a `--data` list; only `train --seg` reads several."""
    if len(paths) != 1:
        raise OutOfRange(f"--data takes one path here, got {len(paths)}")
    return paths[0]


def _load_training_data(args):
    if args.seg:
        xs, ys = [], []
        for d in args.data:
            x, y = seg_task_as_samples(load_seg_task(d))
            xs.append(x)
            ys.append(y)
        return np.vstack(xs), np.concatenate(ys)
    return load_labeled(_single_path(args.data))


def cmd_train(args) -> int:
    out = Path(args.out_dir)
    if out.is_file():
        raise FileExistsError(f"--out-dir {out} is a file")
    data = _load_training_data(args)
    val = load_labeled(args.val) if args.val else None
    config = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        lam=getattr(args, "lambda"),
        loss_kind=args.loss or _default_loss(args.model, args.seg),
        seed=args.seed,
    )
    hidden = [args.hidden] if args.feature_net else None
    model, histories = fit(args.model, args.init, args.prototypes, data, config, hidden, args.features, val)
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "checkpoint.json")
    for stage, history in histories.items():
        _write_lines(out / ("history.csv" if stage == "train" else f"history_{stage}.csv"), history.csv_rows())
    history = histories["train"]
    last = history.records[-1] if history.records else None
    summary = (
        f"model={args.model} init={args.init} loss={config.loss_kind} "
        f"epochs={config.epochs} lam={config.lam:g}"
    )
    if last is not None:
        summary += f" final_loss={last.loss:.6g} train_err={last.train_error:.4f}"
    print(summary)
    return 0


# --- sweep

def _sweep_point(payload: dict) -> tuple:
    """One (model, lambda, seed) grid point; returns a result row."""
    data = payload["data"]
    train_ds = gen_half_moons(data["n_train"], data["noise"], seed=data["seed"])
    test_ds = gen_half_moons(data["n_test"], data["noise"], seed=data["seed"] + 1)
    kind = payload["model"]
    seed = payload["seed"]
    loss = _default_loss(kind, seg=False)
    config = TrainConfig(
        epochs=payload["epochs"],
        learning_rate=payload["lr"],
        lam=payload["lam"],
        loss_kind=loss,
        seed=seed,
    )
    model, _ = fit(kind, payload["init"], payload["I"], train_ds, config)
    masses = model.masses(test_ds.points)
    err = error_rate(decide(masses), test_ds.labels)
    return (kind, payload["lam"], seed, err, mean_ignorance(masses))


SWEEP_DEFAULTS = {"I": 6, "init": "kmeans", "epochs": 100, "lr": 1e-3,
                  "data": {"n_train": 300, "n_test": 1000, "noise": 0.1, "seed": 123}}


def _count(x) -> bool:
    return type(x) is int and x >= 0  # JSON true and false are not counts


def _real(x) -> bool:
    return type(x) in (int, float) and 0 <= x < math.inf


def _sweep_settings(spec, where) -> dict:
    """The spec with its defaults, every value checked before any fit runs:
    MalformedInput names the first key that does not fit."""
    s = {**SWEEP_DEFAULTS, **spec} if isinstance(spec, dict) else {}
    data = s.get("data") if isinstance(s.get("data"), dict) else {}
    kinds = list(LAYERS)
    for key, value, ok in (
        ("models", s.get("models"), lambda v: isinstance(v, list) and all(m in kinds for m in v)),
        ("lambdas", s.get("lambdas"), lambda v: isinstance(v, list) and all(map(_real, v))),
        ("seeds", s.get("seeds"), lambda v: isinstance(v, list) and all(map(_count, v))),
        ("I", s.get("I"), _count),
        ("init", s.get("init"), lambda v: v in ("random", "kmeans")),
        ("epochs", s.get("epochs"), _count),
        ("lr", s.get("lr"), lambda v: _real(v) and v > 0),
        *((f"data.{k}", data.get(k), _real if k == "noise" else _count) for k in SWEEP_DEFAULTS["data"]),
    ):
        if not ok(value):
            raise MalformedInput(f"{where}: bad or missing {key}: {value!r}")
    return s


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise OutOfRange(f"--workers must be at least 1, got {args.workers}")
    try:
        spec = json.loads(Path(args.spec).read_text())
    except ValueError as exc:  # not JSON, or not text
        raise MalformedInput(f"{args.spec}: not JSON: {exc}") from None
    s = _sweep_settings(spec, args.spec)
    fixed = {key: s[key] for key in SWEEP_DEFAULTS}
    points = [{"model": kind, "lam": lam, "seed": seed, **fixed}
              for kind in s["models"] for lam in s["lambdas"] for seed in s["seeds"]]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_sweep_point, points))
    else:
        rows = [_sweep_point(p) for p in points]

    out = Path(args.out_dir)
    lines = ["model,lambda,seed,test_error,mean_ignorance"]
    lines += [f"{m},{lam!r},{seed},{err!r},{ign!r}" for m, lam, seed, err, ign in rows]
    _write_lines(out / "sweep.csv", lines)
    print(f"wrote {len(rows)} rows to {out / 'sweep.csv'}")
    return 0


# --- eval

def _classification_report(model: EvidentialModel, points, labels, n_bins: int, scored=None) -> tuple:
    """The masses' `decide` classes and a report: `n` and mean ignorance of all
    rows, error and ECE of the largest pignistic probability on the `scored`
    rows (default: those labeled with a class of the model; none: no keys)."""
    masses = model.masses(points)
    preds = decide(masses)
    if scored is None:
        scored = labels < model.n_classes
    report = {"n": int(len(labels)), "mean_ignorance": mean_ignorance(masses)}
    if np.any(scored):
        report["error"] = error_rate(preds[scored], labels[scored])
        conf = np.max(pignistic(masses)[scored], axis=1)
        report["ece"] = ece(conf, preds[scored], labels[scored], n_bins=n_bins).ece
    return preds, report


def cmd_eval(args) -> int:
    data = _single_path(args.data)
    if args.ece_bins < 1:  # checked here: data without an in-distribution label never reaches `ece`
        raise OutOfRange(f"--ece-bins must be at least 1, got {args.ece_bins}")
    model = EvidentialModel.load(args.checkpoint)
    if args.seg:
        if model.n_classes != 2:
            raise OutOfRange(f"segmentation is binary, the model has {model.n_classes} classes")
        task = load_seg_task(data)
        # scored in the true foreground's bounding box, nan if there is none
        box = np.zeros(task.mask.shape, dtype=bool)
        ys, xs = np.nonzero(task.mask)
        if ys.size:
            box[ys.min():ys.max() + 1, xs.min():xs.max() + 1] = True
        preds, report = _classification_report(model, *seg_task_as_samples(task), args.ece_bins, box.ravel())
        scores = seg_scores(preds.reshape(task.mask.shape), task.mask)
        report = {"error": math.nan, "ece": math.nan, **report,
                  "dice": scores.dice, "sensitivity": scores.sensitivity, "precision": scores.precision}
    else:
        ds = load_labeled(data)
        report = _classification_report(model, ds.points, ds.labels, args.ece_bins)[1]

    keys = sorted(report)
    _write_lines(Path(args.out_dir) / "report.csv", [",".join(keys), ",".join(repr(report[k]) for k in keys)])
    print(" ".join(f"{k}={report[k]:.6g}" if isinstance(report[k], float) else f"{k}={report[k]}"
                   for k in keys))
    return 0


# --- contours

def cmd_contours(args) -> int:
    model = EvidentialModel.load(args.checkpoint)
    grid = contour_grid(
        model, (args.x_min, args.x_max), (args.y_min, args.y_max), resolution=args.resolution
    )
    out = Path(args.out_dir)
    _write_lines(out / "contours.csv", grid.csv_rows())
    print(f"wrote {args.resolution}x{args.resolution} grid to {out / 'contours.csv'}")
    return 0


# --- argument parsing

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".", help="directory for output files")


@functools.cache  # parse_args leaves the parser as it was, so one serves every main call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evidkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic datasets")
    _add_common(p)
    p.add_argument("--n-train", type=int, default=300)
    p.add_argument("--n-test", type=int, default=1000)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--ood", action="store_true", help="also write a third-class set")
    p.add_argument("--n-ood", type=int, default=300)
    p.add_argument("--seg", action="store_true", help="write segmentation tasks instead")
    p.add_argument("--n-tasks", type=int, default=1)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--n-blobs", type=int, default=3)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model and write checkpoint + history")
    _add_common(p)
    p.add_argument("--data", nargs="+", required=True,
                   help="training CSV (or segmentation task dirs with --seg)")
    p.add_argument("--val", help="validation CSV")
    p.add_argument("--model", choices=list(LAYERS), default="enn")
    p.add_argument("--init", choices=["random", "kmeans"], default="kmeans")
    p.add_argument("--I", dest="prototypes", type=int, default=6, help="number of prototypes")
    p.add_argument("--H", dest="features", type=int, default=2,
                   help="feature dimension (with --feature-net)")
    p.add_argument("--feature-net", action="store_true",
                   help="prepend a small fully-connected feature extractor")
    p.add_argument("--hidden", type=int, default=16, help="hidden width of the feature net")
    p.add_argument("--lambda", type=float, default=0.0, help="regularization coefficient")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--loss", choices=["sse", "cross-entropy", "dice"],
                   help="override the default loss for the model kind")
    p.add_argument("--seg", action="store_true", help="treat --data as segmentation task dirs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="grid of (model, lambda, seed) training runs")
    _add_common(p)
    p.add_argument("--spec", required=True, help="JSON sweep specification")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--seg", action="store_true", help="treat --data as a segmentation task dir")
    p.add_argument("--ece-bins", type=int, default=10)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("contours", help="export a mass grid for plotting")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--x-min", type=float, default=-2.0)
    p.add_argument("--x-max", type=float, default=3.0)
    p.add_argument("--y-min", type=float, default=-1.5)
    p.add_argument("--y-max", type=float, default=2.0)
    p.add_argument("--resolution", type=int, default=200)
    p.set_defaults(func=cmd_contours)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EvidkitError as exc:
        print(f"error_category={type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error_category=IO: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
