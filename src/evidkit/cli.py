"""Command-line front end: data generation, training, sweeps, evaluation,
and mass-contour export.

Commands write plain CSV/JSON files and are idempotent given identical flags
and seeds.  Exit code 0 on success; failures print a machine-readable
`error_category=<Name>` line on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
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
from .mlp import mlp_init
from .model import LAYERS, EvidentialModel, class_count, make_layer
from .numeric import pignistic
from .training import TrainConfig, four_stage_init, train


def _write_lines(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# gen-data
# --------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.seg:
        for i in range(args.n_tasks):
            task = gen_toy_segmentation(args.width, args.height, args.n_blobs, seed=args.seed + i)
            save_seg_task(out / f"task_{i:03d}", task)
        print(f"wrote {args.n_tasks} segmentation tasks to {out}")
        return 0
    save_labeled(out / "train.csv", gen_half_moons(args.n_train, args.noise, seed=args.seed))
    save_labeled(out / "test.csv", gen_half_moons(args.n_test, args.noise, seed=args.seed + 1))
    written = ["train.csv", "test.csv"]
    if args.ood:
        save_labeled(out / "ood.csv", gen_ood_class(args.n_ood, seed=args.seed + 2))
        written.append("ood.csv")
    print(f"wrote {', '.join(written)} to {out}")
    return 0


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------

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
    ds = load_labeled(_single_path(args.data))
    return ds.points, ds.labels


def _build_and_train(args):
    x, y = _load_training_data(args)
    val = None
    if args.val:
        v = load_labeled(args.val)
        val = (v.points, v.labels)
    loss = args.loss or _default_loss(args.model, args.seg)
    config = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        lam=getattr(args, "lambda"),
        loss_kind=loss,
        seed=args.seed,
    )
    if args.feature_net and args.init == "kmeans":
        arch = {
            "kind": args.model,
            "n_prototypes": args.prototypes,
            "n_features": args.features,
            "hidden": [args.hidden],
        }
        result = four_stage_init((x, y), arch, config, val)
        return result.model, result.finetune_history, config

    net, n_features = None, x.shape[1]
    if args.feature_net:
        net = mlp_init([x.shape[1], args.hidden, args.features], seed=args.seed)
        n_features = args.features
    kmeans_data = (x, y) if args.init == "kmeans" else None
    layer = make_layer(args.model, args.prototypes, n_features, class_count(y), args.seed, kmeans_data)
    model, history = train(EvidentialModel(args.model, layer, net), (x, y), config, val)
    return model, history, config


def cmd_train(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model, history, config = _build_and_train(args)
    model.save(out / "checkpoint.json")
    _write_lines(out / "history.csv", history.csv_rows())
    last = history.records[-1] if history.records else None
    summary = (
        f"model={args.model} init={args.init} loss={config.loss_kind} "
        f"epochs={config.epochs} lam={config.lam:g}"
    )
    if last is not None:
        summary += f" final_loss={last.loss:.6g} train_err={last.train_error:.4f}"
    print(summary)
    return 0


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

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
    kmeans_data = (train_ds.points, train_ds.labels) if payload["init"] == "kmeans" else None
    layer = make_layer(kind, payload["I"], 2, class_count(train_ds.labels), seed, kmeans_data)
    model = EvidentialModel(kind, layer)
    model, _ = train(model, train_ds, config)
    err = error_rate(model.predict(test_ds.points), test_ds.labels)
    ign = mean_ignorance(model.masses(test_ds.points))
    return (kind, payload["lam"], seed, err, ign)


def cmd_sweep(args) -> int:
    try:
        spec = json.loads(Path(args.spec).read_text())
    except ValueError as exc:  # not JSON, or not text
        raise MalformedInput(f"{args.spec}: not JSON: {exc}") from None
    for key in ("models", "lambdas", "seeds"):
        if not isinstance(spec, dict) or not isinstance(spec.get(key), list):
            raise MalformedInput(f"{args.spec}: need a JSON object with a list of {key}")
    points = [
        {
            "model": kind,
            "lam": lam,
            "seed": seed,
            "I": spec.get("I", 6),
            "init": spec.get("init", "kmeans"),
            "epochs": spec.get("epochs", 100),
            "lr": spec.get("lr", 1e-3),
            "data": spec.get(
                "data", {"n_train": 300, "n_test": 1000, "noise": 0.1, "seed": 123}
            ),
        }
        for kind in spec["models"]
        for lam in spec["lambdas"]
        for seed in spec["seeds"]
    ]
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


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

def _classification_report(model: EvidentialModel, points, labels, n_bins: int) -> dict:
    masses = model.masses(points)
    preds = np.argmax(masses[:, :-1], axis=1)
    in_dist = labels < model.n_classes
    report = {
        "n": int(len(labels)),
        "mean_ignorance": mean_ignorance(masses),
    }
    if np.any(in_dist):
        report["error"] = error_rate(preds[in_dist], labels[in_dist])
        conf = np.max(pignistic(masses)[in_dist], axis=1)
        report["ece"] = ece(conf, preds[in_dist], labels[in_dist], n_bins=n_bins).ece
    return report


def cmd_eval(args) -> int:
    data = _single_path(args.data)
    model = EvidentialModel.load(args.checkpoint)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.seg:
        task = load_seg_task(data)
        x, truth = seg_task_as_samples(task)
        masses = model.masses(x)
        soft = pignistic(masses)[:, 1]
        pred_mask = (soft > 0.5).astype(int).reshape(task.mask.shape)
        scores = seg_scores(pred_mask, task.mask)
        # calibration inside the bounding box of the true foreground
        ys, xs = np.nonzero(task.mask)
        soft_grid = soft.reshape(task.mask.shape)
        if ys.size:
            box = (slice(ys.min(), ys.max() + 1), slice(xs.min(), xs.max() + 1))
            box_soft = soft_grid[box].ravel()
            box_pred = (box_soft > 0.5).astype(int)
            box_truth = task.mask[box].ravel()
            ece_val = ece(box_soft, box_pred, box_truth, n_bins=args.ece_bins).ece
        else:
            ece_val = float("nan")
        report = {
            "n": int(task.mask.size),
            "dice": scores.dice,
            "sensitivity": scores.sensitivity,
            "precision": scores.precision,
            "ece": ece_val,
            "mean_ignorance": mean_ignorance(masses),
        }
    else:
        ds = load_labeled(data)
        report = _classification_report(model, ds.points, ds.labels, args.ece_bins)

    keys = sorted(report)
    _write_lines(out / "report.csv", [",".join(keys), ",".join(repr(report[k]) for k in keys)])
    print(" ".join(f"{k}={report[k]:.6g}" if isinstance(report[k], float) else f"{k}={report[k]}"
                   for k in keys))
    return 0


# --------------------------------------------------------------------------
# contours
# --------------------------------------------------------------------------

def cmd_contours(args) -> int:
    model = EvidentialModel.load(args.checkpoint)
    grid = contour_grid(
        model, (args.x_min, args.x_max), (args.y_min, args.y_max), resolution=args.resolution
    )
    out = Path(args.out_dir)
    _write_lines(out / "contours.csv", grid.csv_rows())
    print(f"wrote {args.resolution}x{args.resolution} grid to {out / 'contours.csv'}")
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".", help="directory for output files")


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
