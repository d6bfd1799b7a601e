"""The three workloads.  Each builds its inputs from the workload seed in
`setup` and runs one pass in `run_pass`; evidkit sees only those inputs.

Why these three, and which per-layer metric should move which end-to-end
metric on each, is written down in README.md next to this file.

Every timed operation is kept to a few tens of milliseconds, below the sizes
of the acceptance suite and the README, because only an operation that short
fits between the spells of outside load on a shared host often enough for
its best of k to be steady (see `best_times` in run.py and README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from spans import span


def fresh_import():
    """Import evidkit with its modules executed anew (numpy and scipy stay loaded)."""
    for name in [m for m in sys.modules if m == "evidkit" or m.startswith("evidkit.")]:
        del sys.modules[name]
    ek = importlib.import_module("evidkit")
    importlib.import_module("evidkit.cli")
    return ek


@dataclass
class Pass:
    """What one pass did: seconds per operation (failed ones left out), the
    number attempted and what failed, and its outputs by operation, which
    every later pass must repeat exactly."""

    ops: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self):
        self.defects: set[str] = set()  # known program defects, printed but not gated

    def setup(self, ek, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> Pass:
        raise NotImplementedError

    def rates(self, op_s: dict) -> dict:
        """The workload's named throughputs from per-operation seconds; the
        first is its `work_per_s`."""
        raise NotImplementedError

    def check(self, ref: Pass) -> tuple[int, list]:
        """Oracle checks on the outputs of the untimed reference pass."""
        return 0, []

    def quality(self, timed: Pass) -> dict:
        """Quality figures, deterministic for a seed, from a timed pass."""
        return {}

    far_rel_err = 0.0


# --------------------------------------------------------------------------
# sweep-grid: the paper's lambda grid through the library
# --------------------------------------------------------------------------

LAMBDAS = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
MODEL_SEEDS = range(1)
FIT_EPOCHS = 25  # the acceptance suite trains for 100


class SweepGrid(Workload):
    """enn and rbf x 5 lambdas x model seed 0 on 300/1000/300 half moons, I=6,
    k-means init, FIT_EPOCHS epochs at lr 0.2; predict on test, masses on OOD."""

    name = "sweep-grid"

    def setup(self, ek, seed, workdir):
        self.ek = ek
        s_train, s_test, s_ood = np.random.default_rng(seed).integers(0, 2**31, size=3).tolist()
        self.train = ek.datasets.gen_half_moons(300, 0.1, seed=s_train)
        self.test = ek.datasets.gen_half_moons(1000, 0.1, seed=s_test)
        self.ood = ek.datasets.gen_ood_class(300, seed=s_ood)
        self.grid = [(k, lam, s) for k in ("enn", "rbf") for lam in LAMBDAS for s in MODEL_SEEDS]

    def _fit(self, kind, lam, seed):
        ek, tr = self.ek, self.train
        if kind == "enn":
            layer = ek.enn.enn_init_kmeans(tr.points, tr.labels, 6, 2, seed=seed)
            loss = "sse"
        else:
            layer = ek.rbf.rbf_init_kmeans(tr.points, tr.labels, 6, seed=seed)
            loss = "cross-entropy"
        config = ek.training.TrainConfig(epochs=FIT_EPOCHS, learning_rate=0.2, lam=lam, loss_kind=loss, seed=seed)
        model, history = ek.training.train(ek.model.EvidentialModel(kind, layer), tr, config)
        return model, history, model.predict(self.test.points), model.masses(self.ood.points)

    def run_pass(self, tracer=None):
        p = Pass()
        self.models = {}
        for kind, lam, seed in self.grid:
            p.attempted += 1
            t0 = time.perf_counter()
            try:
                with span(tracer, "op.fit"):
                    model, history, pred, ood_m = self._fit(kind, lam, seed)
            except self.ek.errors.EvidkitError as exc:
                p.failures.append(f"fit {kind} lam={lam} seed={seed}: {type(exc).__name__}: {exc}")
                continue
            p.ops[(kind, lam, seed)] = time.perf_counter() - t0
            problems = checks.row_problems(ood_m)
            losses = [r.loss for r in history.records]
            if not all(map(math.isfinite, losses)):
                problems.append("non-finite training loss")
            if problems:
                p.failures.append(f"fit {kind} lam={lam} seed={seed}: {'; '.join(problems)}")
            err = float(np.mean(pred != self.test.labels))
            p.outputs[(kind, lam, seed)] = (err, float(np.mean(ood_m[:, -1])), losses[-1])
            self.models[(kind, lam, seed)] = model
        return p

    def rates(self, op_s):
        fit_ms = [s * 1e3 for s in op_s.values()]
        return {"fits_per_s": len(fit_ms) / sum(op_s.values()),
                "fit_p50_ms": float(np.percentile(fit_ms, 50)),
                "fit_p90_ms": float(np.percentile(fit_ms, 90))}

    def check(self, ref):
        # a few test and OOD rows through every trained model
        rows = np.vstack([self.test.points[:2], self.ood.points[:2]])
        problems = []
        for (kind, lam, seed), model in self.models.items():
            problems += checks.oracle_problems(self.ek, model, rows, f"{kind} lam={lam} seed={seed}")
        return len(self.models), problems

    def quality(self, timed):
        done = timed.outputs.values()
        return {"error_rate": float(np.mean([o[0] for o in done])),
                "ood_ignorance": float(np.mean([o[1] for o in done]))}


# --------------------------------------------------------------------------
# infer-batch: full-batch masses() at a tall and a wide shape
# --------------------------------------------------------------------------

SHAPES = {"tall": (12_500, 6, 2), "wide": (250, 256, 64)}
N_CHECK = 24  # near and far rows per (shape, kind) checked against dst


class InferBatch(Workload):
    """EvidentialModel.masses, forward only and full batch, for enn and rbf at
    (N, I, H) = (12500, 6, 2) and (250, 256, 64).  Half the rows sit near a
    prototype; the other half so far from all of them that activations run
    from about 3e-4 down to underflow."""

    name = "infer-batch"

    def setup(self, ek, seed, workdir):
        self.ek = ek
        rng = np.random.default_rng(seed)
        self.cases = {}
        for shape, (n, n_proto, dim) in SHAPES.items():
            proto = rng.standard_normal((n_proto, dim))
            gamma = rng.uniform(0.5, 2.0, n_proto)
            layers = {
                "enn": ek.enn.enn_from_constrained(
                    proto, rng.uniform(0.1, 0.9, n_proto), gamma, rng.dirichlet(np.ones(2), n_proto)),
                "rbf": ek.rbf.rbf_from_constrained(proto, gamma, 2.0 * rng.standard_normal(n_proto)),
            }
            n_near = n // 2
            # near: about one length scale from one prototype
            near = proto[rng.integers(n_proto, size=n_near)]
            near = near + rng.standard_normal((n_near, dim)) / np.sqrt(dim * gamma.max())
            # far: gamma * d^2 >= t for every prototype, t log-uniform in [8, 1600]
            t = np.exp(rng.uniform(np.log(8.0), np.log(1600.0), n - n_near))
            direction = rng.standard_normal((n - n_near, dim))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            radius = np.linalg.norm(proto, axis=1).max() + np.sqrt(t / gamma.min())
            far = direction * radius[:, None]
            order = rng.permutation(n)
            X = np.vstack([near, far])[order]
            is_far = (order >= n_near)
            self.cases[shape] = {
                "X": X,
                "near_rows": np.flatnonzero(~is_far)[:N_CHECK],
                "far_rows": np.flatnonzero(is_far)[:N_CHECK],
                "models": {k: ek.model.EvidentialModel(k, layer) for k, layer in layers.items()},
            }

    def run_pass(self, tracer=None):
        p = Pass()
        for shape, case in self.cases.items():
            for kind, model in case["models"].items():
                p.attempted += 1
                t0 = time.perf_counter()
                try:
                    with span(tracer, "op.masses"):
                        masses = model.masses(case["X"])
                except self.ek.errors.EvidkitError as exc:
                    p.failures.append(f"{shape} {kind}: {type(exc).__name__}: {exc}")
                    continue
                p.ops[(shape, kind)] = time.perf_counter() - t0
                p.failures += [f"{shape} {kind}: {msg}" for msg in checks.row_problems(masses)]
                p.outputs[(shape, kind)] = masses
        return p

    def rates(self, op_s):
        """Rows per second at each shape; work_per_s is their geometric mean, so
        a given speed-up at either shape moves it by the same factor."""
        per_shape = {}
        for shape, case in self.cases.items():
            secs = [op_s[(shape, kind)] for kind in case["models"] if (shape, kind) in op_s]
            per_shape[shape] = len(secs) * case["X"].shape[0] / sum(secs) if secs else math.nan
        return {"rows_per_s": math.sqrt(per_shape["tall"] * per_shape["wide"]),
                "tall_rows_per_s": per_shape["tall"], "wide_rows_per_s": per_shape["wide"]}

    def check(self, ref):
        problems, n_checks, worst = [], 0, 0.0
        for shape, case in self.cases.items():
            for kind, model in case["models"].items():
                for part in ("near_rows", "far_rows"):
                    X = case["X"][case[part]]
                    n_checks += 1
                    problems += checks.oracle_problems(self.ek, model, X, f"{shape} {kind} {part}")
                    if part == "far_rows":
                        worst = max(worst, checks.max_rel_err(self.ek, model, X))
        self.far_rel_err = worst
        return n_checks, problems

    def quality(self, timed):
        return {"far_rel_err": self.far_rel_err}


# --------------------------------------------------------------------------
# readme-cli: the README commands through the CLI
# --------------------------------------------------------------------------

def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(directory)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _read_report(path: Path) -> dict:
    keys, values = path.read_text().splitlines()[:2]
    return {k: float(v) for k, v in zip(keys.split(","), values.split(","))}


# the README's values: 100, 200, 64 and 200
MOONS_EPOCHS = 25
CONTOUR_RESOLUTION = 50
SEG_SIDE = 32
SEG_EPOCHS = 4


class ReadmeCli(Workload):
    """Every README command except `sweep`, with the README's flags except
    the four sizes above, run through `evidkit.cli.main` in process."""

    name = "readme-cli"

    def setup(self, ek, seed, workdir):
        self.ek = ek
        self.workdir = workdir
        w = workdir / "out"
        data, segdata, runs = w / "data", w / "segdata", w / "runs"
        ckpt = str(runs / "enn" / "checkpoint.json")
        seg_ckpt = str(runs / "seg" / "checkpoint.json")
        self.argvs = [
            ["gen-data", "--out-dir", str(data), "--n-train", "300", "--n-test", "1000", "--ood",
             "--seed", str(seed)],
            ["train", "--data", str(data / "train.csv"), "--model", "enn", "--init", "kmeans", "--I", "6",
             "--lambda", "1e-3", "--epochs", str(MOONS_EPOCHS), "--lr", "0.2", "--seed", str(seed + 1),
             "--out-dir", str(runs / "enn")],
            ["eval", "--checkpoint", ckpt, "--data", str(data / "test.csv"), "--out-dir", str(runs / "enn")],
            ["eval", "--checkpoint", ckpt, "--data", str(data / "ood.csv"), "--out-dir", str(runs / "enn-ood")],
            ["contours", "--checkpoint", ckpt, "--resolution", str(CONTOUR_RESOLUTION), "--out-dir", str(runs / "enn")],
            ["gen-data", "--out-dir", str(segdata), "--seg", "--n-tasks", "3", "--width", str(SEG_SIDE),
             "--height", str(SEG_SIDE), "--n-blobs", "3", "--seed", str(seed)],
            ["train", "--seg", "--data", str(segdata / "task_000"), str(segdata / "task_001"),
             "--model", "enn", "--init", "random", "--feature-net", "--loss", "dice", "--epochs", str(SEG_EPOCHS),
             "--lr", "1e-2", "--seed", str(seed + 2), "--out-dir", str(runs / "seg")],
            ["eval", "--seg", "--checkpoint", seg_ckpt, "--data", str(segdata / "task_002"),
             "--out-dir", str(runs / "seg")],
        ]

    def run_pass(self, tracer=None):
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        p = Pass()
        for i, argv in enumerate(self.argvs):
            p.attempted += 1
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf), span(tracer, f"cli.{argv[0]}"):
                try:
                    rc = self.ek.cli.main(argv)
                except Exception as exc:  # a raw traceback breaks the CLI's error contract
                    rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if rc != 0 or "error_category=" in buf.getvalue():
                p.failures.append(f"{' '.join(argv[:2])}: rc={rc} {buf.getvalue().strip()[-300:]}")
            else:
                p.ops[i] = elapsed
        p.failures += self.output_problems(out)
        p.outputs["files"] = _digest(out)
        return p

    def rates(self, op_s):
        """Training epochs over the time spent in `train`."""
        trains = [i for i, argv in enumerate(self.argvs) if argv[0] == "train" and i in op_s]
        epochs = sum(int(self.argvs[i][self.argvs[i].index("--epochs") + 1]) for i in trains)
        return {"epochs_per_s": epochs / sum(op_s[i] for i in trains) if trains else math.nan}

    def output_problems(self, out: Path) -> list[str]:
        """Files each pass must leave behind, finite training losses, and the contour grid."""
        problems = []
        for argv in self.argvs:
            if argv[0] in ("train", "eval"):
                run = Path(argv[argv.index("--out-dir") + 1])
                name = "history.csv" if argv[0] == "train" else "report.csv"
                if not (run / name).is_file():
                    problems.append(f"missing {run / name}")
                elif argv[0] == "train":
                    losses = [float(line.split(",")[1]) for line in (run / name).read_text().splitlines()[1:]]
                    if not losses or not all(map(math.isfinite, losses)):
                        problems.append(f"non-finite or missing losses in {run / name}")
        contours = out / "runs" / "enn" / "contours.csv"
        if not contours.is_file():
            return problems + [f"missing {contours}"]
        masses = np.loadtxt(contours, delimiter=",", skiprows=1, usecols=(2, 3, 4))
        if masses.shape != (CONTOUR_RESOLUTION ** 2, 3):
            problems.append(f"contours.csv has {masses.shape} mass entries")
        else:
            problems += [f"contours.csv: {msg}" for msg in checks.row_problems(masses)]
        with contours.open() as fh:
            fh.readline()
            first = fh.readline().split(",")[:2]
        try:
            [float(v) for v in first]
        except ValueError:
            # recorded, not gated: the mass columns are right, and the fix belongs in src/
            self.defects.add(f"contours.csv x,y columns are not plain numbers: {','.join(first)}")
        return problems

    def check(self, ref):
        w = self.workdir / "out"
        ds = self.ek.datasets
        rows = np.vstack([ds.load_labeled(w / "data" / "test.csv").points[:16],
                          ds.load_labeled(w / "data" / "ood.csv").points[:16]])
        x, _ = ds.seg_task_as_samples(ds.load_seg_task(w / "segdata" / "task_002"))
        seg_rows = x[np.random.default_rng(0).choice(x.shape[0], size=32, replace=False)]
        problems = []
        for name, X in (("enn", rows), ("seg", seg_rows)):
            model = self.ek.model.EvidentialModel.load(w / "runs" / name / "checkpoint.json")
            problems += checks.oracle_problems(self.ek, model, X, f"{name} checkpoint")
        return 2, problems

    def quality(self, timed):
        runs = self.workdir / "out" / "runs"
        return {"error_rate": _read_report(runs / "enn" / "report.csv")["error"],
                "ood_ignorance": _read_report(runs / "enn-ood" / "report.csv")["mean_ignorance"],
                "seg_dice": _read_report(runs / "seg" / "report.csv")["dice"]}


WORKLOADS = {w.name: w for w in (SweepGrid, InferBatch, ReadmeCli)}
