"""Command-line entry point.

Subcommands: analyze, bench, gradcheck, train, infer, attmap. One table,
``COMMANDS``, holds each subcommand's help, the ``CONFIG_KEYS`` it takes
and its handler; it builds the flags, the config-file check and the
dispatch, and a handler gets only its own keys. A flat key=value config
file (``--config``) is read by ``config_flags`` as that subcommand's own
flags, parsed before the command line's, so one parse types every value
and the last occurrence of a flag wins. Flags are never abbreviated. Exit
code 0 on success, 1 on usage or config errors, 2 on any other
``MetavitError`` or an OS error. Each command prints the seed it ran under.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import bench as bench_mod
from . import checkpoint as ckpt
from . import complexity, fileio, gradcheck, trainer
from . import tensor as T
from .errors import ConfigError, InputError, MetavitError, UsageError
from .model import Model, export_attention_maps, variant, variant_names
from .tensor import Tensor

# key -> (parser, default, help)
CONFIG_KEYS: dict[str, tuple] = {
    "variant": (str, "tiny", f"architecture name ({', '.join(variant_names())})"),
    "input": (int, 224, "square input extent in pixels"),
    "meta_len": (int, None, "override the variant's meta token count"),
    "num_classes": (int, None, "override the classifier width"),
    "seed": (int, 0, "seed for all deterministic randomness"),
    "out_dir": (str, ".", "directory for written artifacts"),
    "format": (str, "table", "report format: table, csv, or json"),
    "strict_dual": (bool, False, "count the dual attention term as 4NMD"),
    "use_ca_stage": (bool, True, "keep the cross-attention stage"),
    "use_meta_stem": (bool, True, "keep the meta token stem"),
    "use_meta_pooling": (bool, True, "fuse meta tokens into the classifier pool"),
    "mode": (str, "pair", "bench mode: pair, model, or both"),
    "iters": (int, 30, "measured benchmark iterations (minimum 30)"),
    "warmup": (int, 10, "benchmark warmup iterations"),
    "n": (int, 3136, "image token count for the block-pair bench"),
    "m": (int, 16, "meta token count for the block-pair bench"),
    "d": (int, 64, "token width for the block-pair bench"),
    "e": (int, 4, "feed-forward expansion for the block-pair bench"),
    "steps": (int, 300, "training steps"),
    "batch_size": (int, 32, "training batch size"),
    "lr": (float, 1e-2, "learning rate"),
    "optimizer": (str, "adamw-lite", "adamw-lite or sgd-momentum"),
    "weight_decay": (float, 0.01, "decoupled weight decay"),
    "label_smoothing": (float, 0.0, "cross-entropy label smoothing"),
    "samples": (int, 300, "synthetic dataset size"),
    "noise_sigma": (float, 0.1, "synthetic dataset noise level"),
    "checkpoint": (str, None, "checkpoint path to load or write"),
    "image": (str, None, "input image (.ppm or binary tensor record)"),
}

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


class Command(NamedTuple):
    help: str
    keys: tuple[str, ...]  # the CONFIG_KEYS it takes as flags or from its config file
    handler: Callable[[dict], int]


def config_flags(path: str, command: str) -> list[str]:
    """The key=value lines of ``path`` as ``command``'s own flags, in file order."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    flags = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        key, eq, raw = (part.strip() for part in text.partition("="))
        if not eq:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {text!r}")
        if key not in COMMANDS[command].keys:
            raise UsageError(f"{path}:{lineno}: {command} takes no config key {key!r}")
        flag = key.replace("_", "-")
        if CONFIG_KEYS[key][0] is not bool:
            flags.append(f"--{flag}={raw}")
        elif raw.lower() in _BOOL_WORDS:
            flags.append(f"--{flag}" if _BOOL_WORDS[raw.lower()] else f"--no-{flag}")
        else:
            raise UsageError(f"{path}:{lineno}: config key {key!r} expects a boolean, got {raw!r}")
    return flags


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="metavit", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.help, allow_abbrev=False)
        p.add_argument("--config", help="flat key=value config file")
        for key in command.keys:
            kind, default, khelp = CONFIG_KEYS[key]
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action=argparse.BooleanOptionalAction, default=default,
                               help=khelp)
            else:
                p.add_argument(flag, type=kind, default=default, help=khelp)
    return parser


def _load_image(path: str) -> Tensor:
    if path is None:
        raise UsageError("an --image path is required")
    if path.endswith(".ppm"):
        arr = fileio.read_ppm(path)
    else:
        _, arr = fileio.read_tensor_file(path)
    if not np.isfinite(arr).all():
        raise InputError(f"image {path} has NaN or infinite pixel values")
    return Tensor(arr)


def cmd_analyze(settings) -> int:
    fields = ("meta_len", "num_classes", "use_ca_stage", "use_meta_stem", "use_meta_pooling")
    # meta_len and num_classes default to None, the variant's own value
    spec = variant(settings["variant"],
                   **{key: settings[key] for key in fields if settings[key] is not None})
    report = complexity.count_model(spec, settings["input"], strict_dual=settings["strict_dual"])
    text = complexity.emit_report(report, settings["format"])
    print(text, end="")
    return 0


def _bench_rows_out(results) -> None:
    for r in results:
        row = r.row()
        print("  ".join(f"{k}={v}" for k, v in row.items()))


def cmd_bench(settings) -> int:
    mode = settings["mode"]
    if mode not in ("pair", "model", "both"):
        raise UsageError(f"bench mode must be pair, model, or both, got {mode!r}")
    os.makedirs(settings["out_dir"], exist_ok=True)
    results = []
    if mode in ("pair", "both"):
        dca, sa = bench_mod.bench_block_pair(
            settings["n"], settings["m"], settings["d"], settings["e"],
            iters=settings["iters"], warmup=settings["warmup"], seed=settings["seed"],
        )
        results += [dca, sa]
        print(f"speedup (sa.median / dca.median): {bench_mod.speedup(sa, dca):.3f}")
    if mode in ("model", "both"):
        spec = variant(settings["variant"])
        results.append(
            bench_mod.bench_model(
                spec, settings["input"], iters=settings["iters"],
                warmup=settings["warmup"], seed=settings["seed"],
            )
        )
    _bench_rows_out(results)
    out_path = os.path.join(settings["out_dir"], "bench.csv")
    with open(out_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=list(results[0].row()))
        writer.writeheader()
        for r in results:
            writer.writerow(r.row())
    print(f"wrote {out_path}")
    return 0


def cmd_gradcheck(settings) -> int:
    cases = gradcheck.run_suite(seed=settings["seed"])
    worst = 0.0
    for case in cases:
        status = "ok" if case.passed else "FAIL"
        print(f"{case.name:<24} max rel err {case.max_rel_err:.3e}  {status}")
        worst = max(worst, case.max_rel_err)
    print(f"max rel err: {worst:.3e} (tolerance {gradcheck.TOLERANCE:g})")
    return 0 if worst < gradcheck.TOLERANCE else 2


def cmd_train(settings) -> int:
    cfg = trainer.TrainConfig(
        steps=settings["steps"], batch_size=settings["batch_size"], lr=settings["lr"],
        optimizer=settings["optimizer"], weight_decay=settings["weight_decay"],
        seed=settings["seed"], label_smoothing=settings["label_smoothing"],
    )
    ds = trainer.make_synth(settings["samples"], settings["noise_sigma"], settings["seed"])
    model = Model(variant(settings["variant"], num_classes=3), seed=settings["seed"])
    history = trainer.train_toy(model, ds, cfg)
    accuracy = trainer.evaluate(model, ds)
    os.makedirs(settings["out_dir"], exist_ok=True)
    ckpt_path = settings["checkpoint"] or os.path.join(settings["out_dir"], "model.lmvt")
    ckpt.save_checkpoint(model, ckpt_path)
    hist_path = os.path.join(settings["out_dir"], "history.csv")
    with open(hist_path, "w", encoding="utf-8") as f:
        f.write(trainer.history_csv(history))
    if history:
        print(f"final step loss: {history[-1].loss:.4f}")
    print(f"train accuracy: {accuracy:.4f}")
    print(f"wrote {hist_path} and {ckpt_path}")
    return 0


def cmd_infer(settings) -> int:
    if not settings["checkpoint"]:
        raise UsageError("infer requires --checkpoint")
    model = ckpt.load_checkpoint(settings["checkpoint"])
    img = _load_image(settings["image"])
    with T.no_grad():
        logits = model.forward_classify(img)
    values = logits.data.reshape(-1)
    print("logits: " + " ".join(f"{v:.6f}" for v in values))
    print(f"argmax: {int(values.argmax())}")
    return 0


def cmd_attmap(settings) -> int:
    if settings["checkpoint"]:
        model = ckpt.load_checkpoint(settings["checkpoint"])
    else:
        model = Model(variant(settings["variant"]), seed=settings["seed"])
    img = _load_image(settings["image"])
    maps = export_attention_maps(model, img)
    os.makedirs(settings["out_dir"], exist_ok=True)
    for i, grid in enumerate(maps):
        fileio.write_pgm16(os.path.join(settings["out_dir"], f"map_{i:02d}.pgm"), grid)
    csv_path = os.path.join(settings["out_dir"], "attention_maps.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["token", "row", "col", "weight"])
        for i, grid in enumerate(maps):
            for r in range(grid.shape[0]):
                for c in range(grid.shape[1]):
                    writer.writerow([i, r, c, f"{grid[r, c]:.8e}"])
    print(f"wrote {len(maps)} maps to {settings['out_dir']}")
    return 0


COMMANDS: dict[str, Command] = {
    "analyze": Command("print the complexity report for a variant",
                       ("variant", "input", "meta_len", "num_classes", "format", "strict_dual",
                        "use_ca_stage", "use_meta_stem", "use_meta_pooling", "seed"),
                       cmd_analyze),
    "bench": Command("time dual cross-attention against standard attention",
                     ("mode", "n", "m", "d", "e", "iters", "warmup", "variant", "input",
                      "seed", "out_dir"),
                     cmd_bench),
    "gradcheck": Command("verify gradients against finite differences", ("seed",),
                         cmd_gradcheck),
    "train": Command("train the toy classifier on synthetic patterns",
                     ("variant", "steps", "batch_size", "lr", "optimizer", "weight_decay",
                      "label_smoothing", "samples", "noise_sigma", "seed", "out_dir",
                      "checkpoint"),
                     cmd_train),
    "infer": Command("load a checkpoint and print logits for an image",
                     ("checkpoint", "image", "seed"), cmd_infer),
    "attmap": Command("write per-meta-token attention maps for an image",
                      ("variant", "checkpoint", "image", "seed", "out_dir"), cmd_attmap),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError(f"a subcommand is required ({', '.join(COMMANDS)})")
        if args.config:  # the file's flags go first, so the command line's win
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + config_flags(args.config, args.command)
                                     + argv[at:])
        command = COMMANDS[args.command]
        settings = {key: getattr(args, key) for key in command.keys}
        if settings["seed"] < 0:
            raise UsageError(f"seed must be >= 0, got {settings['seed']}")
        print(f"seed: {settings['seed']}")
        return command.handler(settings)
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (MetavitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
