"""Command-line entry point: one subcommand per pipeline stage, with the
per-directory ones, their order and their help taken from pipeline.STAGES.

Exit codes: 0 success, 1 pipeline error (diagnostic on stderr),
2 usage error (argparse).
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor

from .config import ConfigError, load_config, save_config
from .io import ParseError
from .records import SkillLevel
from . import pipeline


def _at_least_one(text: str) -> int:
    """``text`` as a whole number of at least 1, else a usage error."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"expected a whole number of at least 1, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    # --config/--seed are accepted before or after the subcommand; the
    # SUPPRESS defaults keep an absent trailing flag from clobbering a
    # leading one
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=argparse.SUPPRESS,
                        help="YAML config; defaults apply where unset")
    common.add_argument("--seed", type=int, metavar="N",
                        default=argparse.SUPPRESS,
                        help="override the config seed")

    parser = argparse.ArgumentParser(
        prog="microact",
        description="surgical action segmentation and skill assessment "
                    "from instrument detection streams")
    parser.add_argument("--config", metavar="PATH", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, metavar="N", default=None,
                        help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic procedure")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.add_argument("--level", choices=[str(v).lower() for v in SkillLevel],
                   help="preset sloppiness for a skill grade")

    for name, fn_name, when in pipeline.STAGES:
        doc = getattr(pipeline, fn_name).__doc__
        p = sub.add_parser(name, parents=[common],
                           help=doc.splitlines()[0].lower().rstrip("."))
        p.add_argument("proc_dir", metavar="DIR")
        if when == "model":
            p.add_argument("--model", required=True, metavar="MODEL")

    p = sub.add_parser("train-skill", parents=[common],
                       help="fit the skill classifier on scored procedures")
    p.add_argument("proc_dirs", nargs="+", metavar="DIR")
    p.add_argument("--out", required=True, metavar="MODEL",
                   help="where to write the model JSON")
    p.add_argument("--summary", metavar="PATH",
                   help="also write a training summary JSON")

    p = sub.add_parser("run-all", parents=[common],
                       help="run every stage on one or more procedures")
    p.add_argument("proc_dirs", nargs="+", metavar="DIR")
    p.add_argument("--jobs", type=_at_least_one, default=1, metavar="N",
                   help="procedures processed concurrently")
    p.add_argument("--model", metavar="MODEL",
                   help="skill model; adds the predict-skill stage")

    p = sub.add_parser("init-config", parents=[common],
                       help="write the default config to a file")
    p.add_argument("--out", required=True, metavar="PATH")
    return parser


def _echo(stage: str, result: dict) -> None:
    parts = []
    for key, val in result.items():
        if isinstance(val, float):
            parts.append(f"{key}={val:.4g}")
        elif isinstance(val, (str, int, bool, list)):
            parts.append(f"{key}={val}")
    print(f"[{stage}] " + " ".join(parts))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stages = {name: (fn_name, when) for name, fn_name, when in pipeline.STAGES}
    try:
        overrides = {"seed": args.seed} if args.seed is not None else None
        cfg = load_config(args.config, overrides=overrides)

        if args.command == "synth":
            level = SkillLevel.from_name(args.level) if args.level else None
            _echo("synth", pipeline.stage_synth(args.out_dir, cfg, level=level))
        elif args.command in stages:
            fn_name, when = stages[args.command]
            extra = {"model_path": args.model} if when == "model" else {}
            result = getattr(pipeline, fn_name)(args.proc_dir, cfg, **extra)
            if args.command == "predict-skill":
                for action, d in sorted(result["summary"].items()):
                    print(f"[predict-skill] {action}: {d['level']} "
                          f"({d['n_segments']} segments)")
            else:
                _echo(args.command, result)
        elif args.command == "train-skill":
            result = pipeline.train_skill(args.proc_dirs, cfg, args.out,
                                          summary_path=args.summary)
            _echo("train-skill", {k: v for k, v in result.items()
                                  if k != "cv"})
            if result.get("cv"):
                print(f"[train-skill] cv accuracy={result['cv']['accuracy']:.3f}")
        elif args.command == "run-all":
            dirs = args.proc_dirs
            if args.jobs > 1 and len(dirs) > 1:
                with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                    runs = pool.map(pipeline.run_all, dirs, [cfg] * len(dirs),
                                    [args.model] * len(dirs))
                    for d, _ in zip(dirs, runs):
                        print(f"[run-all] {d} done")
            else:
                for d in dirs:
                    pipeline.run_all(d, cfg, model_path=args.model)
                    print(f"[run-all] {d} done")
        elif args.command == "init-config":
            save_config(cfg, args.out)
            print(f"[init-config] wrote {args.out}")
    except (ConfigError, ParseError, pipeline.MissingInput,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
