"""Command-line interface.

    esobank run <config.json> [--out DIR] [--long]
    esobank preset <name> [--out DIR] [--long] [--show]
    esobank verify [--only name[,name...]]
    esobank sweep <config.json> --param <dotted.path> --values v1,v2,... [--out DIR]

Output directory resolution: --out flag, then $ESOBANK_OUT, then the current
directory. Exit codes: 0 success, 1 configuration error, 2 numerical
divergence, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .errors import ConfigError, DivergenceError
from .harness import ScenarioConfig, make_preset, preset_names, run_scenario, sweep

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_VERIFY = 3


def _out_dir(args, cfg=None):
    out = (
        args.out
        or (cfg.output_dir if cfg is not None else None)
        or os.environ.get("ESOBANK_OUT")
        or "."
    )
    os.makedirs(out, exist_ok=True)
    return out


def _load_config(path):
    try:
        with open(path) as fh:
            return ScenarioConfig.from_json(fh.read())
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None


def _run_and_write(cfg, args):
    trace, metrics = run_scenario(cfg)
    out = _out_dir(args, cfg)
    trace_path = os.path.join(out, f"{cfg.name}_trace.csv")
    trace.write_csv(trace_path)
    report_path = os.path.join(out, f"{cfg.name}_metrics.txt")
    with open(report_path, "w") as fh:
        fh.write(metrics.to_text())
    if getattr(args, "long", False):
        long_path = os.path.join(out, f"{cfg.name}_trace_long.csv")
        trace.write_long_csv(long_path)
        print(f"wrote {long_path}")
    print(f"wrote {trace_path}")
    print(f"wrote {report_path}")
    for law, value in metrics.iae.items():
        print(f"IAE[{law}] = {value:.9g}")
    print(f"switches = {metrics.switch_count}")
    return EXIT_OK


def _cmd_run(args):
    cfg = _load_config(args.config)
    return _run_and_write(cfg, args)


def _cmd_preset(args):
    cfg = make_preset(args.name)
    if args.show:
        print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    out = _out_dir(args, cfg)
    cfg_path = os.path.join(out, f"{cfg.name}_config.json")
    with open(cfg_path, "w") as fh:
        fh.write(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {cfg_path}")
    return _run_and_write(cfg, args)


def _cmd_verify(args):
    from .verify import verify_suite

    names = args.only.split(",") if args.only else None
    try:
        results = verify_suite(names=names)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_VERIFY if failed else EXIT_OK


def _parse_values(text):
    values = []
    for item in text.split(","):
        item = item.strip()
        try:
            values.append(json.loads(item))
        except json.JSONDecodeError:
            values.append(item)
    return values


def _cmd_sweep(args):
    cfg = _load_config(args.config)
    values = _parse_values(args.values)
    results = sweep(cfg, args.param, values)
    out = _out_dir(args, cfg)
    path = os.path.join(out, f"{cfg.name}_sweep.csv")
    with open(path, "w") as fh:
        fh.write(f"# sweep over {args.param}\n")
        fh.write("value,iae_multi,sup_multi,switch_count\n")
        for value, metrics in results:
            fh.write(
                f"{value},{metrics.iae['multi']:.9g},"
                f"{metrics.sup_tracking_error['multi']:.9g},"
                f"{metrics.switch_count}\n"
            )
    print(f"wrote {path}")
    for value, metrics in results:
        print(f"{args.param}={value}: IAE[multi]={metrics.iae['multi']:.9g}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="esobank",
        description="parallel multi-observer ADRC simulation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--long", action="store_true",
                       help="also write a long-format trace for plotting")
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="run a named preset")
    p_preset.add_argument("name", choices=preset_names())
    p_preset.add_argument("--out", default=None)
    p_preset.add_argument("--long", action="store_true")
    p_preset.add_argument("--show", action="store_true",
                          help="print the preset config instead of running")
    p_preset.set_defaults(func=_cmd_preset)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--only", default=None,
                          help="comma-separated subset of check names")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="sweep one config parameter")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True,
                         help="dotted path, e.g. plant.disturbance.amplitude")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None):
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
