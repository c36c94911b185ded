"""Command-line interface.

Exit codes: 0 = success, 1 = run finished with failed prompts,
2 = invalid configuration or input.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .controller import POLICY_KINDS, restore_memory
from .errors import SteerlabError
from .evaluate import write_csv
from .harness import (
    ArmsResult,
    ExperimentSpec,
    load_samples_csv,
    run_generate,
    run_sweep,
    run_window_ablation,
)
from .render import render_scatter
from .worldfile import default_world_path, load_world


def _parse_target(text: str) -> dict[str, dict[str, float]]:
    """Parse 'gender=male:0.6,female:0.4;age=young:0.5,old:0.5'."""
    target: dict[str, dict[str, float]] = {}
    for part in text.split(";"):
        attr, _, rest = part.partition("=")
        if not rest:
            raise ValueError(f"bad fragment {part!r}")
        dist = {}
        for pair in rest.split(","):
            value, _, prop = pair.partition(":")
            if not prop:
                raise ValueError(f"bad proportion {pair!r}")
            dist[value] = float(prop)
        target[attr.strip()] = dist
    return target


def _parse_window(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'lo,hi', got {text!r}")
    return float(parts[0]), float(parts[1])


# Override flag -> (spec field, parser of the flag's value).
_OVERRIDES = (("seed", "seed", None), ("memory", "memory_path", None), ("policy", "policy", None),
              ("gamma", "gamma", None), ("window", "window", _parse_window),
              ("target", "target", _parse_target))


def _load_spec(args) -> ExperimentSpec:
    """The config file with the given override flags, checked as one config."""
    overrides = {}
    for flag, key, parse in _OVERRIDES:
        value = getattr(args, flag)
        if value is not None:
            try:
                overrides[key] = parse(value) if parse else value
            except ValueError as exc:
                raise ValueError(f"config key {key!r} from --{flag}: {exc}") from None
    return ExperimentSpec.from_file(args.config, overrides)


def _cmd_generate(args) -> int:
    result = run_generate(_load_spec(args), out_dir=args.out)
    for prompt_id, message in result.failures:
        print(f"failed prompt {prompt_id}: {message}", file=sys.stderr)
    if result.report is not None:
        print(f"bias_combined={result.report.combined:.6f} "
              f"quality={result.report.quality:.6f} "
              f"prompts={result.report.n_prompts} samples={len(result.samples)}")
    return 1 if result.failures else 0


def _print_arms(result: ArmsResult) -> int:
    """Print one line per arm; the exit code is 1 if any arm lost prompts."""
    for row in result.rows:
        print(f"arm {row.arm}: {row.label} bias={row.bias:.6f} quality={row.quality:.6f}")
    return 1 if any(r.failures for r in result.results) else 0


def _cmd_sweep(args) -> int:
    result = run_sweep(_load_spec(args), out_dir=args.out)
    code = _print_arms(result)
    print(f"avg_bias={result.avg_bias:.6f} std_bias={result.std_bias:.6f}")
    return code


def _cmd_ablate_window(args) -> int:
    return _print_arms(run_window_ablation(_load_spec(args), out_dir=args.out))


def _cmd_inspect_memory(args) -> int:
    memory, prompts_seen = restore_memory(args.memory)
    counts = [{f"{attr}={v}": n for attr, vals in c.counts.items() for v, n in vals.items()}
              for c in memory.clusters]
    names = sorted(set().union(*counts))
    dim = len(memory.clusters[0].centroid) if memory.clusters else 0
    rows = [[i, c.total, *c.centroid.tolist(), *(n.get(name, 0) for name in names)]
            for i, (c, n) in enumerate(zip(memory.clusters, counts))]
    write_csv(args.out or sys.stdout, "memory",
              {"budget": memory.budget, "tau": memory.tau, "prompts_seen": prompts_seen},
              ["cluster", "total", *(f"centroid{k}" for k in range(dim)), *names], rows)
    return 0


def _cmd_render(args) -> int:
    world = load_world(args.world if args.world else default_world_path())
    points, labels, _ = load_samples_csv(args.samples, world.schema.names())
    if points.shape[1] != world.dimension:
        raise ValueError(f"{args.samples}: {points.shape[1]} coordinate columns but the world "
                         f"has dimension {world.dimension}")
    render_scatter(points, labels, world, args.out, attribute=args.attribute)
    print(f"wrote {args.out}")
    return 0


def _cmd_validate_world(args) -> int:
    world = load_world(args.world)
    print(f"ok: dimension={world.dimension} concepts={list(world.concepts)} "
          f"attributes={[a.name for a in world.schema.attributes]} "
          f"components={len(world.components)} digest={world.digest()}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="steerlab",
        description="Attribute-steered diffusion sampling over analytic mixture worlds.",
    )
    parser.add_argument("--version", action="version", version=f"steerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--memory", default=None, help="override memory file path")
        p.add_argument("--policy", default=None,
                       choices=["vanilla", *POLICY_KINDS])
        p.add_argument("--gamma", type=float, default=None, help="override blend ratio")
        p.add_argument("--window", default=None, help="override window as 'lo,hi'")
        p.add_argument("--target", default=None,
                       help="override target, e.g. 'gender=male:0.5,female:0.5'")

    p = sub.add_parser("generate", help="run one generation arm")
    common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("sweep", help="run one arm per sweep target")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("ablate-window", help="run one arm per guidance window")
    common(p)
    p.set_defaults(func=_cmd_ablate_window)

    p = sub.add_parser("inspect-memory", help="dump a memory file as CSV")
    p.add_argument("--memory", required=True, help="memory file path")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.set_defaults(func=_cmd_inspect_memory)

    p = sub.add_parser("render", help="render a samples.csv scatter to SVG")
    p.add_argument("--samples", required=True, help="samples.csv from a generate run")
    p.add_argument("--world", default=None, help="world file (default: packaged world)")
    p.add_argument("--out", required=True, help="SVG output path")
    p.add_argument("--attribute", default=None, help="attribute to color by")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("validate-world", help="parse and validate a world file")
    p.add_argument("--world", required=True, help="world file path")
    p.set_defaults(func=_cmd_validate_world)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SteerlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
