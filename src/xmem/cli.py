"""Command line entry point for replaying or generating feature streams.

Engine flags take their defaults and choices from `PipelineConfig` and
`FeatureDims`, which check them; `_validate` checks the other flags. Nothing
is read past a stream's header, and nothing is written, until all pass.
Each broken rule gets its own `error:` line, naming fields by their flags.
The configuration is checked only once its dimensions are valid.

Exit codes: 0 success; 1 runtime failure, reported on one `error:` line (a
malformed stream with its byte offset, a missing or unwritable file with its
path, an allocation the machine cannot serve with its size); 2 usage or
configuration error. An output that fails part-way is removed, and only it.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import get_args

from . import stream
from .core_types import ConfigError, FeatureDims, XmemError
from .harness import run_stream, write_metrics_csv
from .pipeline import PipelineConfig, PrototypeStrategy

DEEP_UPDATE_FLAGS = {"rth": "every_rth", "every": "every_frame", "never": "never"}
# each PipelineConfig field's integer flag and help; error lines name it by its flag
FIELD_FLAGS = {
    "sensory_input_channels": ("--cin", "sensory input channels (None: --ch)"),
    "r": ("--r", "insertion period in frames"),
    "t_min": ("--tmin", "frames kept after consolidation"),
    "t_max": ("--tmax", "frame cap triggering consolidation"),
    "p": ("--proto-p", "prototypes per consolidation"),
    "top_k": ("--topk", "retained elements per read column"),
    "l_max": ("--lt-max", "long-term element cap"),
    "insert_offset": ("--insert-offset", "phase offset of the insertion schedule"),
}
# each FeatureDims and stream header field's flag; c_in is --ch's when --cin is unset
DIM_FLAGS = {
    "h": "--height", "w": "--width", "c_k": "--ck", "c_v": "--cv", "c_h": "--ch",
    "c_in": "--cin", "frame_count": "--frames", "object_count": "--objects",
}


def build_parser() -> argparse.ArgumentParser:
    # h and w have no defaults; every other field keeps its own
    defaults = PipelineConfig(FeatureDims(h=1, w=1))
    parser = argparse.ArgumentParser(
        prog="xmem-stream",
        description="Replay a feature stream through the three-store memory "
        "engine and record per-frame memory/latency metrics.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="FILE", help="stream file to replay")
    source.add_argument(
        "--synthetic", action="store_true", help="generate a synthetic stream"
    )
    parser.add_argument("--frames", type=int, default=100, help="synthetic frame count")
    parser.add_argument("--seed", type=int, default=0, help="stream and pipeline seed")
    parser.add_argument(
        "--drift", type=float, default=0.05, help="per-frame random-walk step size"
    )
    parser.add_argument("--objects", type=int, default=1, help="synthetic object count")
    parser.add_argument("--height", type=int, default=30)
    parser.add_argument("--width", type=int, default=54)
    parser.add_argument("--ck", type=int, default=defaults.dims.c_k, help="key/query channels")
    parser.add_argument("--cv", type=int, default=defaults.dims.c_v, help="value channels")
    parser.add_argument("--ch", type=int, default=defaults.dims.c_h, help="sensory state channels")
    parser.add_argument(
        "--small", action="store_true",
        help="8x8 spatial preset for quick runs (overrides --height/--width)",
    )
    for field, (flag, text) in FIELD_FLAGS.items():
        parser.add_argument(flag, type=int, default=getattr(defaults, field), help=text)
    parser.add_argument(
        "--deep-update", choices=sorted(DEEP_UPDATE_FLAGS),
        default={mode: flag for flag, mode in DEEP_UPDATE_FLAGS.items()}[
            defaults.deep_update_mode
        ],
        help="deep-update schedule for the sensory state",
    )
    parser.add_argument(
        "--strategy", choices=get_args(PrototypeStrategy),
        default=defaults.prototype_strategy, help="prototype selection strategy",
    )
    parser.add_argument(
        "--unbounded", action="store_true",
        help="disable consolidation and the working-memory cap (growth baseline)",
    )
    parser.add_argument("--metrics-out", required=True, metavar="PATH")
    parser.add_argument(
        "--no-timing", action="store_true",
        help="zero the read_duration_ns column for byte-exact replay diffs",
    )
    parser.add_argument(
        "--snapshot-out", metavar="PATH", default=None,
        help="write the final long-term store to this file",
    )
    parser.add_argument(
        "--stream-out", metavar="PATH", default=None,
        help="also persist the generated synthetic stream",
    )
    return parser


def _validate(args) -> list[str]:
    problems = []
    if args.synthetic and args.frames < 1:
        problems.append(f"--frames ({args.frames}) must be >= 1")
    if args.synthetic and args.objects < 1:
        problems.append(f"--objects ({args.objects}) must be >= 1")
    if args.seed < 0:
        problems.append(f"--seed ({args.seed}) must be >= 0")
    if args.synthetic and not (math.isfinite(args.drift) and args.drift >= 0):
        problems.append(f"--drift ({args.drift}) must be finite and >= 0")
    if args.stream_out is not None and not args.synthetic:
        problems.append("--stream-out requires --synthetic")
    return problems


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problems = _validate(args)
    height, width = (8, 8) if args.small else (args.height, args.width)
    try:
        # a stream's header is read, and its configuration checked, only once
        # the other flags pass; a synthetic run's is checked along with them
        if problems and args.input is not None:
            raise ConfigError()
        if args.input is not None:
            header = stream.read_header(args.input)
        else:
            header = stream.StreamHeader(
                c_k=args.ck, c_v=args.cv, c_in=args.ch if args.cin is None else args.cin,
                h=height, w=width,
                frame_count=args.frames, object_count=args.objects,
            )
        config = PipelineConfig(
            dims=header.dims(c_h=args.ch),
            r=args.r,
            t_min=args.tmin,
            t_max=args.tmax,
            p=args.proto_p,
            top_k=args.topk,
            l_max=args.lt_max,
            deep_update_mode=DEEP_UPDATE_FLAGS[args.deep_update],
            prototype_strategy=args.strategy,
            insert_offset=args.insert_offset,
            unbounded=args.unbounded,
            sensory_input_channels=header.c_in,
        )
        if problems:
            raise ConfigError()
        if args.input is not None:
            frames = stream.iter_frames(args.input)
        elif args.stream_out is not None:
            stream.generate_synthetic(args.stream_out, args.seed, header, args.drift)
            frames = stream.iter_frames(args.stream_out)
        else:
            frames = stream.synthetic_frames(args.seed, header, args.drift)
        pipeline, records = run_stream(frames, config, seed=args.seed)
        write_metrics_csv(args.metrics_out, records, no_timing=args.no_timing)
        if args.snapshot_out is not None:
            stream.write_lt_snapshot(args.snapshot_out, [t.memory for t in pipeline.tracks])
    except ConfigError as exc:
        flags = {**DIM_FLAGS, **{field: flag for field, (flag, _) in FIELD_FLAGS.items()}}
        if args.cin is None:
            flags["c_in"] = "--ch"
        for problem in problems + list(exc.args):
            named = re.sub(r"\w+", lambda word: flags.get(word[0], word[0]), problem)
            print(f"error: {named}", file=sys.stderr)
        return 2
    except (XmemError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
