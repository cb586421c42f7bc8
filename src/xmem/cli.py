"""Command line entry point for replaying or generating feature streams.

Exit codes: 0 success, 1 runtime failure (e.g. malformed stream), 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import sys

from . import stream
from .core_types import ConfigError, StreamFormatError, XmemError
from .harness import run_stream, write_metrics_csv
from .pipeline import PipelineConfig

DEEP_UPDATE_FLAGS = {"rth": "every_rth", "every": "every_frame", "never": "never"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmem-stream",
        description="Replay a feature stream through the three-store memory "
        "engine and record per-frame memory/latency metrics.",
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
    parser.add_argument("--ck", type=int, default=64, help="key/query channels")
    parser.add_argument("--cv", type=int, default=512, help="value channels")
    parser.add_argument("--ch", type=int, default=64, help="sensory state channels")
    parser.add_argument(
        "--cin", type=int, default=None,
        help="sensory input channels (defaults to --ch)",
    )
    parser.add_argument(
        "--small", action="store_true",
        help="8x8 spatial preset for quick runs (overrides --height/--width)",
    )
    parser.add_argument("--r", type=int, default=10, help="insertion period in frames")
    parser.add_argument("--tmin", type=int, default=5, help="frames kept after consolidation")
    parser.add_argument("--tmax", type=int, default=10, help="frame cap triggering consolidation")
    parser.add_argument("--proto-p", type=int, default=128, help="prototypes per consolidation")
    parser.add_argument("--topk", type=int, default=30, help="retained elements per read column")
    parser.add_argument("--lt-max", type=int, default=10_000, help="long-term element cap")
    parser.add_argument(
        "--insert-offset", type=int, default=0,
        help="phase offset of the insertion schedule",
    )
    parser.add_argument(
        "--deep-update", choices=sorted(DEEP_UPDATE_FLAGS), default="rth",
        help="deep-update schedule for the sensory state",
    )
    parser.add_argument(
        "--strategy", choices=["usage", "random", "kmeans"], default="usage",
        help="prototype selection strategy",
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
    if args.tmax <= args.tmin:
        problems.append(f"--tmax ({args.tmax}) must exceed --tmin ({args.tmin})")
    if args.tmin < 2:
        problems.append(f"--tmin ({args.tmin}) must be >= 2")
    if args.r < 1:
        problems.append(f"--r ({args.r}) must be >= 1")
    if args.lt_max < args.proto_p:
        problems.append(
            f"--lt-max ({args.lt_max}) must be >= --proto-p ({args.proto_p})"
        )
    if not 0 <= args.insert_offset < args.r:
        problems.append(
            f"--insert-offset ({args.insert_offset}) must lie in [0, --r)"
        )
    if args.synthetic and args.frames < 1:
        problems.append(f"--frames ({args.frames}) must be >= 1")
    if args.synthetic and args.objects < 1:
        problems.append(f"--objects ({args.objects}) must be >= 1")
    if args.cin is not None and args.cin < 1:
        problems.append(f"--cin ({args.cin}) must be >= 1")
    if args.synthetic and args.drift < 0:
        problems.append(f"--drift ({args.drift}) must be >= 0")
    if args.stream_out and not args.synthetic:
        problems.append("--stream-out requires --synthetic")
    return problems


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    problems = _validate(args)
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return 2

    height, width = (8, 8) if args.small else (args.height, args.width)

    try:
        if args.input:
            header = stream.read_header(args.input)
            frames = stream.iter_frames(args.input)
        else:
            header = stream.StreamHeader(
                c_k=args.ck, c_v=args.cv, c_in=args.ch if args.cin is None else args.cin,
                h=height, w=width,
                frame_count=args.frames, object_count=args.objects,
            )
            if args.stream_out:
                stream.generate_synthetic(args.stream_out, args.seed, header, args.drift)
                frames = stream.iter_frames(args.stream_out)
            else:
                frames = stream.synthetic_frames(args.seed, header, args.drift)

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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StreamFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        pipeline, records = run_stream(frames, config, seed=args.seed)
        write_metrics_csv(args.metrics_out, records, no_timing=args.no_timing)
        if args.snapshot_out is not None:
            stream.write_lt_snapshot(args.snapshot_out, pipeline.tracks)
    except XmemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
