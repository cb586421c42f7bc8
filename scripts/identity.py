"""Check that the engine produces the same bytes as a trusted copy.

    python scripts/identity.py PARENT_SRC CHANGE_SRC
    python scripts/identity.py --write

The first form compares two copies of the engine. Each argument is a
directory holding the `xmem` package, such as a checkout's `src`. Both
copies run, each in its own interpreter with that directory first on
`PYTHONPATH`:

- a matrix of CLI runs (seed = objects = 1 and 2, each prototype strategy,
  with a snapshot), a `--stream-out` run and its `--input` replay, and a
  `--small --unbounded --deep-update every` run whose store outgrows its
  first buffers; each must exit 0, and their metrics CSV, stdout, stream and
  snapshot files are compared byte for byte;
- in-process replays at c_k 64 on an 8x8 grid, on a 12x24 grid (whose reads
  span several row blocks, so they run threaded) and on an unbounded 8x8
  grid (whose store outgrows its first buffers), each reduced to one blake2b
  digest of every readout, fused probability and sensory state, and of each
  track's final keys, shrinkage, values and usage, long-term and working.

It prints one line per comparison and exits 1 at the first difference.

The second form writes `tests/golden.json` from the engine on the import
path: one blake2b digest per run of `golden_digests` (the same in-process
replays, and `--small` CLI runs of the same kinds, called in-process), with
the numpy version, BLAS configuration and CPU vector extensions they were
computed under. `tests/test_golden.py` computes them again and compares.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
GOLDEN = SCRIPTS.parent / "tests" / "golden.json"

# engine flags after the synthetic header's: the `--input` replay passes only these
ENGINE = [
    "--ch", "4", "--r", "2", "--tmax", "6", "--tmin", "3", "--lt-max", "600",
    "--proto-p", "200", "--no-timing",
]
GEOMETRY = ["--synthetic", "--height", "30", "--width", "54", "--ck", "8", "--cv", "16",
            "--frames", "70"]
# the golden runs' 8x8 grid holds 192 candidates a consolidation, and its cap
# makes every consolidation after the third evict
SMALL_ENGINE = [
    "--ch", "4", "--r", "2", "--tmax", "6", "--tmin", "3", "--lt-max", "60",
    "--proto-p", "20", "--no-timing",
]
SMALL = ["--synthetic", "--small", "--ck", "8", "--cv", "16", "--frames", "70"]


def replay_digests() -> dict[str, str]:
    """One hex digest per in-process replay of the engine on the import path."""
    import numpy as np

    from xmem import Pipeline, PipelineConfig
    from xmem.stream import StreamHeader, synthetic_frames

    digests = {}
    for h, w, unbounded in ((8, 8, False), (12, 24, False), (8, 8, True)):
        header = StreamHeader(c_k=64, c_v=32, c_in=8, h=h, w=w, frame_count=40, object_count=2)
        config = PipelineConfig(
            dims=header.dims(c_h=8), r=2, t_min=2, t_max=4, p=3 * h * w // 4,
            l_max=2 * h * w, top_k=20, unbounded=unbounded,
        )
        frames = synthetic_frames(7, header, 0.1)
        pipeline = Pipeline(config, next(frames), seed=7)
        digest = hashlib.blake2b()
        for idx, features in enumerate(frames, start=1):
            for out in pipeline.step(features, idx):
                digest.update(out.readout.tobytes())
                digest.update(out.fused_probabilities.tobytes())
            for track in pipeline.tracks:
                digest.update(track.sensory.tobytes())
        for track in pipeline.tracks:
            memory, stored = track.memory, slice(0, track.memory.n)
            for block in (*memory.blocks(stored), memory.usage[stored]):
                digest.update(np.ascontiguousarray(block).tobytes())
        digests[f"{h}x{w}{' unbounded' if unbounded else ''}"] = digest.hexdigest()
    return digests


def _cli_runs(workdir: Path, synthetic: list[str], engine: list[str], seeds: tuple[str, ...]):
    """(name, argv, output files) of each CLI run writing into `workdir`, in
    order: the replay reads the stream an earlier run wrote."""
    for seed in seeds:
        for strategy in ("usage", "random", "kmeans"):
            name = f"seed{seed}-{strategy}"
            yield name, synthetic + engine + [
                "--seed", seed, "--objects", seed, "--strategy", strategy,
                "--metrics-out", str(workdir / f"{name}.csv"),
                "--snapshot-out", str(workdir / f"{name}.xmlt"),
            ], [f"{name}.csv", f"{name}.xmlt"]
    stream = str(workdir / "s.xmfs")
    yield "stream-out", synthetic + engine + [
        "--seed", "3", "--objects", "2", "--stream-out", stream,
        "--metrics-out", str(workdir / "direct.csv"),
        "--snapshot-out", str(workdir / "direct.xmlt"),
    ], ["s.xmfs", "direct.csv", "direct.xmlt"]
    yield "input-replay", ["--input", stream] + engine + [
        "--seed", "3",
        "--metrics-out", str(workdir / "replay.csv"),
        "--snapshot-out", str(workdir / "replay.xmlt"),
    ], ["replay.csv", "replay.xmlt"]
    yield "unbounded", [
        "--synthetic", "--small", "--ck", "8", "--cv", "16", "--ch", "4", "--frames", "60",
        "--r", "2", "--proto-p", "4", "--lt-max", "4", "--unbounded", "--deep-update", "every",
        "--seed", "4", "--no-timing",
        "--metrics-out", str(workdir / "unbounded.csv"),
    ], ["unbounded.csv"]


def golden_digests(workdir: Path) -> dict[str, str]:
    """One hex digest per golden run of the engine on the import path, in
    order: each `--small` CLI run's exit code, stdout and output files, run
    in-process in `workdir`, then each in-process replay."""
    from xmem import cli

    digests = {}
    for name, argv, files in _cli_runs(workdir, SMALL, SMALL_ENGINE, ("2",)):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        digest = hashlib.blake2b(f"{code}\n{stdout.getvalue()}".encode())
        for file in files:
            digest.update(file.encode())
            digest.update((workdir / file).read_bytes())
        digests[f"cli {name}"] = digest.hexdigest()
    return digests | {f"replay {name}": hex for name, hex in replay_digests().items()}


def environment() -> dict[str, object]:
    """What decides the engine's floating-point bytes besides its code: the
    numpy version, the BLAS build and the CPU's vector extensions. OpenBLAS
    picks its kernels for the CPU it runs on, so its build string alone does
    not say which ran."""
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas['name']} {blas['version']}",
        "cpu_vector_extensions": config["SIMD Extensions"]["found"],
    }


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        golden = {"environment": environment(), "digests": golden_digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {len(golden['digests'])} digests to {GOLDEN}")


def _run(src: Path, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    # this script's directory comes after the engine, for `import identity`
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(SCRIPTS))))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, check=False
    )


def _differs(name: str, a: bytes, b: bytes) -> bool:
    same = a == b
    print(f"{'same' if same else 'DIFFERENT'}  {name} ({len(a)} / {len(b)} bytes)")
    return not same


def compare(sides: list[Path]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / "parent", Path(tmp) / "change"]
        for d in dirs:
            d.mkdir()
        runs = (_cli_runs(d, GEOMETRY, ENGINE, ("1", "2")) for d in dirs)
        for (name, run_a, files), (_, run_b, _) in zip(*runs):
            a, b = (
                _run(src, ["-m", "xmem.cli", *run], d)
                for src, run, d in zip(sides, (run_a, run_b), dirs)
            )
            if a.returncode or b.returncode:
                print(f"FAILED  {name}: exit codes {a.returncode} / {b.returncode}")
                print(a.stderr.decode() + b.stderr.decode())
                return 1
            if _differs(f"{name}: stdout", a.stdout, b.stdout):
                return 1
            for file in files:
                if _differs(f"{name}: {file}", *((d / file).read_bytes() for d in dirs)):
                    return 1

        digests = []
        for src, d in zip(sides, dirs):
            printer = "import identity\nfor replay in identity.replay_digests().items(): print(*replay)"
            proc = _run(src, ["-c", printer], d)
            if proc.returncode != 0:
                print(f"digest run failed with {src}:\n{proc.stderr.decode()}")
                return 1
            digests.append(proc.stdout)
        print(digests[0].decode().rstrip())
        if _differs("in-process digests", *digests):
            print(digests[1].decode().rstrip())
            return 1
    print("identical")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, nargs="?")
    parser.add_argument("change_src", type=Path, nargs="?")
    parser.add_argument(
        "--write", action="store_true",
        help=f"write {GOLDEN.name} from the engine on the import path instead",
    )
    args = parser.parse_args(argv)
    if args.write:
        if args.parent_src:
            parser.error("--write takes no source directories")
        write_golden()
        return 0
    if not args.change_src:
        parser.error("give two source directories, or --write")
    sides = [args.parent_src.resolve(), args.change_src.resolve()]
    for src in sides:
        if not (src / "xmem" / "__init__.py").is_file():
            parser.error(f"{src} holds no xmem package")
    return compare(sides)


if __name__ == "__main__":
    sys.exit(main())
