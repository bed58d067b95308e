"""One sha256 over everything the benchmark's operations write.

Runs one pass of each perfbench workload (``perfbench/ops.py``, imported
read-only) through ``toruslab.cli.main`` in this process, at every seed
given, and hashes each operation's exit code, standard output and
artifacts, except ``manifest.json``, which records wall-clock time. Two
trees that print the same digest wrote the same bits.

It prints one line per operation, ``<sha256> <workload> <seed> <argv>``,
the sha256 of that operation's bytes alone, so that two trees whose
digests differ can be compared line by line to name the operations
whose bits moved. The last line is the digest over them all and the
number of items hashed.

The data files are named by the relative path ``src/toruslab/data``, as
``dsl check`` records its ``--file`` as given; the script therefore runs
from the repository root, wherever it is started:

    python3 tools/artifact_digest.py 1 2
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
os.chdir(ROOT)
sys.dont_write_bytecode = True  # leave no cache under perfbench/
sys.path[:0] = ["src", "perfbench"]

import ops  # noqa: E402
from toruslab import cli  # noqa: E402


def main(seeds):
    digest, items = hashlib.sha256(), 0
    for seed in seeds:
        for workload in sorted(ops.WORKLOADS):
            for op in ops.build(workload, seed, ops.SIZES["full"],
                                Path("src/toruslab/data")):
                with tempfile.TemporaryDirectory() as td:
                    sink = io.StringIO()
                    with contextlib.redirect_stdout(sink):
                        code = cli.main(list(op.argv) + ["--out", td])
                    chunks = [f"{code}\n{sink.getvalue()}\0".encode()]
                    files = sorted(p for p in Path(td).iterdir()
                                   if p.name != "manifest.json")
                    chunks += [path.name.encode() + b"\0"
                               + path.read_bytes() + b"\0" for path in files]
                    items += 1 + len(files)
                one = hashlib.sha256()
                for chunk in chunks:
                    digest.update(chunk)
                    one.update(chunk)
                print(f"{one.hexdigest()} {workload} {seed} "
                      f"{' '.join(op.argv)}")
    print(f"{digest.hexdigest()} {items} items")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [1])
