"""Record run directories for the replay corpus in this directory.

    python3 tests/data/runs/record.py PREFIX

runs every command shape the corpus covers, each at 1 and at 3 pipe trainer
slots, on the depth-8 ``8, 16`` sequential model, into ``PREFIX-s<slots>-<shape>``
here. tier-1 (``tests/test_cli.py``) replays each directory byte for byte. The
script only adds directories: it refuses to start when one it would write exists,
so a directory recorded by older code is never rewritten by newer code. Give the
directories of a new run format a new prefix.

The trainer is this file too (``python3 record.py --train SEED``, run from this
directory). Its answers are seeded and noisy, and the noise depends on the
request's position in the run (the counter that ends each run_id). So a repeated
request gets another answer, and each ninth request fails.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1
SHAPES = {
    "reduce-search": ["reduce", "--budget", "search"],
    "reduce-final": ["reduce", "--budget", "final"],
    "rd": ["rd", "--alphas", "1", "0.5", "--gnuplot"],
    "lesion-constant": ["lesion", "--kind", "constant", "--values", "2", "5"],
    "lesion-proportional": ["lesion", "--kind", "proportional", "--values", "1/2", "3/4"],
    "lesion-macroblock": ["lesion", "--kind", "macroblock_scale", "--values", "0.5", "0.75"],
}
SLOTS = (1, 3)
CONFIG = """\
[model]
depth = 8
block_widths = 8, 16
[oracle]
kind = external
trainer_cmd = python3 record.py --train {seed}
protocol = pipe
parallelism = {slots}
timeout_seconds = 60
"""


def train(seed: int) -> None:
    """Answer pipe requests: top1 saturates with the total width, less seeded noise."""
    for line in sys.stdin:
        req = json.loads(line)
        n = int(req["run_id"].rsplit("-", 1)[1])
        noise = random.Random(f"{seed}-{n}").uniform(0.0, 0.004)
        reply = {"run_id": req["run_id"], "wall_seconds": 1.0}
        if n % 9 == 0:
            reply.update(status="failed", note="seeded failure")
        else:
            reply.update(status="ok", top1=0.9 * min(1.0, sum(req["channels"][1:]) / 80) - noise)
        print(json.dumps(reply), flush=True)


def record(prefix: str) -> int:
    targets = {(slots, shape): HERE / f"{prefix}-s{slots}-{shape}"
               for slots in SLOTS for shape in SHAPES}
    taken = [str(t) for t in targets.values() if t.exists()]
    if taken:
        print("refusing to rewrite recorded directories: " + ", ".join(taken), file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE.parents[2] / "src"))
    from chanreduce import cli

    os.chdir(HERE)   # the trainer command names this file relative to here
    with tempfile.TemporaryDirectory() as tmp:
        for (slots, shape), out in targets.items():
            cfg = Path(tmp, f"s{slots}.cfg")
            cfg.write_text(CONFIG.format(seed=SEED, slots=slots), encoding="utf-8")
            code = cli.main([*SHAPES[shape], "--config", str(cfg), "--out", str(out)])
            if code != 0:
                print(f"{out.name}: exit {code}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--train"]:
        train(int(sys.argv[2]))
    elif len(sys.argv) == 2:
        sys.exit(record(sys.argv[1]))
    else:
        sys.exit(__doc__)
