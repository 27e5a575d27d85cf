"""Record run directories for the replay corpus in this directory.

    python3 tests/data/runs/record.py PREFIX

runs every command shape the corpus covers, each at 1 and at 3 pipe trainer
slots, on the depth-8 ``8, 16`` sequential model, into ``PREFIX-s<slots>-<shape>``
here. The ``reduce-descriptor`` shape reads that model from a file written by
``save_descriptor`` (``family = descriptor``). tier-1 (``tests/test_cli.py``)
replays each directory byte for byte if this code reads the format its
``resolved.cfg`` records (``[run] format``), and expects the refusal otherwise.
The script only adds directories: it records each missing one of the prefix and
leaves every existing one as it is, so a directory recorded by older code is
never rewritten by newer code. The corpus holds the directories of each format
N under the prefix ``fN``: a change that raises ``config.FORMAT`` records
``record.py fN`` for the new N.

The trainer is this file too (``python3 record.py --train SEED [N]``, run from this
directory). Its answers are seeded and noisy, and the noise depends on the
request's position in the run (the counter that ends each run_id). So a repeated
request gets another answer, and each ninth request fails. For the shapes in
``EXITS`` it also exits with code 3 instead of replying to every N-th request, a
failure the bridge detects and records with its exit code; a later request
starts it afresh.
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
SEQUENTIAL = "depth = 8\nblock_widths = 8, 16\n"
DESCRIPTOR = "family = descriptor\ndescriptor = model.json\n"   # the same model, saved
# shape -> (command line, [model] section)
SHAPES = {
    "reduce-search": (["reduce", "--budget", "search"], SEQUENTIAL),
    "reduce-final": (["reduce", "--budget", "final"], SEQUENTIAL),
    "reduce-forward": (["reduce", "--direction", "forward", "--budget", "search"], SEQUENTIAL),
    "rd": (["rd", "--alphas", "1", "0.5", "--gnuplot"], SEQUENTIAL),
    "lesion-constant": (["lesion", "--kind", "constant", "--values", "2", "5"], SEQUENTIAL),
    "lesion-proportional": (["lesion", "--kind", "proportional", "--values", "1/2", "3/4"],
                            SEQUENTIAL),
    "lesion-macroblock": (["lesion", "--kind", "macroblock_scale", "--values", "0.5", "0.75"],
                          SEQUENTIAL),
    "reduce-descriptor": (["reduce", "--budget", "search"], DESCRIPTOR),
    "reduce-exits": (["reduce", "--budget", "search"], SEQUENTIAL),
}
EXITS = {"reduce-exits": 7}   # shape -> N: its trainer exits instead of replying to every N-th
SLOTS = (1, 3)
CONFIG = """\
[model]
{model}[oracle]
kind = external
trainer_cmd = python3 record.py --train {seed}{exits}
protocol = pipe
parallelism = {slots}
timeout_seconds = 60
"""


def train(seed: int, exits: int = 0) -> None:
    """Answer pipe requests: top1 saturates with the total width, less seeded noise.
    With ``exits``, exit with code 3 instead of answering every ``exits``-th request."""
    for line in sys.stdin:
        req = json.loads(line)
        n = int(req["run_id"].rsplit("-", 1)[1])
        if exits and n % exits == 0:
            sys.exit(3)
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
    for out in targets.values():
        if out.exists():
            print(f"{out.name}: recorded already, left as it is", file=sys.stderr)
    sys.path.insert(0, str(HERE.parents[2] / "src"))
    import chanreduce as cr
    from chanreduce import cli

    os.chdir(HERE)   # the trainer command names this file relative to here
    with tempfile.TemporaryDirectory() as tmp:
        cr.save_descriptor(cr.build_sequential_cnn(8, [8, 16]), Path(tmp, "model.json"))
        for (slots, shape), out in targets.items():
            if out.exists():
                continue
            argv, model = SHAPES[shape]
            cfg = Path(tmp, f"s{slots}.cfg")
            exits = f" {EXITS[shape]}" if shape in EXITS else ""
            cfg.write_text(CONFIG.format(model=model, seed=SEED, slots=slots, exits=exits),
                           encoding="utf-8")
            code = cli.main([*argv, "--config", str(cfg), "--out", str(out)])
            if code != 0:
                print(f"{out.name}: exit {code}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--train"]:
        train(*map(int, sys.argv[2:]))
    elif len(sys.argv) == 2:
        sys.exit(record(sys.argv[1]))
    else:
        sys.exit(__doc__)
