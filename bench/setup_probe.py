"""One fresh-process set-up of advlab, timed phase by phase: import, config
parsing, dataset build and, if given, checkpoint loading. Prints one JSON
object. ``run.py`` starts it several times and reports the median total.

    PYTHONPATH=src python3 bench/setup_probe.py CONFIG [CHECKPOINT]
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from advlab import cli  # noqa: E402  (what the advlab command imports)

t1 = time.perf_counter()
config = cli.load_config(sys.argv[1])
t2 = time.perf_counter()
train_set, test_set = config.build_datasets()
t3 = time.perf_counter()
if len(sys.argv) > 2:
    cli.load_checkpoint(sys.argv[2])
t4 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1, "data_s": t3 - t2,
                  "checkpoint_s": t4 - t3, "total_s": t4 - t0}))
