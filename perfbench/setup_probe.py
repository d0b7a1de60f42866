"""One set-up of a workload in a fresh interpreter, timed from the inside.

Usage: python3 perfbench/setup_probe.py '<json spec>'

The spec names the source directory, the ``make_planted`` arguments and,
for workloads that read a CSV, the file to write.  Prints, as a JSON list,
the seconds spent on import, input generation and the CSV write, net of
the reference samples taken meanwhile, and the same time normalised to the
nominal host speed (see ``calibrate.py``).  A set-up too short for
``MIN_SAMPLES`` timer samples is scaled by the speed of ``REF_SAMPLES``
samples taken right after it.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from calibrate import Sampler, normalised, speed, time_reference  # noqa: E402

REF_SAMPLES = 50


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    with Sampler() as sampler:
        from dmc_gawar.data import save_csv
        from dmc_gawar.synthetic import make_planted

        dataset = make_planted(*spec["planted"])
        if spec["csv"]:
            save_csv(dataset.matrix, dataset.labels, spec["csv"])
        elapsed = time.perf_counter() - STARTED
    after = speed(time_reference(REF_SAMPLES))
    print(json.dumps(normalised(elapsed, sampler.window(STARTED, STARTED + elapsed), after)))


if __name__ == "__main__":
    main()
