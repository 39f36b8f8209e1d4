"""The benchmark's yardstick for host speed: fixed work that uses no package code.

The benchmark's host is a shared virtual machine whose speed moves by up
to 1.5x in phases of minutes.  run.py starts this script, as it starts a
CLI command, before every command and every cold start, and divides the
run's time metrics by the median time of these runs (see README.md).

The work mirrors what the CLI does: start the interpreter and import
numpy, format and parse floats as the CSV paths do, and run vectorised
numpy on a 100k-sample array.  It prints a checksum, so that no step can
be skipped, and exits 0.
"""

import numpy as np

N_TEXT = 10_000
N_ARRAY = 100_000


def main() -> None:
    x = np.linspace(25.0, 85.0, N_TEXT)
    y = np.exp((x - 60.0) / 15.0)
    text = "\n".join(f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist()))
    back = [tuple(map(float, line.split(","))) for line in text.splitlines()]
    total = sum(b for _, b in back)
    t = np.linspace(25.0, 85.0, N_ARRAY)
    for _ in range(8):
        p = np.exp((t - 60.0) / 15.0) + 0.5
        coef = np.linalg.lstsq(np.vander(t, 3), p, rcond=None)[0]
        total += float(coef.sum()) + float(np.sqrt(np.square(p).sum()))
    print(repr(total))


if __name__ == "__main__":
    main()
