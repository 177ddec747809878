"""Record the random-check report digests for the digest seed.

Usage, from the repository root:  python3 perfbench/record_digests.py

The digests freeze today's byte-identical ``atmod/1`` output; the
benchmark compares the reports of its digest seed against them.
Re-record only when a change to the report is intended.
"""

import json
import os
import sys
import tempfile
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from atmod import kernels  # noqa: E402

COUNT = 400


def main():
    digests = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        path = os.path.join(tmp, "input.at")
        for theory in islice(gen.random_stream(run.DIGEST_SEED), COUNT):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(theory.text)
            _, code, out = run.run_one(["check", path, "--format", "json"])
            problem = code if isinstance(code, str) \
                else check.check_random(out, code, theory)
            if problem:
                sys.exit("%s: %s" % (theory.name, problem))
            digests.append(check.digest(out, kernels.BACKEND))
    with open(check.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=0)
        handle.write("\n")


if __name__ == "__main__":
    main()
