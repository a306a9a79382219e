"""Pool the untraced child runs of every saved result, per workload.

Usage, from the repository root, after some `perfbench/run.py --trace 0` runs:

    python3 perfbench/pool.py

A single run of a long workload holds only a few children, too few for a tail
percentile.  This prints, per workload and metric, the median, the highest
percentile with at least ten samples beyond it, and the sample count, over the
passing children of all results saved in `.perfbench/`.
"""

import json
import sys

from run import OUT_DIR, timing


def pooled() -> dict:
    samples: dict = {}
    for path in sorted(OUT_DIR.glob("*-trace0-seed*.json")):
        record = json.loads(path.read_text())
        per = samples.setdefault(record["workload"], {"wall_s": [], "peak_rss_mb": [],
                                                      "setup_s": []})
        for child in record["children"]:
            if child["problems"]:
                continue
            if child["label"].startswith("setup-"):
                per["setup_s"].append(child["answers"]["setup_s"])
            else:
                per["wall_s"].append(child["wall_s"])
                per["peak_rss_mb"].append(child["peak_rss_mb"])
    return samples


def main() -> int:
    samples = pooled()
    if not samples:
        print(f"no saved results in {OUT_DIR}", file=sys.stderr)
        return 1
    for workload, per in samples.items():
        for metric, values in per.items():
            t = timing(values)
            line = f"{workload}: {metric} median {t['median']:.6g} over {t['n']}"
            if "tail" in t:
                line += f"; p{t['tail_percentile']} {t['tail']:.6g}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
