"""Write reference.json: verdicts on the gallery lattices at this commit.

    python3 perfbench/make_reference.py

Run it only to record a new reference on purpose; the benchmark checks
every later commit against the table it wrote.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from hodgebench import cli  # noqa: E402
from hodgebench.gallery import gallery_spec  # noqa: E402


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def compress(labels):
    default = max(set(labels), key=labels.count) if labels else "Elliptic"
    return {"default": default, "except": [i for i, x in enumerate(labels) if x != default]}


def classify_entry(name, samples):
    spec = gallery_spec(name)
    _, report = run(["classify", "--spec", name, "--samples", str(samples)])
    labels = [p["classification"] for p in report["points"]]
    entry = {"sampler": spec.sampler, "samples": samples}
    if spec.sampler == "sphere":
        entry["parts"] = {"sphere": compress(labels)}
    elif spec.sampler == "sphere_plus_locus":
        entry["locus_samples"] = spec.locus_samples
        entry["parts"] = {"sphere": compress(labels[:samples]),
                          "locus": compress(labels[samples:])}
    elif spec.sampler == "two_spheres":
        half = samples // 2
        entry["parts"] = {"outer": compress(labels[:half]), "inner": compress(labels[half:])}
    return entry


def main():
    top = round(workloads.CLASSIFY_SAMPLES * (1 + workloads.SAMPLES_BAND))
    ref = {"classify": {n: classify_entry(n, top) for n in workloads.CLASSIFY_SPECS},
           "convexity": {}, "levi": {}, "dsq": {}}
    for cmd in workloads.build("boundary", 0, HERE).commands:
        if cmd.kind == "convexity":
            code, r = run(cmd.argv)
            assert code == cmd.expect_code, (cmd.argv, code)
            ref["convexity"][cmd.check["spec"]] = {
                "samples": r["samples"],
                "non_elliptic_samples": r["non_elliptic_samples"],
                "rank": r["rank"],
                "q_set": r["q_set"],
                "witness_signatures": {q: w["signature"] for q, w in r["witnesses"].items()},
                "require_q_attained": r.get("require_q_attained"),
            }
        elif cmd.kind == "levi":
            _, r = run(cmd.argv)
            ref["levi"][cmd.check["spec"]] = [
                {k: p[k] for k in ("point", "classification", "signature")} for p in r["points"]
            ]
    for name in workloads.GALLERY_NAMES:
        _, r = run(["dsq", "--spec", name])
        ref["dsq"][name] = {k: r[k] for k in ("kind", "sample_points", "is_lie_algebroid_on_sample")}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
