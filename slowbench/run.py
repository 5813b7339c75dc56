#!/usr/bin/env python3
"""slowcc benchmark: build, run one workload, compare result sets, self-test.

  python3 slowbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 slowbench/run.py compare OLD NEW
  python3 slowbench/run.py selftest
  SLOWCC_REGEN_GOLDEN=1 python3 slowbench/run.py regen

A run builds the benchmark (CMake, from ../src) into $CARGO_TARGET_DIR
(default .bench_build), runs the workload, stores the full result with
its fingerprint under <build>/results/, and prints as its last line
one JSON object with the keys correct, attempted, failed and metrics.
See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
WORKLOADS = ("fig03_tcp", "fig14_tfrc")


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "slowbench"


def build():
    """Configure (once) and build; returns the benchmark binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("slowbench: slowcc sources not found at %s/src" % ROOT)
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840)
        if proc.returncode != 0:
            raise SystemExit("slowbench: build step failed: %s" % " ".join(cmd))
    return out / "slowbench"


def run_binary(binary, args, timeout=170):
    """Run the benchmark binary; returns (exit code, human lines, RESULT dict or None)."""
    proc = subprocess.run([str(binary), "--root", str(ROOT)] + args,
                          stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    lines, result = [], None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            lines.append(line)
    return proc.returncode, lines, result


def source_digest():
    """sha256 over the sources the benchmark builds and reads."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "specs", HERE.name)
                   for p in (ROOT / d).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def cmd_run(args):
    binary = build()
    load_start = os.getloadavg()
    started = time.time()
    ref = REFERENCE / (args.workload + ".txt")
    out = Path(args.out) if args.out else build_dir() / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = "%s-t%d-s%d-%d" % (args.workload, args.trace, args.seed,
                              int(started * 1000))
    extra = ["--spans", str(out / (name + ".spans.jsonl"))] if args.trace else []
    code, lines, result = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--reference", str(ref)] + extra)
    for line in lines:
        print(line)
    if result is None:
        print("slowbench: benchmark binary exited %d without a result" % code,
              file=sys.stderr)
        return code or 2
    build_info = result.pop("build")
    result["fingerprint"] = {
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "flags": build_info["flags"].strip(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "started_at": started,
    }
    fp = result["fingerprint"]
    print("fingerprint: rev %s src %s, %s %s, nproc %d, load %.2f -> %.2f" % (
        fp["git_rev"][:12], fp["source_digest"], fp["compiler"],
        fp["build_type"], fp["nproc"], fp["loadavg_start"][0],
        fp["loadavg_end"][0]))
    (out / (name + ".json")).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return code


# ---- compare ------------------------------------------------------------

def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_results(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        r = json.loads(f.read_text())
        out.setdefault((r["workload"], r["trace"]), []).append(r)
    for runs in out.values():
        runs.sort(key=lambda r: r["fingerprint"]["started_at"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(old, new, better, bound):
    """Verdict for one metric: improved, unchanged, regressed or unresolved."""
    sign = -1.0 if better == "lower" else 1.0
    m_old, m_new = statistics.median(old), statistics.median(new)
    q1, q3 = quartiles(old)
    spread = q3 - q1
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    losses = sum(1 for o, n in pairs if sign * (n - o) < 0)
    win_frac = wins / len(pairs)
    gain = sign * (m_new - m_old)
    all_better = all(sign * (n - o) > 0 for n in new for o in old)
    if win_frac >= 0.9 and gain > spread:
        v = "improved" if len(pairs) >= 10 else "unresolved (< 10 pairs)"
    elif bound is not None and m_old and spread / abs(m_old) > bound \
            and not all_better:
        v = "unresolved"
    elif bound is not None and -gain > bound * abs(m_old):
        v = "regressed"
    elif bound is None and losses / len(pairs) >= 0.9 and -gain > spread:
        v = "regressed"
    else:
        v = "unchanged"
    return m_old, (q1, q3), m_new, quartiles(new), win_frac, v


def metric_value(run, name):
    if name in run["metrics"]:
        return run["metrics"][name]["value"]
    return run.get("extra", {}).get(name)


def cmd_compare(args):
    spec = contract()
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in spec["end_to_end"] + spec["per_layer"]}
    # Printed beside the contract's metrics, with no bound of their own.
    rules.update({"trial_ms_p90": ("lower", None), "fail_ratio": ("lower", None)})
    old, new = load_results(args.old), load_results(args.new)
    print("%-12s %-34s %12s %25s %12s %25s %5s  %s" % (
        "workload", "metric", "parent", "parent q1..q3", "change",
        "change q1..q3", "wins", "verdict"))
    for key in sorted(set(old) & set(new)):
        # A run whose digest gate failed measured other behaviour: its
        # figures are left out, and its failed trials count against
        # its side.
        failed = {}
        valid = {}
        for side, runs in (("parent", old[key]), ("change", new[key])):
            revs = sorted({r["fingerprint"]["source_digest"] for r in runs})
            valid[side] = [r for r in runs if r["correct"]]
            failed[side] = sum(r["failed"] for r in runs)
            print("# %s trace=%d %s: %d runs (%d failed their digest gate, "
                  "%d failed trials), source %s" % (
                      key[0], key[1], side, len(runs),
                      len(runs) - len(valid[side]), failed[side],
                      ",".join(revs)))
        invalid = failed["change"] > failed["parent"]
        for name, (better, bound) in rules.items():
            a = [v for v in (metric_value(r, name) for r in valid["parent"])
                 if v is not None]
            b = [v for v in (metric_value(r, name) for r in valid["change"])
                 if v is not None]
            if not any(metric_value(r, name) is not None
                       for r in old[key] + new[key]):
                continue
            if invalid:
                print("%-12s %-34s %s" % (key[0], name,
                                          "invalid (failed trials)"))
                continue
            if not a or not b:
                continue
            mo, (oq1, oq3), mn, (nq1, nq3), wf, v = verdict(a, b, better, bound)
            print("%-12s %-34s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g "
                  "%4.0f%%  %s" % (key[0], name, mo, oq1, oq3, mn, nq1, nq3,
                                   100 * wf, v))
    return 0


# ---- self-test and regeneration ----------------------------------------

def cmd_selftest(_args):
    binary = build()
    spec = contract()
    tmp = build_dir() / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    failures = []

    def check(cond, what):
        print("%s %s" % ("ok  " if cond else "FAIL", what))
        if not cond:
            failures.append(what)

    for w in WORKLOADS:
        ref = tmp / (w + ".txt")
        code, _, _ = run_binary(binary, ["--workload", w, "--tiny", "--regen",
                                         "--reference", str(ref)])
        check(code == 0, "%s: tiny reference regenerated" % w)
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = run_binary(binary, [
                "--workload", w, "--tiny", "--seed", "1", "--seconds", "0.5",
                "--trace", str(trace), "--reference", str(ref)])
            check(code == 0 and result is not None and result["correct"],
                  "%s trace=%d: tiny run passes its digest gate" % (w, trace))
            got = result["metrics"] if result else {}
            for m in spec[group]:
                printed = any(line.split()[:1] == [m["name"]] and
                              m["unit"] in line.split()[2:3] for line in lines)
                check(got.get(m["name"], {}).get("unit") == m["unit"] and
                      printed, "%s trace=%d: %s printed in %s" % (
                          w, trace, m["name"], m["unit"]))
            check(set(got) == {m["name"] for m in spec[group]},
                  "%s trace=%d: no unnamed metrics" % (w, trace))
        # Flip one digest: the gate must fail the trial and the run.
        text = ref.read_text().splitlines()
        fields = text[2].split()
        fields[3] = "0x%016x" % (int(fields[3], 16) ^ 1)
        text[2] = " ".join(fields)
        bad = tmp / (w + ".bad.txt")
        bad.write_text("\n".join(text) + "\n")
        code, _, result = run_binary(binary, [
            "--workload", w, "--tiny", "--seed", "1", "--seconds", "0.5",
            "--trace", "0", "--reference", str(bad)])
        check(code == 1 and result is not None and not result["correct"] and
              result["failed"] > 0 and result["extra"]["fail_ratio"] > 0,
              "%s: digest gate fires on a wrong reference" % w)
    print("selftest: %s" % ("FAIL (%d)" % len(failures) if failures else "ok"))
    return 1 if failures else 0


def cmd_regen(_args):
    if os.environ.get("SLOWCC_REGEN_GOLDEN") != "1":
        raise SystemExit("slowbench: regen rewrites the committed digest "
                         "references; set SLOWCC_REGEN_GOLDEN=1 to confirm")
    binary = build()
    for w in WORKLOADS:
        code, lines, _ = run_binary(binary, [
            "--workload", w, "--regen", "--reference",
            str(REFERENCE / (w + ".txt"))], timeout=900)
        print("\n".join(lines))
        if code != 0:
            return code
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("compare", "selftest", "regen"):
        p = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "compare":
            p.add_argument("old", help="parent result file or directory")
            p.add_argument("new", help="change result file or directory")
        args = p.parse_args(sys.argv[2:])
        return {"compare": cmd_compare, "selftest": cmd_selftest,
                "regen": cmd_regen}[sys.argv[1]](args)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="result directory (default <build>/results)")
    return cmd_run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
