#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a checkout.

    python3 perfbench/run.py --workload campaign|replay|stream \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
untraced binary for --trace 0 and the layer-wrapped one for --trace 1,
and passes its output and exit code through. The binary's detail line
is completed with the git commit and the layer table in
perfbench/layers.json and saved under .bench_out/.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=2):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def git_commit():
    """HEAD of the checkout, read from .git without leaving it."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def build(build_dir, target):
    log = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log, "a") as out:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "--target", target,
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                fail("build failed (%s); see %s" % (" ".join(cmd), log))


def main(argv):
    args = dict(zip(argv[1::2], argv[2::2]))
    if len(argv) % 2 == 0 or set(args) - {"--workload", "--seed",
                                          "--seconds", "--trace"}:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    trace = args.get("--trace", "0")
    if trace not in ("0", "1"):
        fail("--trace takes 0 or 1")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no gpusc sources next to perfbench/ (src/CMakeLists.txt)")

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    target = "perfbench_traced" if trace == "1" else "perfbench"
    build(build_dir, target)

    out_dir = os.path.join(ROOT, ".bench_out")
    cmd = [os.path.join(build_dir, target), "--out-dir", out_dir]
    for key in ("--workload", "--seed", "--seconds", "--trace"):
        if key in args:
            cmd += [key, args[key]]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    lines = proc.stdout.decode().splitlines()
    if len(lines) >= 2:
        try:
            detail = json.loads(lines[-2])
            detail["git_commit"] = git_commit()
            with open(os.path.join(HERE, "layers.json")) as f:
                detail["layers"] = json.load(f)
            lines[-2] = json.dumps(detail)
            detail["result"] = json.loads(lines[-1])
            name = "%s-seed%s-trace%s.json" % (
                args.get("--workload"), args.get("--seed"), trace)
            with open(os.path.join(out_dir, name), "w") as f:
                json.dump(detail, f, indent=1)
        except (ValueError, OSError) as e:
            sys.stderr.write("perfbench: detail record not saved: %s\n" % e)
    sys.stdout.write("".join(line + "\n" for line in lines))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv))
