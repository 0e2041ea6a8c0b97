#!/usr/bin/env python3
"""Build and run the LaFP end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload inmem_s --seed 1 --seconds 15 --trace 0

Run from the repository root. The first call configures and builds the
engine and the benchmark driver into .bench_build/ (CMake, RelWithDebInfo);
later calls rebuild incrementally. Build output goes to stderr; the
driver's report goes to stdout and ends with one JSON line.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("inmem_s", "outofcore_l", "serve_mixed")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no LaFP sources under {ROOT}/src")
        return None
    build_dir = os.path.join(BUILD, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", build_dir, "-j", jobs,
            "--target", "lafp_perfbench"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "lafp_perfbench")


def source_id():
    """The git commit when run from a clone, else a hash of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env)
        if head.returncode == 0:
            return "git:" + head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    driver = build()
    if driver is None:
        log("build failed")
        return 1

    # Everything the run writes stays under .bench_build/: inputs, spill
    # files, and any temporary file the engine creates.
    work = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("LAFP_")}
    env["TMPDIR"] = tmp
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.join(work, "run"),
               "--source-id", source_id()]
    sys.stdout.flush()
    try:
        code = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        code = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
