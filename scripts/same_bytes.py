"""Check that a fixed pipeline of ``advlab`` commands writes the bytes of a
committed manifest, on 1 CPU and on 2.

The pipeline: ``advlab train`` of the three bundled benchmark configs at 3
epochs with lr decays at epochs 1 and 2 and ``--seed 1``; ``eval`` and the
train and test heatmaps of each ``best.ckpt`` and ``last.ckpt``; a 4-point
``sweep`` (eta 0, 0.1, 0.5, 2) from the ``at`` run's ``best.ckpt``; a
``train`` of the ``at`` config with an FGSM ``[train.attack]``;
``gradcheck`` of the ``at`` config; and a ``train`` of the ``at`` config
whose ``[train.eval_attack]`` and ``[eval.pgd20]`` start at random, then
``eval`` and the train and test heatmaps of its ``last.ckpt``. Each command
runs in its own child process, from one fixed relative work directory, with
``OPENBLAS_CORETYPE`` set to the manifest's kernel and the CPU set by
``os.sched_setaffinity`` on the child. The sha256 of every file the
commands write, and of their printed lines, must equal the manifest's. The
random-start case's printed lines are digested apart from the others',
under ``RANDOM_START/STDOUT``, so the others' digest is unchanged by it.

The bytes are a contract per numpy build and OpenBLAS kernel. Where the
numpy version or the kernel OpenBLAS reports differs from the manifest's,
where the CPUs are too few, or where no affinity can be set, the check skips
and prints why. A skip is not a pass.

    python scripts/same_bytes.py                # check: exit 0 pass, 1 fail, 3 skip
    python scripts/same_bytes.py --write        # write the manifest from this tree
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("same_bytes.json")
KERNEL = "Haswell"  # a kernel every x86-64 OpenBLAS DYNAMIC_ARCH build offers
CPU_COUNTS = (1, 2)
METHODS = ("at", "edac", "edac_reg")
EPOCHS, DECAYS, SEED = 3, "1,2", 1
SWEEP_ETAS = "0,0.1,0.5,2"
STDOUT = "stdout.txt"  # the printed lines of every command, in order
RANDOM_START = "at_random_start"
EXIT_PASS, EXIT_FAIL, EXIT_SKIP = 0, 1, 3


def child_env(kernel) -> dict:
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def build_info(kernel) -> dict:
    """{"numpy": version, "kernel": the core OpenBLAS reports, or None} of a
    child process run with ``OPENBLAS_CORETYPE=kernel``; {"error": its
    stderr} where that child cannot import numpy."""
    done = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                          env=dict(child_env(kernel), OPENBLAS_VERBOSE="2"),
                          capture_output=True, text=True, check=False)
    if done.returncode != 0:
        return {"error": done.stderr.strip()}
    core = re.search(r"^Core: (\S+)", done.stderr, re.M)
    return {"numpy": done.stdout.strip(), "kernel": core and core.group(1)}


def skip_reason(manifest) -> str | None:
    """Why this host cannot check ``manifest``'s bytes, or None."""
    if not hasattr(os, "sched_setaffinity"):
        return "os.sched_setaffinity is not available"
    cpus = len(os.sched_getaffinity(0))
    if cpus < max(CPU_COUNTS):
        return f"{cpus} CPU in the affinity mask, the check runs on {max(CPU_COUNTS)}"
    info = build_info(manifest["kernel"])
    if "error" in info:
        return f"a child process cannot import numpy: {info['error']}"
    if info["numpy"] != manifest["numpy"]:
        return f"numpy {info['numpy']}, the manifest's bytes are numpy {manifest['numpy']}'s"
    if info["kernel"] != manifest["kernel"]:
        return (f"OpenBLAS runs kernel {info['kernel']} with OPENBLAS_CORETYPE="
                f"{manifest['kernel']}, the manifest's bytes are {manifest['kernel']}'s")
    return None


def write_config(method, name, path: Path, fgsm=False, random_start=False):
    """``configs/benchmark_<method>.ini`` at the pipeline's epochs and decays,
    writing under ``out/<name>``; with ``fgsm``, trained against FGSM; with
    ``random_start``, ``[train.eval_attack]`` and ``[eval.pgd20]`` start at
    random."""
    text = (ROOT / "configs" / f"benchmark_{method}.ini").read_text(encoding="utf-8")
    edits = [(rf"(?m)^({key}\s*=).*$", rf"\g<1> {value}")
             for key, value in (("epochs", EPOCHS), ("lr_decay_epochs", DECAYS),
                                ("dir", f"out/{name}"))]
    if fgsm:
        edits.append((r"(?m)^(\[train\.attack\])$", r"\g<1>\nkind = fgsm"))
    if random_start:
        edits += [(r"(?ms)^(\[train\.eval_attack\]$.*?^random_start\s*=).*?$", r"\g<1> true"),
                  (r"(?m)^(\[eval\.pgd20\])$", r"\g<1>\nrandom_start = true")]
    for pattern, replacement in edits:
        text, n = re.subn(pattern, replacement, text)
        if n != 1:
            raise RuntimeError(f"benchmark_{method}.ini has {n} lines {pattern}, expected 1")
    path.write_text(text, encoding="utf-8")


def evaluations(name, checkpoints):
    """The ``eval`` and train and test ``heatmap`` argument lists of each
    named checkpoint of the run ``name``."""
    cfg = ["--config", f"configs/{name}.ini"]
    for ck in checkpoints:
        at = ["--checkpoint", f"out/{name}/{ck}.ckpt"]
        yield ["eval", *cfg, *at, "--out", f"out/{name}/eval_{ck}"]
        for split in ("train", "test"):
            yield ["heatmap", *cfg, *at, "--split", split, "--out", f"out/{name}/heatmap_{ck}"]


def commands():
    """(the digest name of its printed lines, argument list) of each of the
    pipeline's commands, in order; paths are relative to the work
    directory."""
    for m in METHODS:
        yield STDOUT, ["train", "--config", f"configs/{m}.ini", "--seed", str(SEED)]
        yield from ((STDOUT, argv) for argv in evaluations(m, ("best", "last")))
    yield STDOUT, ["sweep", "--config", "configs/at.ini", "--checkpoint", "out/at/best.ckpt",
                   "--etas", SWEEP_ETAS, "--out", "out/at/sweep"]
    yield STDOUT, ["train", "--config", "configs/at_fgsm.ini", "--seed", str(SEED)]
    yield STDOUT, ["gradcheck", "--config", "configs/at.ini"]
    printed = f"{RANDOM_START}/{STDOUT}"
    yield printed, ["train", "--config", f"configs/{RANDOM_START}.ini", "--seed", str(SEED)]
    yield from ((printed, argv) for argv in evaluations(RANDOM_START, ("last",)))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pipeline(work: Path, cpus: int, kernel) -> dict:
    """{file under ``work/out``: sha256} of the pipeline run in ``work`` on
    the first ``cpus`` CPUs of this process's affinity mask, with
    the digests of the commands' printed lines under their names
    (``commands``)."""
    (work / "configs").mkdir(parents=True)
    for m in METHODS:
        write_config(m, m, work / "configs" / f"{m}.ini")
    write_config("at", "at_fgsm", work / "configs" / "at_fgsm.ini", fgsm=True)
    write_config("at", RANDOM_START, work / "configs" / f"{RANDOM_START}.ini", random_start=True)
    mask = set(sorted(os.sched_getaffinity(0))[:cpus])
    printed = {}
    for name, argv in commands():
        done = subprocess.run([sys.executable, "-m", "advlab", *argv], cwd=work,
                              env=child_env(kernel), capture_output=True,
                              preexec_fn=lambda: os.sched_setaffinity(0, mask), check=False)
        if done.returncode != 0:
            raise RuntimeError(f"advlab {' '.join(argv)} exited {done.returncode}: "
                               f"{done.stderr.decode(errors='replace')}")
        printed.setdefault(name, []).append(done.stdout)
    out = work / "out"
    digests = {p.relative_to(out).as_posix(): sha256(p.read_bytes())
               for p in sorted(out.rglob("*")) if p.is_file()}
    digests.update((name, sha256(b"".join(lines))) for name, lines in printed.items())
    return digests


def mismatches(expected: dict, digests: dict) -> list:
    """One line per file whose digest is not ``expected``'s, or that only
    one side has."""
    return [f"{name}: manifest {expected.get(name)}, run {digests.get(name)}"
            for name in sorted(set(expected) | set(digests))
            if expected.get(name) != digests.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="write the manifest from this tree's bytes")
    args = parser.parse_args(argv)
    if args.write:
        manifest = {"numpy": build_info(KERNEL).get("numpy"), "kernel": KERNEL}
    else:
        manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    reason = skip_reason(manifest)
    if reason is not None:
        print(f"SKIP: {reason}")
        return EXIT_SKIP
    with tempfile.TemporaryDirectory() as tmp:
        runs = {cpus: run_pipeline(Path(tmp) / f"cpus{cpus}", cpus, manifest["kernel"])
                for cpus in CPU_COUNTS}
    if args.write:
        manifest["files"] = runs.pop(CPU_COUNTS[0])
    failed = False
    for cpus, digests in runs.items():
        bad = mismatches(manifest["files"], digests)
        failed |= bool(bad)
        print(f"on {cpus} CPUs: {len(digests)} digests, {len(bad)} differ from the manifest")
        for line in bad:
            print(f"  {line}")
    if failed:
        print("FAIL")
        return EXIT_FAIL
    if args.write:
        MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
        print(f"wrote {MANIFEST}: numpy {manifest['numpy']}, kernel {manifest['kernel']}")
    print("PASS")
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
