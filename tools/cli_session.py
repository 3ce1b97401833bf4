"""Wall time of the README command session, one fresh process per command.

    python3 tools/cli_session.py [--src DIR] [--scenario FILE]

In a new temporary directory, write the README's scenario.cfg, props.cfg
and run.cfg, then run the README's `generate`, `build-graph`, `train`,
`predict` and `evaluate --roc` commands in order, each as
`python -m fraudgnn.cli ...` in a process of its own, so every command
pays its own interpreter start and package import. The configs and the
commands are read from README.md's command-line block, so the session is
the one the README documents (its `ablate` line is left out).

Prints one JSON line: each command's wall seconds, their total, and the
sha256 of every file the commands wrote (manifests included). Those files
are byte-deterministic, so two trees that behave alike print equal digests.

--src runs the package from another source tree (default: this checkout's
src/), for example a parent commit unpacked with `git archive`.
--scenario replaces the README's scenario.cfg with a file, for a quick run.
Exits 1 when a command fails, after printing its stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SESSION = ("generate", "build-graph", "train", "predict", "evaluate")
CONFIGS = ("scenario.cfg", "props.cfg", "run.cfg")


def readme_session(readme: str) -> tuple[dict[str, str], list[list[str]]]:
    """The README's config files and its session commands, in order."""
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1]
    block = block.split("\n```", 1)[0]
    configs = dict(re.findall(r"cat > (\S+) <<'EOF'\n(.*?)^EOF$", block,
                              re.S | re.M))
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line)
        if words[:1] == ["fraudgnn"] and words[1] in SESSION:
            commands.append(words[1:])
    return {name: configs[name] for name in CONFIGS}, commands


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_session(src: str, configs: dict[str, str],
                commands: list[list[str]]) -> dict:
    """Run the commands in a fresh directory; their timings and digests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    seconds = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in configs.items():
            with open(os.path.join(tmp, name), "w") as f:
                f.write(text)
        for argv in commands:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "fraudgnn.cli", *argv], cwd=tmp,
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True)
            seconds[argv[0]] = round(time.perf_counter() - start, 4)
            if proc.returncode:
                raise RuntimeError(f"{shlex.join(argv)} exited "
                                   f"{proc.returncode}:\n{proc.stderr}")
        artifacts = {name: sha256(os.path.join(tmp, name))
                     for name in sorted(os.listdir(tmp))
                     if name not in configs}
    return {"seconds": seconds, "total_s": round(sum(seconds.values()), 4),
            "artifacts": artifacts}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="source tree holding the fraudgnn package")
    ap.add_argument("--scenario", help="scenario.cfg to use instead of the "
                                       "README's")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "README.md")) as f:
        configs, commands = readme_session(f.read())
    if args.scenario:
        with open(args.scenario) as f:
            configs["scenario.cfg"] = f.read()
    try:
        result = run_session(args.src, configs, commands)
    except RuntimeError as e:
        print(e, file=sys.stderr)
        return 1
    print(json.dumps({"src": os.path.abspath(args.src), **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
