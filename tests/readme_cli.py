"""Run the installed `monocanon` command on the README's example problem and
compare its `canon`, `sdepth`, `depth` and `check` output with the README's
transcript.

    pip install . && python tests/readme_cli.py

Exits 0 when all match; otherwise prints the difference and exits 1.  It
runs the console script found on PATH, from a scratch directory, so the
package is imported from where pip installed it, not from src/.
"""

from __future__ import annotations

import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
COMMANDS = ("canon", "sdepth", "depth", "check")


def readme_example(text: str) -> tuple[str, dict[str, str]]:
    """The problem file under "## Command line", and each command's output in
    the transcript that follows it."""
    section = text.split("## Command line", 1)[1]
    blocks = re.findall(r"```\n(.*?)```", section, flags=re.S)
    problem, transcript = blocks[0], blocks[1]
    outputs = {}
    for chunk in transcript.split("$ monocanon ")[1:]:
        command, _, output = chunk.partition("\n")
        outputs[command] = output.rstrip("\n") + "\n"
    return problem, outputs


def main() -> int:
    exe = shutil.which("monocanon")
    if exe is None:
        print("no monocanon command on PATH; run `pip install .` first")
        return 1
    problem, outputs = readme_example(README.read_text(encoding="utf-8"))
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        pathlib.Path(tmp, "problem.ideal").write_text(problem, encoding="utf-8")
        for name in COMMANDS:
            command = f"{name} problem.ideal"
            run = subprocess.run([exe, *command.split()], cwd=tmp,
                                 capture_output=True, text=True)
            if run.returncode != 0 or run.stdout != outputs[command]:
                failed = True
                print(f"$ monocanon {command}: exit {run.returncode}\n"
                      f"--- README\n{outputs[command]}"
                      f"--- printed\n{run.stdout}{run.stderr}")
            else:
                print(f"$ monocanon {command}: matches the README")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
