"""Set-up probe: import and warm up the program in a fresh process, then
print ``ready``.  ``run.py`` times fresh processes of this script for the
``setup_s`` metric."""

from pathlib import Path

from jobs import prepare

if __name__ == "__main__":
    prepare(Path(__file__).resolve().parent.parent)
    print("ready", flush=True)
