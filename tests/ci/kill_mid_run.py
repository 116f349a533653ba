#!/usr/bin/env python3
"""SIGKILL a campaign_runner run part-way through, and prove it was.

    kill_mid_run.py --dir RUN --golden GOLDEN [--seed-from SEED]
                    [--attempts N] -- COMMAND [ARG...]

COMMAND writes its campaign under RUN; GOLDEN holds the same campaign run
to completion. Each attempt starts COMMAND in a fresh RUN (a copy of SEED
when given, e.g. a service root with its inbox filled) and polls RUN until
the run is part-way through: some journal.csv holds at least one committed
row but fewer rows than the same journal under GOLDEN. Only then does it
send SIGKILL. Afterwards it checks that the kill really cut the run short:
COMMAND died of the signal (shell status 137) and at least one journal is
still shorter than its golden counterpart (a missing journal counts as
empty). An attempt whose run finished first, or whose kill came too late,
is retried, up to N attempts; the exit status is 1 when none landed
mid-run. A fixed `sleep; kill` goes vacuous as soon as the run gets faster
than the sleep; this cannot.
"""

import argparse
import pathlib
import shutil
import signal
import subprocess
import sys
import time

POLL_S = 0.0005
HEADER_LINES = 2  # "fingerprint,<hex>" and the archive CSV header.


def journal_rows(root):
    """Committed rows of every journal.csv under root, by relative path."""
    rows = {}
    for path in root.rglob("journal.csv"):
        try:
            data = path.read_bytes()
        except OSError:
            continue
        # Only newline-terminated lines are committed; a torn tail is not.
        rows[path.relative_to(root)] = max(0, data.count(b"\n") - HEADER_LINES)
    return rows


def progress(run, golden):
    """'part-way' when some journal has started but not reached its golden
    size, 'done' when every golden journal is complete, else None."""
    rows = journal_rows(run)
    if any(1 <= rows.get(rel, 0) < want for rel, want in golden.items()):
        return "part-way"
    if all(rows.get(rel, 0) >= want for rel, want in golden.items()):
        return "done"
    return None


def cut_short(run, golden):
    """True when some golden journal is missing or shorter under run."""
    rows = journal_rows(run)
    return any(rows.get(rel, 0) < want for rel, want in golden.items())


def attempt(args, golden):
    run = pathlib.Path(args.dir)
    shutil.rmtree(run, ignore_errors=True)
    if args.seed_from:
        shutil.copytree(args.seed_from, run)
    proc = subprocess.Popen(args.command, stdout=subprocess.DEVNULL)
    seen = None
    while proc.poll() is None and seen is None:
        seen = progress(run, golden)
        time.sleep(POLL_S)
    if proc.poll() is not None:
        return "the run finished before it was seen part-way through"
    proc.send_signal(signal.SIGKILL)
    if seen == "done":
        # A service daemon idles once its inbox is served.
        proc.wait()
        return "every journal was complete before it was seen part-way"
    status = proc.wait()
    if status != -signal.SIGKILL:
        return "the run exited with status %d before the kill" % status
    if not cut_short(run, golden):
        return "the kill landed after every journal was complete"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--golden", required=True)
    parser.add_argument("--seed-from")
    parser.add_argument("--attempts", type=int, default=20)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.command[:1] == ["--"]:
        args.command = args.command[1:]
    if not args.command:
        parser.error("no command given")

    golden = journal_rows(pathlib.Path(args.golden))
    if not golden or min(golden.values()) < 2:
        print("kill_mid_run: %s has no journal with two or more rows to cut"
              % args.golden, file=sys.stderr)
        return 1
    for number in range(1, args.attempts + 1):
        miss = attempt(args, golden)
        if miss is None:
            print("kill_mid_run: attempt %d: killed part-way (status 137); "
                  "journals %s of golden %s" % (
                      number, sorted(journal_rows(pathlib.Path(args.dir))
                                     .values()), sorted(golden.values())))
            return 0
        print("kill_mid_run: attempt %d: %s; retrying" % (number, miss))
    print("kill_mid_run: no attempt of %d landed mid-run" % args.attempts,
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
