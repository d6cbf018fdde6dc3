"""verify's worker fan-out: checks run in forked workers, one at a time.

cli imports this module only when more than one worker starts, after
`checks` is loaded, so every worker inherits the loaded harness and no
process-pool machinery is imported.  The verify process starts no
threads, so forking it is safe.

Each worker has two pipes of its own: the parent writes one check number
per line to the first, and the worker answers each with its report's
fields as one JSON line on the second.  The parent hands the next check
to whichever worker answered, and closes a worker's task pipe when no
check is left, which tells it to leave.  A worker holds at most one check,
so a task line never waits for room in its pipe, and the parent reads
answers of any length as they arrive.  A child closes the pipe ends it
inherited for the other workers, so a task pipe's end is seen by its own
worker alone, and leaves through os._exit.

A worker that exits before it answers fails the check it holds: the
report's one witness names the check and the exit status or signal, and
its n_range [1, 0] claims no size.  A new worker takes its place while
checks are left.  Every worker is killed and reaped on every way out of
run_checks.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import time

from . import checks
from .checks import VerificationReport


class _Worker:
    def __init__(self, pid: int, tasks: int, answers: int):
        self.pid = pid
        self.tasks = tasks  # write end of the worker's task pipe
        self.answers = answers  # read end of its answer pipe
        self.index: int | None = None  # the check it holds
        self.started = 0.0
        self.buffer = b""


def run_checks(ids: list[str], max_n: int, workers: int) -> list[VerificationReport]:
    """The reports of checks.run_check(cid, max_n) for each of ids, in the
    order of ids, from at most `workers` forked workers at a time."""
    reports: list[VerificationReport | None] = [None] * len(ids)
    handed = 0
    live: dict[int, _Worker] = {}  # by answer fd

    def hand_out(worker: _Worker) -> None:
        nonlocal handed
        if handed == len(ids):
            os.close(worker.tasks)  # end of tasks: the worker leaves
            worker.tasks = -1
            return
        worker.index, worker.started = handed, time.perf_counter()
        handed += 1
        try:
            os.write(worker.tasks, b"%d\n" % worker.index)
        except BrokenPipeError:
            pass  # the worker is gone; its answer pipe's end says how

    sys.stdout.flush()
    try:
        while handed < len(ids) or live:
            while handed < len(ids) and len(live) < workers:
                worker = _start(ids, max_n, live.values())
                live[worker.answers] = worker
                hand_out(worker)
            for fd in select.select(list(live), [], [])[0]:
                worker = live[fd]
                chunk = os.read(fd, 1 << 16)
                if not chunk:  # the worker exited
                    _, status = os.waitpid(worker.pid, 0)
                    del live[fd]
                    _close(worker)
                    if worker.index is not None:
                        reports[worker.index] = _lost(ids[worker.index], status,
                                                      time.perf_counter() - worker.started)
                    continue
                worker.buffer += chunk
                if worker.buffer.endswith(b"\n"):  # one answer per check handed out
                    reports[worker.index] = VerificationReport._make(  # JSON lists were tuples
                        tuple(f) if isinstance(f, list) else f for f in json.loads(worker.buffer))
                    worker.index, worker.buffer = None, b""
                    hand_out(worker)
    finally:
        for worker in live.values():
            os.kill(worker.pid, signal.SIGKILL)
            _close(worker)
            os.waitpid(worker.pid, 0)
    return reports


def _start(ids: list[str], max_n: int, others) -> _Worker:
    tasks_r, tasks_w = os.pipe()
    answers_r, answers_w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(tasks_r)
        os.close(answers_w)
        return _Worker(pid, tasks_w, answers_r)
    status = 1
    try:
        os.close(tasks_w)
        os.close(answers_r)
        for other in others:
            _close(other)
        with open(tasks_r, "rb") as tasks, open(answers_w, "wb") as answers:
            for line in tasks:
                report = checks.run_check(ids[int(line)], max_n)
                answers.write(json.dumps(report).encode() + b"\n")
                answers.flush()
        status = 0
    finally:
        os._exit(status)


def _close(worker: _Worker) -> None:
    for fd in (worker.tasks, worker.answers):
        if fd >= 0:
            os.close(fd)


def _lost(check_id: str, status: int, elapsed: float) -> VerificationReport:
    code = os.waitstatus_to_exitcode(status)
    if code >= 0:
        how = f"exited with status {code}"
    else:
        try:
            how = f"was killed by {signal.Signals(-code).name}"
        except ValueError:  # a signal without a name, such as a real-time one
            how = f"was killed by signal {-code}"
    return VerificationReport(check_id, (1, 0), False,
                              (f"the worker running {check_id} {how}",), elapsed)
