"""Operations: one or two CLI calls through `densemodal.cli.main(argv)`.

Every call goes through the CLI entry point in-process, so the benchmark
keeps working when the library API behind it changes.

An operation is timed twice: in CPU time of the calling thread, its
latency, and in wall-clock time.  For a single-threaded, CPU-bound closed
loop the two agree on an idle machine, but only CPU time stays put when
other tenants of a shared host take the CPU.  The thread's clock is read
rather than the process's: while ITIMER_PROF is armed, Linux accounts
the process clock in scheduler ticks (4 ms on some virtual machines),
the thread clock to the nanosecond.  The deadline counts CPU time too
(ITIMER_PROF): a call that runs past it is interrupted by SIGPROF and the
operation fails.
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Optional


class OpTimeout(BaseException):
    """Raised from the SIGPROF handler.

    A BaseException, so that no `except Exception` in the program can
    swallow it.
    """


def _on_deadline(signum, frame):
    raise OpTimeout()


def install_deadline() -> None:
    signal.signal(signal.SIGPROF, _on_deadline)


@dataclass(frozen=True)
class Op:
    """One operation.

    kind "solve": `solve --logic L --mode M --stats --model PATH`.
    kind "translate": `translate`, then `solve --logic kde --mode valid
    --stats --model PATH` on its output.
    kind "xval": `solve --logic L --mode sat --model PATH`, then
    `oracle --class C --max-worlds W`, compared by the check.
    """

    slice: str
    kind: str
    logic: str
    text: str
    mode: str = "sat"
    frame_class: str = ""
    worlds: int = 0

    def describe(self) -> str:
        flags = f"{self.kind} --logic {self.logic} --mode {self.mode}"
        if self.kind == "xval":
            flags += f" / oracle --class {self.frame_class} --max-worlds {self.worlds}"
        return f"[{self.slice}] {flags} {self.text!r}"


@dataclass
class Call:
    argv: list
    code: int
    out: str
    err: str
    model: Optional[str] = None


@dataclass
class Outcome:
    status: str  # "ok", "timeout" or "exception"
    elapsed: float  # wall-clock seconds
    cpu: float  # CPU seconds of the calling thread: the op's latency
    calls: list
    detail: str = ""

    def summary(self) -> tuple:
        """What a rerun must reproduce: status, exit codes, stdout, model files."""
        return (self.status, tuple((c.code, c.out, c.model) for c in self.calls))


def solve_argv(logic: str, mode: str, text: str, model_path: str, stats: bool = True) -> list:
    argv = ["solve", "--logic", logic, "--mode", mode]
    if stats:
        argv.append("--stats")
    return argv + ["--model", model_path, text]


def _call(prog, argv: list, calls: list) -> Call:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = prog.cli.main(argv)
    call = Call(argv, code, out.getvalue(), err.getvalue())
    calls.append(call)
    return call


def _perform(prog, op: Op, model_path: str, calls: list) -> None:
    if op.kind == "solve":
        _call(prog, solve_argv(op.logic, op.mode, op.text, model_path), calls)
    elif op.kind == "translate":
        first = _call(prog, ["translate", op.text], calls)
        if first.code == 0:
            _call(prog, solve_argv("kde", "valid", first.out.strip(), model_path), calls)
    elif op.kind == "xval":
        _call(prog, solve_argv(op.logic, "sat", op.text, model_path, stats=False), calls)
        argv = ["oracle", "--class", op.frame_class, "--max-worlds", str(op.worlds), op.text]
        _call(prog, argv, calls)
    else:
        raise ValueError(f"unknown op kind {op.kind!r}")


def execute(prog, op: Op, deadline: float, model_path: str) -> Outcome:
    """Run one operation under the deadline (CPU seconds); only the calls are timed.

    The model file is removed before and read after the timed region, and
    attached to the solve call that wrote it.
    """
    with contextlib.suppress(FileNotFoundError):
        os.remove(model_path)
    calls: list = []
    status, detail = "ok", ""
    start, start_cpu = time.perf_counter(), time.thread_time()
    try:
        try:
            signal.setitimer(signal.ITIMER_PROF, deadline)
            _perform(prog, op, model_path, calls)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    except OpTimeout:
        status, detail = "timeout", f"no answer within the {deadline:g} s deadline"
    except Exception:  # the op boundary: any crash is a failed op, reported with its traceback
        status, detail = "exception", traceback.format_exc(limit=-3).strip()
    elapsed, cpu = time.perf_counter() - start, time.thread_time() - start_cpu
    if os.path.exists(model_path):
        with open(model_path, encoding="utf-8") as handle:
            model = handle.read()
        for call in reversed(calls):
            if call.argv[0] == "solve":
                call.model = model
                break
    return Outcome(status, elapsed, cpu, calls, detail)
