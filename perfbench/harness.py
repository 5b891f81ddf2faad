"""The caller boundary: one closed-loop call of ``hquat.cli.main``.

Only the call itself is timed.  Standard output and standard error go to
in-memory buffers; parsing and judging them happens afterwards, outside the
timed region.  ``SystemExit`` (argparse's usage errors) and every other
exception are caught here, so a crash is a failed operation, not an aborted
run.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass

EXIT_BUCKETS = ("0", "1", "2", "3", "4", "other")


@dataclass
class Outcome:
    code: int | None  # main's return value; None when main raised
    raised: str | None  # "SystemExit(2)", "ValueError", ... when main raised
    stdout: str
    stderr: str
    elapsed: float

    @property
    def bucket(self) -> str:
        """cli.exit.* bucket: the return code, or "other" when main raised."""
        if self.raised is None and self.code in (0, 1, 2, 3, 4):
            return str(self.code)
        return "other"


def call_main(cli_module, argv: list[str]) -> Outcome:
    """Run ``cli_module.main(argv)`` once and capture what it did.

    ``main`` is looked up on the module at call time, so a traced run sees
    the wrapped function.
    """
    out, err = io.StringIO(), io.StringIO()
    raised = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli_module.main(argv)
        except SystemExit as exc:
            raised = f"SystemExit({exc.code})"
        except Exception as exc:  # noqa: BLE001 - the boundary records every crash
            raised = type(exc).__name__
        elapsed = time.perf_counter() - start
    return Outcome(code, raised, out.getvalue(), err.getvalue(), elapsed)
