"""Run one extamen CLI command in-process, timing start-up and the handler.

    python3 perfbench/cli_probe.py graph explore --n 12 --out DIR

The subcommand handlers are wrapped from here, so the package is unchanged
and ``report.json`` is the same as from ``python3 -m extamen``.  The
reference clock (``refclock.py``) runs from before extamen is imported.  The
last line of output is JSON: ``main_at`` (``time.monotonic()`` when the
CLI's ``main`` is entered, for the parent to subtract its spawn time from),
``handler_s``, ``exit``, ``sampling_s`` and ``main_sampling_s`` (wall
seconds the reference clock took in all and before ``main``) and
``sample_s`` (its mean sample).
"""

import json
import sys
import time

import refclock

SAMPLER = refclock.Sampler()
SAMPLER.start()
BORN = SAMPLER.mark()

from extamen import cli  # noqa: E402

handler_s = 0.0


def _timed(handler):
    def timed(args):
        global handler_s
        start = SAMPLER.mark()
        try:
            return handler(args)
        finally:
            handler_s += SAMPLER.interval(start, SAMPLER.mark())[0]

    return timed


for _name in [n for n in vars(cli) if n.startswith("_cmd_")]:
    setattr(cli, _name, _timed(getattr(cli, _name)))

main_mark, main_at = SAMPLER.mark(), time.monotonic()
code = cli.main(sys.argv[1:])
SAMPLER.stop()
_, sample_s = SAMPLER.interval(BORN, SAMPLER.mark())
print(json.dumps({"main_at": main_at, "handler_s": handler_s, "exit": code,
                  "sampling_s": SAMPLER.spent, "main_sampling_s": main_mark[1],
                  "sample_s": sample_s}))
sys.exit(code)
