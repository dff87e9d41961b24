"""The in-process workloads: ``djia_repeat`` and ``panel_append``.

One caller in a closed loop calls ``Executor.execute`` and waits for each
result before sending the next query.  Every result is compared with a
reference computed at set-up by the differential oracle,
``Executor(evaluator="row", codegen=False)``.
"""

from __future__ import annotations

import random
import time

from repro.data.djia import DEFAULT_SEED, DJIA_SCHEMA, djia_table, synthetic_djia
from repro.data.quotes import QUOTE_SCHEMA, synthetic_quotes
from repro.data.workloads import EXAMPLE_1, EXAMPLE_2, EXAMPLE_8, EXAMPLE_10
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor

from perfbench.core import (
    DOMAINS,
    Calibrated,
    Outcome,
    make_table,
    oracle,
    out_dir,
    own_peak_rss_mb,
    profile_call,
    reset_peak_rss,
    timed_setups,
    until,
    write_layers,
)
from perfbench.replay import LayerRun

#: Example 10 on the default-seed DJIA finds this many double bottoms
#: (the count BENCH_pr3.json records).
DEFAULT_SEED_MATCHES = 11

SIZES = {
    # DJIA histories and rows of each; panel tickers, base days, appended days per cycle
    "full": {"histories": 8, "djia_rows": None, "tickers": 64, "days": 200, "cycle": 12},
    "tiny": {"histories": 2, "djia_rows": None, "tickers": 8, "days": 60, "cycle": 3},
}


def djia_repeat(seed: int, seconds: float, trace: bool, scale: str) -> Outcome:
    """Example 10 with a cached plan against resident DJIA tables.

    The seed draws several DJIA histories, each resident in a catalog of
    its own behind an executor of its own, and the caller takes them in
    turn.  One history's shape sets how much work the double bottom
    does, and differs by up to 15% between seeds; a run over several
    averages that out, so that runs on different seeds measure the
    program rather than the draw.  The traced run replays the history
    with the most double bottoms.
    """
    outcome = Outcome()
    size = SIZES[scale]
    draw = random.Random(seed)
    histories = [
        [
            {"date": day, "price": close}
            for day, close in synthetic_djia(draw.randrange(2**31))[: size["djia_rows"]]
        ]
        for _ in range(size["histories"])
    ]
    expected = [
        tuple(oracle(make_table("djia", DJIA_SCHEMA, rows)).execute(EXAMPLE_10).rows)
        for rows in histories
    ]
    pinned = len(oracle(djia_table(DEFAULT_SEED)).execute(EXAMPLE_10).rows)
    outcome.check(
        pinned == DEFAULT_SEED_MATCHES,
        f"Example 10 on the default-seed DJIA found {pinned} "
        f"matches, expected {DEFAULT_SEED_MATCHES}",
    )

    def setup():
        resident = []
        for rows, want in zip(histories, expected):
            catalog = Catalog([make_table("djia", DJIA_SCHEMA, rows)])
            executor = Executor(catalog, domains=DOMAINS)
            first = executor.execute(EXAMPLE_10)
            outcome.check(tuple(first.rows) == want, "set-up query rows differ")
            resident.append((catalog, executor))
        return resident

    setup_s, resident = timed_setups(setup)
    if trace:
        replayed = max(range(len(expected)), key=lambda turn: len(expected[turn]))
        catalog, executor = resident[replayed]
        layers = LayerRun(catalog, DOMAINS, executor)
        layers.prime(EXAMPLE_10)
        until(seconds, lambda i: layers.query(EXAMPLE_10, i, expected[replayed], outcome))
        outcome.metrics = layers.metrics()
        write_layers("djia_repeat", seed, layers.tracer, outcome.metrics)
        profile_call(
            lambda: until(seconds / 4, lambda i: executor.execute(EXAMPLE_10)),
            out_dir("djia_repeat", seed) / "profile.json",
        )
        return outcome

    reset_peak_rss()
    calibrated = Calibrated()

    def step(index):
        turn = index % len(resident)
        executor = resident[turn][1]
        started = time.perf_counter()
        result = executor.execute(EXAMPLE_10)
        seconds = time.perf_counter() - started
        calibrated.add(turn, seconds, len(histories[turn]), (seconds,))
        outcome.check(tuple(result.rows) == expected[turn], f"history {turn}: rows differ")

    until(seconds, step)
    outcome.metrics = {
        "setup_s": setup_s,
        **calibrated.metrics(),
        "peak_rss_mb": own_peak_rss_mb(),
    }
    return outcome


class Panel:
    """The ``quote`` panel, its appended days, and the query rotation.

    The benchmark replays a cycle of ``cycle`` steps; each step appends one
    trading day for every ticker, then runs the next query of the
    rotation Example 1, 2, 8.  Examples 1 and 2 get a threshold of their
    own at every step, so their texts are new to the plan cache; the
    thresholds are fixed and differ only in the fourth decimal, so every
    step of a rotation does about the same work, whatever the seed.  Each
    cycle starts from the base table and a fresh executor, so the
    references computed at set-up hold for every cycle.
    """

    def __init__(self, seed: int, scale: str):
        size = SIZES[scale]
        tickers = [f"T{index:02d}" for index in range(size["tickers"])]
        rows = synthetic_quotes(tickers, days=size["days"] + size["cycle"], seed=seed)
        dates = sorted({row["date"] for row in rows})
        cut = dates[size["days"]]
        self.base = [row for row in rows if row["date"] < cut]
        self.appends = [
            sorted((row for row in rows if row["date"] == day), key=lambda row: row["name"])
            for day in dates[size["days"]:]
        ]
        self.texts = []
        for step in range(size["cycle"]):
            nudge = 0.0001 * (step // 3)
            if step % 3 == 0:
                self.texts.append(
                    EXAMPLE_1.replace("1.15", f"{1.025 + nudge:.4f}")
                    .replace("0.80", f"{0.975 - nudge:.4f}")
                )
            elif step % 3 == 1:
                self.texts.append(EXAMPLE_2.replace("0.5 *", f"{0.9 + nudge:.4f} *"))
            else:
                self.texts.append(EXAMPLE_8)

    def references(self) -> tuple[tuple, list[tuple]]:
        """Oracle rows for the set-up query and for every step of a cycle."""
        table = make_table("quote", QUOTE_SCHEMA, self.base)
        reference = oracle(table)
        first = tuple(reference.execute(EXAMPLE_8).rows)
        steps = []
        for appended, text in zip(self.appends, self.texts):
            table.insert_many(appended)
            steps.append(tuple(reference.execute(text).rows))
        return first, steps


def panel_append(seed: int, seconds: float, trace: bool, scale: str) -> Outcome:
    """Appends beside reads on a 64-ticker panel; every text is planned anew."""
    outcome = Outcome()
    panel = Panel(seed, scale)
    first_expected, expected = panel.references()
    cycle = len(panel.texts)

    def setup():
        table = make_table("quote", QUOTE_SCHEMA, panel.base)
        catalog = Catalog([table])
        executor = Executor(catalog, domains=DOMAINS)
        first = executor.execute(EXAMPLE_8)
        outcome.check(tuple(first.rows) == first_expected, "set-up query rows differ")
        return table, catalog, executor

    setup_s, state = timed_setups(setup)

    if trace:
        layers = LayerRun(state[1], DOMAINS, state[2])
        layers.prime(EXAMPLE_8)

        def traced_step(index):
            nonlocal state
            step = index % cycle
            if index and step == 0:
                state = setup()
                layers.rebind(state[1], state[2])
                layers.prime(EXAMPLE_8)
            with layers.tracer.span("table.insert", index):
                state[0].insert_many(panel.appends[step])
            layers.query(panel.texts[step], index, expected[step], outcome)

        until(seconds, traced_step)
        outcome.metrics = layers.metrics()
        write_layers("panel_append", seed, layers.tracer, outcome.metrics)
        state = setup()
        profile_call(
            lambda: [
                (state[0].insert_many(appended), state[2].execute(text))
                for appended, text in zip(panel.appends, panel.texts)
            ],
            out_dir("panel_append", seed) / "profile.json",
        )
        return outcome

    reset_peak_rss()
    # One unit is one step: append a day, then run the step's query.
    calibrated = Calibrated()
    begun = time.perf_counter()
    step = 0
    while not calibrated.units or time.perf_counter() - begun < seconds:
        if step == cycle:
            state = setup()
            step = 0
            calibrated.rebase()
        table, _, executor = state
        started = time.perf_counter()
        table.insert_many(panel.appends[step])
        queried = time.perf_counter()
        result = executor.execute(panel.texts[step])
        finished = time.perf_counter()
        calibrated.add(step, finished - started, len(table), (finished - queried,))
        outcome.check(tuple(result.rows) == expected[step], f"step {step}: rows differ")
        step += 1
    outcome.metrics = {
        "setup_s": setup_s,
        **calibrated.metrics(),
        "peak_rss_mb": own_peak_rss_mb(),
    }
    return outcome
