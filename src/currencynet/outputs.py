"""Writers for the run output bundle.

Column orders are fixed and documented in the README; two runs with the
same config and seed produce byte-identical files.
"""
from __future__ import annotations

import csv
import io
import json
import sys
from operator import itemgetter
from pathlib import Path

from . import __version__
from .accounting import History
from .engine import RunResult, ScenarioConfig, config_hash
from .justice import convergence_report

METRICS_COLUMNS = (
    "t",
    "agent",
    "currency",
    "balance",
    "income",
    "revenue",
    "expenses",
    "cumulative_cashflow",
)


def _metric_keys(history: History) -> list:
    """The (agent, currency) keys of the metrics rows, in row order."""
    return [(a, i) for a in history.agents for i in history.currencies]


def _metric_positions(history: History) -> list:
    """The column of each of the :func:`_metric_keys` in :meth:`History.cashflow_steps`."""
    return [c for cols in zip(*history.key_columns(history.agents)) for c in cols]


def _metric_columns(history: History):
    """Per step, the metrics of the :func:`_metric_keys` in row order.

    Yields ``(t, balance, income, revenue, expenses, cashflow)``, each
    metric a tuple aligned with those keys.
    """
    positions = _metric_positions(history)
    if len(positions) == 1:  # itemgetter of one position gives no tuple

        def pick(values, position=positions[0]):
            return (values[position],)

    else:
        pick = itemgetter(*positions)
    for step, balance, cashflow in history.cashflow_steps():
        yield (step.t, pick(balance), *map(pick, history.dense_flows(step)), pick(cashflow))


def metrics_rows(history: History):
    keys = _metric_keys(history)
    for t, *metrics in _metric_columns(history):
        for key, values in zip(keys, zip(*metrics)):
            yield (t, *key, *values)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it inside a row of several fields."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow((text, ""))
    return buffer.getvalue()[: -len(",\r\n")]


def write_metrics_csv(history: History, path) -> None:
    """The rows of :func:`metrics_rows`, one ``%`` template per step.

    Gives the same bytes as ``csv.writer``: the numbers are ints, and each
    agent name is quoted once, by ``csv.writer`` itself, with its ``%``
    doubled for the template. A step's arguments are picked, in row
    order, from its balance, income, revenue, expenses and cashflow lists
    (each over the columns of :meth:`History.cashflow_steps`) and its t.
    A key the history never indexed reads 0 at every step, so its row
    holds the five zeros as text and takes only t.
    """
    width = len(history.keys) + 1  # the key index and its trailing column
    absent = width - 1
    positions = _metric_positions(history)
    picks = []
    for c in positions:
        picks.append(5 * width)
        if c != absent:
            picks += (c, width + c, 2 * width + c, 3 * width + c, 4 * width + c)
    arguments = itemgetter(*picks)  # every agent has an indexed key, so picks has several
    template = "".join(
        f"%d,{_csv_field(agent).replace('%', '%%')},{i},"
        + ("0,0,0,0,0" if c == absent else "%d,%d,%d,%d,%d")
        + "\r\n"
        for (agent, i), c in zip(_metric_keys(history), positions)
    )
    with open(path, "w", newline="") as handle:
        handle.write(",".join(METRICS_COLUMNS) + "\r\n")
        for step, balance, cashflow in history.cashflow_steps():
            income, revenue, expenses = history.dense_flows(step)
            handle.write(
                template % arguments(balance + income + revenue + expenses + cashflow + [step.t])
            )


def write_metrics_json(history: History, path) -> None:
    records = [dict(zip(METRICS_COLUMNS, row)) for row in metrics_rows(history)]
    with open(path, "w") as handle:
        json.dump(records, handle)
        handle.write("\n")


def write_rates_csv(result: RunResult, path) -> None:
    """Long format: one row per (equilibration step, currency pair).

    Each row is one f-string, with the bytes ``csv.writer`` gives: its
    fields are ints and float reprs, which never need quoting.
    """
    with open(path, "w", newline="") as handle:
        handle.write("t,i,j,mrs,ex\r\n")
        for t, mrs, ex in result.rates_log:
            k = len(mrs)
            handle.write(
                "".join(
                    [
                        f"{t},{i + 1},{j + 1},{mrs[i][j]!r},{ex[i][j]!r}\r\n"
                        for i in range(k)
                        for j in range(k)
                    ]
                )
            )


def write_solver_csv(result: RunResult, path) -> None:
    """One row per solve, one f-string each, as :func:`write_rates_csv`."""
    columns = ["t", "iterations", "residual", *(f"p{i}" for i in range(1, result.config.k + 1))]
    with open(path, "w", newline="") as handle:
        handle.write(",".join(columns) + "\r\n")
        handle.write(
            "".join(
                [
                    f"{t},{iterations},{residual!r},{','.join(map(repr, prices))}\r\n"
                    for t, iterations, residual, prices in result.solver_log
                ]
            )
        )


def _shared_texts(column, target, lead: str, end: str):
    """``value,target,deviation`` and ``end`` for each distinct value of one step's ``column``.

    None when no value repeats: then sharing would save no formatting. A
    zero must not be looked up here, because ``0.0 == -0.0`` and the two
    share one key; a NaN never equals itself, so it is found only by
    identity, as the very object of ``column``.
    """
    distinct = set(column)
    if len(distinct) == len(column):
        return None
    return {value: f"{value!r}{lead}{abs(value - target)!r}{end}" for value in distinct}


def write_justice_csv(result: RunResult, path) -> None:
    """One row per (agent, step), agents in sorted order.

    Gives the same bytes as ``csv.writer``: ints and float reprs never need
    quoting, and each agent name is quoted once, by ``csv.writer`` itself.
    At a step where agents hold the same value, the value's text is
    formatted once and shared (:func:`_shared_texts`).
    """
    series = result.justice_series()
    agents = sorted(series)
    targets = result.justice_report().step_targets
    leads = [f",{target!r}," for target in targets]
    # each text ends with the line break and the next row's step, so that
    # joining an agent's texts with its name between them makes its rows
    ends = [f"\r\n{t}" for t in range(1, len(targets))] + ["\r\n"]
    tables = list(map(_shared_texts, zip(*map(series.__getitem__, agents)), targets, leads, ends))
    with open(path, "w", newline="") as handle:
        handle.write("t,agent,value,target,deviation\r\n")
        for agent in agents:
            texts = [
                table[value]
                if table is not None and value
                else f"{value!r}{lead}{abs(value - target)!r}{end}"
                for value, target, lead, end, table in zip(
                    series[agent], targets, leads, ends, tables
                )
            ]
            handle.write(f",{_csv_field(agent)},".join(["0", *texts]))


def justice_summary(result: RunResult) -> dict:
    summary = {"justice": result.justice_report().to_summary()}
    if result.ex12 is not None:
        summary["ex12"] = convergence_report(result.ex12)._asdict()
        summary["a_over_t"] = convergence_report(result.a_over_t)._asdict()
        mrs = [value for _, value in result.mrs12_series()]
        if len(mrs) >= 2:
            summary["mrs12"] = convergence_report(mrs)._asdict()
    return summary


def write_justice_json(result: RunResult, path) -> None:
    with open(path, "w") as handle:
        handle.write(json.dumps(justice_summary(result), indent=2, sort_keys=True) + "\n")


def write_manifest(config: ScenarioConfig, path, files) -> None:
    manifest = {
        "name": config.name,
        "config": config.to_dict(),
        "config_sha256": config_hash(config),
        "seed": config.seed,
        "steps": config.steps,
        "package": "currencynet",
        "version": __version__,
        "python": sys.version.split()[0],
        "files": sorted(files),
    }
    with open(path, "w") as handle:
        handle.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def write_bundle(result: RunResult, outdir, fmt: str = "csv") -> list:
    """Write the full output bundle; returns the file names written."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    if fmt == "json":
        write_metrics_json(result.history, outdir / "metrics.json")
        files.append("metrics.json")
    else:
        write_metrics_csv(result.history, outdir / "metrics.csv")
        files.append("metrics.csv")
    if result.rates_log:
        write_rates_csv(result, outdir / "rates.csv")
        files.append("rates.csv")
    if result.solver_log:
        write_solver_csv(result, outdir / "solver.csv")
        files.append("solver.csv")
    write_justice_csv(result, outdir / "justice.csv")
    files.append("justice.csv")
    write_justice_json(result, outdir / "justice.json")
    files.append("justice.json")
    write_manifest(result.config, outdir / "manifest.json", files + ["manifest.json"])
    files.append("manifest.json")
    return files
