"""Compare two kfbench result files row by row — never a combined score.

One row per (end-to-end metric, workload).  Timing, memory and set-up rows
use the relative bound ``BENCHMARK.json`` fixes for the metric; the quality
rows (``auc_pr``, ``wdev``) may not move by more than 1e-9 absolute, and
``failed_share`` may not rise at all.  A row whose run-to-run spread
(quartile distance over median, on either side) is wider than its bound is
``unresolved``, not ``same``: the instrument cannot tell.
"""

from __future__ import annotations

QUALITY_BOUND_ABS = 1e-9
#: Direction of the quality rows (the timing rows are all lower-is-better).
QUALITY_BETTER = {"auc_pr": "higher", "wdev": "lower"}


def _spread(stat: dict) -> float:
    return (stat["q3"] - stat["q1"]) / stat["median"] if stat["median"] else 0.0


def _verdict(before: float, after: float, bound: float, better: str) -> str:
    """``bound`` is absolute here; callers scale relative bounds first."""
    worsening = after - before if better == "lower" else before - after
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare_results(a: dict, b: dict, spec: dict) -> list[dict]:
    """Rows ``{workload, metric, a, b, verdict}`` for B measured against A."""
    if a["seed"] != b["seed"] or a["comparable"] != b["comparable"]:
        raise ValueError("results differ in seed or size; their rows are not comparable")
    metrics = list(spec["end_to_end"])
    # ``wall_s`` is ``us_per_record`` before normalisation: same bound.
    per_record = next(m for m in metrics if m["name"] == "us_per_record")
    metrics.insert(metrics.index(per_record), per_record | {"name": "wall_s"})
    rows = []
    for workload in a["workloads"]:
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            sa, sb = wa["end_to_end"][name], wb["end_to_end"][name]
            if max(_spread(sa), _spread(sb)) > bound:
                verdict = "unresolved"
            else:
                verdict = _verdict(
                    sa["median"], sb["median"], bound * sa["median"], metric["better"]
                )
            rows.append(_row(workload, name, sa["median"], sb["median"], verdict))
        for name, better in QUALITY_BETTER.items():
            qa, qb = wa["quality"][name], wb["quality"][name]
            rows.append(
                _row(workload, name, qa, qb, _verdict(qa, qb, QUALITY_BOUND_ABS, better))
            )
        fa, fb = wa["failed_share"], wb["failed_share"]
        rows.append(_row(workload, "failed_share", fa, fb, _verdict(fa, fb, 0.0, "lower")))
    return rows


def _row(workload: str, metric: str, a: float, b: float, verdict: str) -> dict:
    return {"workload": workload, "metric": metric, "a": a, "b": b, "verdict": verdict}


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<15} {'metric':<14} {'A':>14} {'B':>14}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:<15} {row['metric']:<14} "
            f"{row['a']:>14.6g} {row['b']:>14.6g}  {row['verdict']}"
        )
    return "\n".join(lines)


def regressed(rows: list[dict]) -> bool:
    """Exit-1 condition: any ``worse`` row (a higher ``failed_share`` is one)."""
    return any(row["verdict"] == "worse" for row in rows)
