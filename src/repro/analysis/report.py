"""Plain-text rendering of tables and series.

The benchmark harness prints the same rows the paper's tables and
figures report; these helpers keep the formatting in one place.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence


def render_table(rows: Sequence[Mapping], columns: Sequence[str],
                 *, title: str = "") -> str:
    """Render dict-rows as an aligned text table."""
    if not rows:
        return (title + "\n(empty)\n") if title else "(empty)\n"
    widths = {col: len(col) for col in columns}
    rendered_rows: List[List[str]] = []
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col, "")
            if isinstance(value, float):
                text = f"{value:.2f}"
            else:
                text = str(value)
            widths[col] = max(widths[col], len(text))
            cells.append(text)
        rendered_rows.append(cells)

    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for cells in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[col])
                               for cell, col in zip(cells, columns)))
    return "\n".join(lines) + "\n"


def render_series(points: Iterable[tuple], *, title: str = "",
                  label_width: int = 12, bar_scale: float = 1.0) -> str:
    """Render (label, value) points as a text sparkline table."""
    lines = [title] if title else []
    for label, value in points:
        bar = "#" * max(0, round(value * bar_scale))
        lines.append(f"{str(label):<{label_width}} {value:8.3f}  {bar}")
    return "\n".join(lines) + "\n"


def render_profile(profile, width: int = 32) -> str:
    """Flame-style text rendering of a wall-clock
    :class:`~repro.obs.profile.ProfileReport`: one proportional bar per
    pipeline stage, then the top-N slowest domains."""
    total = profile.total_seconds
    lines = [f"wall-clock stage profile "
             f"({profile.domains_profiled:,} domains, "
             f"{total:.2f}s in stages)"]
    if not profile.stage_seconds:
        lines.append("  no stages profiled")
        return "\n".join(lines) + "\n"
    for stage in sorted(profile.stage_seconds,
                        key=lambda s: -profile.stage_seconds[s]):
        seconds = profile.stage_seconds[stage]
        share = seconds / total if total else 0.0
        bar = "█" * max(1, round(share * width))
        lines.append(f"  {stage:<8} {bar:<{width}} {seconds:8.3f}s "
                     f"{100.0 * share:5.1f}%  "
                     f"{profile.stage_calls.get(stage, 0):,} calls")
    if profile.slowest:
        lines.append("slowest domains:")
        for seconds, month, domain in profile.slowest:
            lines.append(f"  {domain:<28} m{month:02d} "
                         f"{1000.0 * seconds:8.3f}ms")
    return "\n".join(lines) + "\n"


def render_drift_table(rows) -> str:
    """The ``monitor`` subcommand's month-over-month signal table."""
    if not rows:
        return "(no monthly records)\n"
    formatted = []
    for row in rows:
        formatted.append({
            "month": f"m{int(row['month']):02d}",
            "domains": int(row["domains"]),
            "transient": f"{row['transient_rate']:.2%}",
            "jump": (f"{row['transient_jump']:+.2%}"
                     if "transient_jump" in row else "-"),
            "dns-hit": f"{row['dns_hit_rate']:.1%}",
            "smtp-hit": f"{row['smtp_hit_rate']:.1%}",
            "retries/dom": f"{row['retries_per_domain']:.3f}",
            "bucket-shift": (f"{row['max_bucket_shift']:.2%}"
                             if "max_bucket_shift" in row else "-"),
        })
    return render_table(
        formatted,
        ("month", "domains", "transient", "jump", "dns-hit", "smtp-hit",
         "retries/dom", "bucket-shift"),
        title="month-over-month scan health")
