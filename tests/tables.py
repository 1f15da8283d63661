"""Reference tables built from a calibration, for tests that refit them."""

from __future__ import annotations

from specroute.costmodel import DRAFT_ONLY, TABLE_NUM_BLOCKS, TARGET_ONLY, expected_rejected_blocks
from specroute.synthmodels import Calibration, ReferenceTable, TableRow


def synthetic_table(calibration: Calibration) -> ReferenceTable:
    """Model-predicted table at the calibration's own knots.

    Refitting this table reproduces the calibration exactly (the rows are
    generated by the fitted models, so every fit is a zero-residual
    fixed point). Useful as a self-consistency oracle.
    """
    quantile, latency, proxy = calibration.quantile, calibration.latency, calibration.proxy
    b = TABLE_NUM_BLOCKS
    t_target = b * latency.c_target
    draft_path = b * (latency.c_draft + latency.c_decode)

    def run_time(rate: float) -> float:
        return draft_path + expected_rejected_blocks(rate, b) * latency.c_target

    main = [
        TableRow(method=TARGET_ONLY, vr=proxy.base_quality, time_s=t_target)
    ]
    for tau, rate in quantile.quantile_knots:
        vr = proxy.base_quality - (b - 1) * proxy.expected_penalty_above(quantile, tau)
        time_s = run_time(rate)
        main.append(
            TableRow(
                method="threshold",
                tau=tau,
                vr=vr,
                time_s=time_s,
                accept_rate=rate,
            )
        )
    vr_draft = proxy.base_quality - b * proxy.expected_penalty_above(quantile, float("-inf"))
    main.append(
        TableRow(method=DRAFT_ONLY, vr=vr_draft, time_s=draft_path)
    )

    ablation = []
    for tau in (-0.2, -0.5, -0.7):
        shifted = tau - quantile.frame_gap_mean
        rate = quantile.accept_rate(shifted)
        vr = proxy.base_quality - (b - 1) * proxy.expected_penalty_above(quantile, shifted)
        time_s = run_time(rate)
        ablation.append(
            TableRow(
                method="avg_frame",
                tau=tau,
                vr=vr,
                time_s=time_s,
                accept_rate=rate,
            )
        )
    return ReferenceTable(main=tuple(main), ablation=tuple(ablation))


def table_to_json_dict(table: ReferenceTable) -> dict:
    def row(r: TableRow) -> dict:
        return {
            "method": r.method,
            "tau": r.tau,
            "vr": r.vr,
            "time_s": r.time_s,
            "accept_rate": r.accept_rate,
        }

    return {
        "schema_version": 1,
        "main": [row(r) for r in table.main],
        "ablation": [row(r) for r in table.ablation],
    }
