"""Analytic cost accounting: formula units, MACs, and parameter counts.

Three quantities are reported per layer and never mixed:

``formula_units``
    The block cost formulas evaluated verbatim, in exact integer
    arithmetic: a standard-attention block costs (2E+4)*N*D^2 + 2*N^2*D
    and a dual cross-attention block (2E+4)*(N+M)*D^2 + 2*N*M*D. The dual
    block's attention term counts 2*N*M*D even though its two branches
    each execute N*M*D multiply-accumulate pairs; ``strict_dual=True``
    switches that term to 4*N*M*D. The cross-attention block row follows
    the same accounting pattern (it has no published row of its own):
    2*M*D^2 + 2*N*D^2 + 2*N*M*D + 2*E*(N+M)*D^2.

``macs``
    Module-level multiply-accumulates of convolutions and linear layers
    only: stems, positional-encoding convs, query/key/value/output
    projections, feed-forward layers, downsample convs, meta projections,
    and the classifier. Softmax-side attention matrix products,
    normalizations, and activations are excluded, matching the common
    module-hook profiler convention behind published MAC tables.

``attn_macs``
    The excluded attention matrix products (logits and weighted sums),
    counted at their true cost per branch, reported separately so nothing
    is silently dropped or doubled.

``count_model`` walks the stage layout of ``model.group_layout`` and
reads each block's parameters, ``macs`` and ``attn_macs`` off the route
``blocks.BLOCKS[kind].route`` that the built block runs, so its totals
equal the built model's parameter count and an instrumented forward
exactly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .blocks import BLOCKS, Route
from .errors import ConfigError, UsageError
from .model import VariantSpec, group_layout

CONVENTION_NOTE = (
    "macs = conv + linear module MACs only (projections, FFN, stems, CPE, "
    "downsamples, head); attention matrix products are reported separately "
    "as attn_macs; normalizations and activations are not counted"
)

# the published block formulas, evaluated verbatim; ``dual`` is the factor
# of the dual attention term (2, or 4 under strict_dual)
_FORMULAS = {
    "dca": lambda n, m, d, e, dual: (2 * e + 4) * (n + m) * d * d + dual * n * m * d,
    "sa": lambda n, m, d, e, dual: (2 * e + 4) * n * d * d + 2 * n * n * d,
    # cross-attention row, derived from the same accounting pattern
    "ca": lambda n, m, d, e, dual: (
        2 * m * d * d + 2 * n * d * d + 2 * n * m * d + 2 * e * (n + m) * d * d
    ),
}
_KINDS = tuple(_FORMULAS)


def count_block(kind: str, n: int, m: int, d: int, e: int, strict_dual: bool = False) -> int:
    """Formula units of one attention block, exact integer arithmetic."""
    if kind not in _KINDS:
        raise ConfigError(f"unknown block kind {kind!r}; expected one of {_KINDS}")
    if n < 0 or m < 0 or d <= 0 or e <= 0:
        raise ConfigError(f"bad block size n={n} m={m} d={d} e={e}")
    return _FORMULAS[kind](n, m, d, e, 4 if strict_dual else 2)


@dataclass
class ComplexityEntry:
    name: str
    kind: str
    n: int
    m: int
    d: int
    e: int
    formula_units: int
    attn_macs: int
    macs: int
    params: int


@dataclass
class ComplexityReport:
    entries: list[ComplexityEntry] = field(default_factory=list)

    def _total(self, attr: str) -> int:
        return sum(getattr(entry, attr) for entry in self.entries)

    @property
    def total_formula_units(self) -> int:
        return self._total("formula_units")

    @property
    def total_attn_macs(self) -> int:
        return self._total("attn_macs")

    @property
    def total_macs(self) -> int:
        return self._total("macs")

    @property
    def total_params(self) -> int:
        return self._total("params")


def _ffn_params(d: int, e: int) -> int:
    hidden = e * d
    return d * hidden + hidden + hidden * d + d


def block_cost(route: Route, n: int, m: int, d: int, e: int, cpe_kernel: int):
    """(params, macs, attn_macs) of one block running ``route`` over n image and m meta tokens."""
    tokens = {"img": n, "meta": m}
    linear = d * d + d
    params = 3 * linear + 2 * d * len(route.normed) + _ffn_params(d, e)
    macs = 0
    attn_macs = 0
    if route.cpe:
        params += d * cpe_kernel * cpe_kernel + d
        macs += cpe_kernel * cpe_kernel * d * n
    for s, src in route.branches:
        params += linear + 2 * d  # output projection, FFN norm
        macs += 2 * (tokens[s] + tokens[src]) * d * d  # q, out on s; k, v on src
        macs += 2 * e * tokens[s] * d * d  # shared FFN on the updated stream
        attn_macs += 2 * tokens[s] * tokens[src] * d
    return params, macs, attn_macs


def count_model(spec: VariantSpec, input_px: int, strict_dual: bool = False) -> ComplexityReport:
    """Per-layer accounting over the exact stage layout of a built model
    for one square ``input_px`` x ``input_px`` image."""
    if input_px % 32 or input_px < 64:
        raise ConfigError(f"input extent must be a multiple of 32 and >= 64, got {input_px}")

    d1, d4 = spec.dims[0], spec.dims[-1]
    m = spec.meta_len
    e = spec.expansion
    k = spec.cpe_kernel
    report = ComplexityReport()

    def grid(stride: int) -> int:
        return (input_px // stride) ** 2

    mid = d1 // 2
    stem_macs = 9 * 3 * mid * grid(2) + 9 * mid * d1 * grid(4)
    stem_params = 3 * mid * 9 + mid + mid * d1 * 9 + d1
    report.entries.append(
        ComplexityEntry("stem", "stem", grid(4), 0, d1, e, 0, 0, stem_macs, stem_params)
    )

    meta_d0 = spec.meta_dim0 if spec.use_meta_stem else d1
    report.entries.append(
        ComplexityEntry("meta.init", "param", 0, m, meta_d0, e, 0, 0, 0, m * meta_d0)
    )
    if spec.use_meta_stem:
        d0 = spec.meta_dim0
        report.entries.append(
            ComplexityEntry(
                "meta_stem", "stem", 0, m, d1, e, 0, 0,
                m * (d0 * d1 + d1 * d1),
                d0 * d1 + d1 + d1 * d1 + d1,
            )
        )

    layout = group_layout(spec)
    for gi, g in enumerate(layout):
        n = grid(g.stride)
        for bi in range(g.count):
            params, macs, attn_macs = block_cost(BLOCKS[g.kind].route, n, m, g.dim, e, k)
            report.entries.append(
                ComplexityEntry(
                    f"s{gi}.b{bi}", g.kind, n, m, g.dim, e,
                    count_block(g.kind, n, m, g.dim, e, strict_dual=strict_dual),
                    attn_macs, macs, params,
                )
            )
        if g.ends_stage and gi + 1 < len(layout):
            din, dout = g.dim, layout[gi + 1].dim
            n_out = grid(layout[gi + 1].stride)
            report.entries.append(
                ComplexityEntry(
                    f"ds{g.stage + 1}", "downsample", n_out, m, dout, e, 0, 0,
                    9 * din * dout * n_out + m * din * dout,
                    9 * din * dout + dout + din * dout + dout,
                )
            )

    head_params = 2 * d4 + d4 * spec.num_classes + spec.num_classes
    if spec.use_meta_pooling:
        head_params += 2 * d4
    report.entries.append(
        ComplexityEntry(
            "head", "head", grid(layout[-1].stride), m, d4, e, 0, 0,
            d4 * spec.num_classes, head_params,
        )
    )
    return report


_COLUMNS = ("name", "kind", "n", "m", "d", "e", "formula_units", "attn_macs", "macs", "params")


def _rows(report: ComplexityReport) -> list[list]:
    rows = [
        [getattr(entry, c) for c in _COLUMNS] for entry in report.entries
    ]
    rows.append(
        ["total", "total", "", "", "", "",
         report.total_formula_units, report.total_attn_macs,
         report.total_macs, report.total_params]
    )
    return rows


def emit_report(report: ComplexityReport, fmt: str = "table") -> str:
    """Render a report as an aligned table, CSV, or JSON text."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        writer.writerows(_rows(report))
        return buf.getvalue()
    if fmt == "json":
        doc = {
            "convention": CONVENTION_NOTE,
            "entries": [
                {c: getattr(entry, c) for c in _COLUMNS} for entry in report.entries
            ],
            "totals": {
                "formula_units": report.total_formula_units,
                "attn_macs": report.total_attn_macs,
                "macs": report.total_macs,
                "params": report.total_params,
            },
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "table":
        rows = [list(_COLUMNS)] + [[str(v) for v in row] for row in _rows(report)]
        widths = [max(len(r[i]) for r in rows) for i in range(len(_COLUMNS))]
        lines = []
        for idx, row in enumerate(rows):
            lines.append("  ".join(v.rjust(w) if i > 1 else v.ljust(w)
                                   for i, (v, w) in enumerate(zip(row, widths))))
            if idx == 0:
                lines.append("  ".join("-" * w for w in widths))
        lines.append("")
        lines.append(f"note: {CONVENTION_NOTE}")
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown report format {fmt!r}; expected table, csv, or json")
