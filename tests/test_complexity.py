import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from metavit import complexity
from metavit import tensor as T
from metavit.blocks import BLOCKS, CABlock, DCABlock, ParamStore, SABlock, TokenGrid
from metavit.complexity import (
    ComplexityReport,
    block_cost,
    count_block,
    count_model,
    emit_report,
)
from metavit.errors import ConfigError, UsageError
from metavit.model import GROUPS, build_variant, variant
from metavit.tensor import MacCounter, Tensor

GOLDEN = Path(__file__).parent / "golden"


class TestCountBlock:
    def test_published_first_stage_values(self):
        assert count_block("dca", 3136, 16, 64, 4) == 161_349_632
        assert count_block("dca", 3136, 16, 96, 4) == 358_219_776
        assert count_block("sa", 3136, 16, 64, 4) == 1_412_956_160
        assert count_block("sa", 3136, 16, 96, 4) == 2_235_039_744

    def test_zero_meta_collapse(self):
        n, d, e = 64, 32, 4
        assert count_block("dca", n, 0, d, e) == (2 * e + 4) * n * d * d

    def test_strict_mode_counts_both_branches(self):
        n, m, d, e = 100, 8, 16, 4
        assert (count_block("dca", n, m, d, e, strict_dual=True)
                - count_block("dca", n, m, d, e)) == 2 * n * m * d

    def test_dca_cheaper_than_sa_iff_meta_below_threshold(self):
        # dca < sa exactly when m * ((2e+4)d + 2n) < 2n^2
        e = 4
        for n in (256, 1024, 3136):
            for m in (8, 16, 64):
                for d in (64, 128, 512):
                    threshold = 2 * n * n / ((2 * e + 4) * d + 2 * n)
                    cheaper = count_block("dca", n, m, d, e) < count_block("sa", n, m, d, e)
                    assert cheaper == (m < threshold), (n, m, d)

    def test_dca_cheaper_at_every_real_stage_shape(self):
        # stride-4 and stride-8 shapes of all published variants, meta up to 64
        for n, d in ((3136, 64), (3136, 96), (784, 128), (784, 192)):
            for m in (8, 16, 32, 64):
                assert count_block("dca", n, m, d, 4) < count_block("sa", n, m, d, 4)

    def test_linear_in_n(self):
        m, d, e = 16, 64, 4
        diffs = {
            count_block("dca", n + 1, m, d, e) - count_block("dca", n, m, d, e)
            for n in (10, 100, 1000, 5000)
        }
        assert len(diffs) == 1  # constant finite difference

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            count_block("mlp", 10, 10, 10, 4)


class TestCountModel:
    @pytest.mark.parametrize("name,macs_g,params_m", [
        ("tiny", 1.78, 8.64), ("small", 3.74, 16.40), ("base", 11.06, 53.10),
    ])
    def test_whole_model_within_published_envelope(self, name, macs_g, params_m):
        rep = count_model(variant(name), 224)
        assert abs(rep.total_macs - macs_g * 1e9) / (macs_g * 1e9) < 0.15
        assert abs(rep.total_params - params_m * 1e6) / (params_m * 1e6) < 0.15

    def test_meta_length_sweep(self):
        published = {64: 4.39e9, 32: 3.95e9, 16: 3.74e9, 8: 3.63e9}
        totals = {}
        for m, target in published.items():
            rep = count_model(variant("small", meta_len=m), 224)
            totals[m] = rep.total_macs
            assert abs(totals[m] - target) / target < 0.15
        assert totals[64] > totals[32] > totals[16] > totals[8]
        delta = totals[64] - totals[16]
        assert abs(delta - 0.65e9) / 0.65e9 < 0.15

    def test_params_equal_built_model_exactly(self):
        for name in ("tiny", "small", "base"):
            spec = variant(name)
            assert count_model(spec, 224).total_params == build_variant(spec, 0).param_count()
        for overrides in ({"use_ca_stage": False}, {"use_meta_stem": False},
                          {"use_meta_pooling": False}):
            spec = variant("tiny-narrow", num_classes=3, **overrides)
            assert count_model(spec, 64).total_params == build_variant(spec, 0).param_count()

    def test_block_kinds_agree(self):
        assert set(BLOCKS) == {kind for kind, _ in GROUPS} == set(complexity._FORMULAS)

    def test_block_cost_reads_each_kind_route(self, monkeypatch):
        routes = []

        def recording_cost(route, *args):
            routes.append(route)
            return block_cost(route, *args)

        monkeypatch.setattr(complexity, "block_cost", recording_cost)
        report = count_model(variant("tiny"), 224)
        kinds = [entry.kind for entry in report.entries if entry.kind in BLOCKS]
        assert len(routes) == len(kinds) == sum(variant("tiny").blocks)
        assert all(route is BLOCKS[kind].route for route, kind in zip(routes, kinds))

    def test_totals_are_entry_sums_and_order_invariant(self):
        rep = count_model(variant("tiny"), 224)
        assert rep.total_macs == sum(e.macs for e in rep.entries)
        shuffled = ComplexityReport(entries=list(reversed(rep.entries)))
        assert shuffled.total_macs == rep.total_macs
        assert shuffled.total_params == rep.total_params

    def test_bad_input_extent(self):
        with pytest.raises(ConfigError):
            count_model(variant("tiny"), 100)

    def test_first_dca_row_shows_published_units(self):
        rep = count_model(variant("tiny"), 224)
        row = next(e for e in rep.entries if e.name == "s1.b0")
        assert row.formula_units == 161_349_632
        rep_small = count_model(variant("small"), 224)
        row_small = next(e for e in rep_small.entries if e.name == "s1.b0")
        assert row_small.formula_units == 358_219_776


class TestEmpiricalAgreement:
    """Instrumented kernels vs the analytic projection+attention+FFN terms."""

    @pytest.mark.parametrize("kind", ["ca", "dca", "dca-sequential", "sa"])
    def test_block_macs_match_instrumented_forward(self, kind, rng):
        n_side, m, d, e = 8, 4, 16, 4
        n = n_side * n_side
        store = ParamStore(0)
        if kind == "ca":
            block = CABlock(store, "b", d, 8, e)
        elif kind.startswith("dca"):
            block = DCABlock(store, "b", d, 8, e, sequential=kind == "dca-sequential")
        else:
            block = SABlock(store, "b", d, 8, e)
        grid = TokenGrid(Tensor(rng.standard_normal((n, d)).astype(np.float32)), n_side, n_side)
        meta = Tensor(rng.standard_normal((m, d)).astype(np.float32))
        with T.no_grad(), MacCounter() as meter:
            block(grid, meta)

        params, macs, attn_macs = block_cost(block.route, n, m, d, e)
        assert meter.total == macs + attn_macs
        assert params == store.total_size()

    def test_model_macs_match_instrumented_forward(self, rng):
        spec = variant("tiny-narrow", num_classes=3)
        model = build_variant(spec, 0)
        img = Tensor(rng.standard_normal((3, 64, 64)).astype(np.float32))
        with T.no_grad(), MacCounter() as meter:
            model.forward_classify(img)
        rep = count_model(spec, 64)
        analytic = rep.total_macs + rep.total_attn_macs
        assert meter.total == analytic


class TestEmitReport:
    def test_table_has_block_rows_and_total(self):
        text = emit_report(count_model(variant("tiny"), 224), "table")
        lines = text.splitlines()
        assert sum(1 for l in lines if " dca " in l or l.startswith("s1")) >= 2
        assert any(l.startswith("total") for l in lines)

    def test_csv_round_trip_totals(self):
        rep = count_model(variant("small"), 224)
        rows = list(csv.DictReader(io.StringIO(emit_report(rep, "csv"))))
        total_row = rows[-1]
        assert total_row["name"] == "total"
        body = rows[:-1]
        assert sum(int(r["macs"]) for r in body) == int(total_row["macs"]) == rep.total_macs
        assert sum(int(r["params"]) for r in body) == rep.total_params

    def test_json_schema(self):
        doc = json.loads(emit_report(count_model(variant("tiny"), 224), "json"))
        assert set(doc) == {"convention", "entries", "totals"}
        assert set(doc["totals"]) == {"formula_units", "attn_macs", "macs", "params"}
        for entry in doc["entries"]:
            assert set(entry) == {"name", "kind", "n", "m", "d", "e",
                                  "formula_units", "attn_macs", "macs", "params"}
        assert doc["totals"]["macs"] == sum(e["macs"] for e in doc["entries"])

    def test_unknown_format(self):
        with pytest.raises(UsageError):
            emit_report(count_model(variant("tiny"), 224), "yaml")

    @pytest.mark.parametrize("name", ["tiny", "small", "base"])
    def test_golden_outputs_stable(self, name):
        text = emit_report(count_model(variant(name), 224), "csv")
        assert text == (GOLDEN / f"analyze_{name}.csv").read_text()
