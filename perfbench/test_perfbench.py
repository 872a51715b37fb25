"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    assert workloads.make_pool(workload, 7) == workloads.make_pool(workload, 7)
    assert workloads.make_pool(workload, 7) != workloads.make_pool(workload, 8)


def test_scan_grids_are_off_integer_with_designed_rows():
    for seed in range(20):
        for argv in workloads.make_pool("scan", seed):
            rows = 14 if "--alpha" not in argv else 24
            grid = workloads.scan_grid(argv)
            assert len(grid) == rows
            assert all(abs(g - round(g)) >= workloads.SCAN_INTEGER_GAP for g in grid)


def test_self_times_on_nested_tree():
    # root [0, 100] has children [10, 40] and [50, 90]; the first has a child
    # [20, 30]; an overlapping sibling [35, 60] of the first child adds 10 of
    # new cover to the root (40..50)
    tree = [
        ["root", 0, 100, -1, None],
        ["a", 10, 40, 0, None],
        ["a.1", 20, 30, 1, None],
        ["b", 50, 90, 0, None],
        ["c", 35, 60, 0, None],
    ]
    assert spans.self_times(tree) == [100 - 80, 30 - 10, 10, 40, 25]


def test_tail_is_taken_over_the_first_passes():
    def request(pass_no, main_s):
        req = run.Request(["check"], False, pass_no)
        req.main_s = main_s
        return req

    # two passes of 12 requests taking 1..12 s, then a slower third pass
    reqs = [request(p, 1.0 + i) for p in range(3) for i in range(12)]
    for req in reqs[24:]:
        req.main_s = 100.0
    reqs[0].error = "wrong output"  # a failed request counts as the 60 s timeout
    value, percentile, samples = run.tail(reqs, 2)
    # sorted: 1 once, 2..12 twice, 60 once; 10 samples lie beyond the 14th of 24
    assert (value, samples) == (8.0, 24)
    assert percentile == pytest.approx(100 * 14 / 24)


def test_end_to_end_times_scale_with_interpreter_start_up():
    reqs = []
    for boot, main_s in ((0.1, 2.0), (0.1, 4.0), (0.2, 10.0)):
        req = run.Request(["scan"], False, 0)
        req.boot_s, req.setup_s, req.main_s, req.rss_mb, req.items = boot, 0.3, main_s, 20.0, 3
        reqs.append(req)
    ref = run.BOOT_REF_S
    m = run.end_to_end(reqs, 1)
    # each request's times in units of its own start-up: 20, 40 and 50 start-ups
    assert m["latency_p50_s"] == pytest.approx(40 * ref)
    assert m["setup_s"] == pytest.approx(3 * ref)
    assert m["items_per_s"] == pytest.approx(9 / (110 * ref))


def test_layer_metrics_split_quadrature_by_parent():
    quad = spans.QUAD
    request = [
        ["cli.main", 0, 1000, -1, None],
        ["quad.integrate_phi", 100, 300, 0, None],
        [quad, 110, 290, 1, [200, 8.0, 0.5, True]],
        ["special.log_barnesG_integral", 400, 900, 0, None],
        [quad, 410, 890, 3, [1000, 1e15, 0.25, False]],
    ]
    m = spans.layer_metrics([request, request])
    assert m[f"{quad}.phi.calls"] == 1 and m[f"{quad}.barnes.calls"] == 1
    assert m[f"{quad}.phi.evals_per_call"] == 200
    assert m[f"{quad}.barnes.tail_cutoff_max"] == 1e15
    assert m[f"{quad}.barnes.unconverged"] == 1
    assert m["special.log_barnesG_integral.evals"] == 1000
    assert m["cli.self_s"] == pytest.approx(300e-9)
    assert m["cli.main.total_s"] == pytest.approx(1000e-9)


def test_benchmark_json_lists_every_metric_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = list(spans.layer_metrics([])) + ["trace.overhead_s"]
    assert sorted(layer) == sorted(reported)
    assert all(layer[name] == run.layer_unit(name) for name in reported)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _cli(argv):
    from lievol import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_tracer_restores_every_binding():
    import lievol
    from lievol import cli, quad, rootsys, special, volume

    before = {(m.__name__, k): v for m in (lievol, cli, quad, rootsys, special, volume)
              for k, v in vars(m).items() if callable(v)}
    with spans.Tracer() as tracer:
        original = before[("lievol.quad", "integrate_semiinfinite")]
        assert special.integrate_semiinfinite.__wrapped__ is original
        _cli(["volume", "--group", "SU", "--n", "3", "--format", "json"])
    after = {(m.__name__, k): v for m in (lievol, cli, quad, rootsys, special, volume)
             for k, v in vars(m).items() if callable(v)}
    assert after == before
    assert not tracer.missing
    names = {s[0] for s in tracer.spans}
    assert {"rootsys.minimal_pairing", "volume.phi_kp", "quad.integrate_semiinfinite"} <= names


def test_validator_rejects_perturbed_output():
    argv = ["scan", "--from", "0.55", "--to", "2.1", "--step", "0.5"]
    good = _cli(argv)
    want = oracle.expect(argv)
    assert oracle.validate(argv, good, want)[0] == 4
    # change one digit of the second row's phi, leaving the format intact
    lines = good.splitlines()
    gamma, phi, ref, res = lines[2].split(",")
    lines[2] = ",".join([gamma, phi[:8] + str((int(phi[8]) + 1) % 10) + phi[9:], ref, res])
    with pytest.raises(oracle.Mismatch):
        oracle.validate(argv, "\n".join(lines) + "\n", want)


def test_validator_rejects_perturbed_report():
    argv = ["volume", "--group", "Sp", "--n", "20", "--format", "json"]
    good = _cli(argv)
    want = oracle.expect(argv)
    assert oracle.validate(argv, good, want)[0] == 1
    row = json.loads(good)
    bad = json.dumps(dict(row, phi_kp=row["phi_kp"] * (1 + 1e-8)))
    with pytest.raises(oracle.Mismatch):
        oracle.validate(argv, bad, want)
