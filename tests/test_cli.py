import io
import json

import pytest

from clinchbench.cli import (
    entry,
    tight_instance,
    tight_ratio_formula,
    _parse_span,
)
from clinchbench.core import parse_instance, serialize_instance, serialize_outcome
from clinchbench.clinching import closed_form
from clinchbench.envyfree import efo_welfare
from clinchbench.profit import pseudo_vickrey


# ----------------------------------------------------------------------
# Hard family helpers
# ----------------------------------------------------------------------


def test_tight_instance_shape():
    inst = tight_instance(3)
    assert inst.values == (27.0, 3.0, 3.0, 3.0 - 1e-6)
    assert inst.weights == (1.0, 0.0, 0.0, 0.0)
    assert inst.budget == 1.0


def test_tight_instance_validation():
    with pytest.raises(ValueError):
        tight_instance(1)
    with pytest.raises(ValueError):
        tight_instance(3, eps=3.0)
    with pytest.raises(ValueError):
        tight_instance(3, eps=-0.5)


def test_tight_ratio_formula():
    assert tight_ratio_formula(3) == pytest.approx(15 / 11)
    assert tight_ratio_formula(400) > 1.99
    # the family approaches the two-approximation bound from below
    assert tight_ratio_formula(10_000) < 2.0


def test_tight_family_realizes_the_formula():
    inst = tight_instance(5)
    ef = efo_welfare(inst).objective
    cl, _ = closed_form(inst)
    welfare = sum(v * x for v, x in zip(inst.values, cl.alloc))
    assert ef / welfare == pytest.approx(tight_ratio_formula(5), abs=1e-6)


def test_parse_span():
    assert _parse_span("3..10") == (3, 10)
    assert _parse_span("7") == (7, 7)
    for bad in ("5..3", "1..4", "x", "3..x"):
        with pytest.raises(ValueError):
            _parse_span(bad)


# ----------------------------------------------------------------------
# gen
# ----------------------------------------------------------------------


def test_gen_tight_round_trips(tmp_path):
    out = tmp_path / "inst.json"
    assert entry(["gen", "tight", "--N", "3", "--out", str(out)]) == 0
    assert parse_instance(out.read_text()) == tight_instance(3)


def test_gen_random_is_seeded(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    for path in (a, b):
        assert entry(["gen", "uniform", "--n", "6", "--seed", "9",
                      "--out", str(path)]) == 0
    assert entry(["gen", "uniform", "--n", "6", "--seed", "10",
                  "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    parse_instance(a.read_text())  # parses back


def test_gen_exponential(tmp_path):
    out = tmp_path / "e.json"
    assert entry(["gen", "exponential", "--n", "4", "--seed", "2",
                  "--out", str(out)]) == 0
    inst = parse_instance(out.read_text())
    assert inst.n == 4
    assert all(v > 0.0 for v in inst.values)


def test_gen_rejects_unknown_kind():
    with pytest.raises(SystemExit) as err:
        entry(["gen", "gaussian", "--n", "4"])
    assert err.value.code == 2


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


@pytest.fixture()
def fixture_path(tmp_path, worked):
    path = tmp_path / "worked.json"
    path.write_text(serialize_instance(worked))
    return str(path)


def test_run_clinching_document(fixture_path, tmp_path):
    out = tmp_path / "run.json"
    rc = entry(["run", "clinching", fixture_path, "--trace",
                "--oracle", "--step", "1e-4", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["check"] == []
    assert doc["outcome"]["welfare"] == pytest.approx(6.125)
    assert doc["outcome"]["revenue"] == pytest.approx(2.75)
    assert doc["structure"] == {"k": 3, "delta": 0.125, "phase2_start": 1.0}
    assert [ev["kind"] for ev in doc["trace"]] == ["gradual-phase", "final-split"]
    assert doc["oracle"]["kind"] == "clock"
    assert doc["oracle"]["max_pay_delta"] < 1e-3


def test_run_benchmark_against_lp(fixture_path, tmp_path):
    out = tmp_path / "run.json"
    rc = entry(["run", "efo-welfare", fixture_path, "--oracle", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["objective"] == pytest.approx(6.5)
    assert doc["oracle"]["kind"] == "lp"
    assert abs(doc["oracle"]["delta"]) < 1e-8


def test_run_seeded_mechanism(fixture_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        rc = entry(["run", "bspe", fixture_path, "--q", "0.3", "--seed", "4",
                    "--out", str(path)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_bspe_nobudget_document(tmp_path):
    values = [2.5, 4.0, 1.5, 3.0, 2.0]  # unsorted: the outcome keeps this order
    path = tmp_path / "unlimited.json"
    path.write_text(json.dumps({"values": values, "weights": [1.0, 0.8, 0.5, 0.2, 0.0],
                                "budget": "inf"}))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        rc = entry(["run", "bspe-nobudget", str(path), "--q", "0.3", "--seed", "5",
                    "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert set(doc["events"]) == {"rejected", "fallback", "bump"}
    alloc, pay = doc["outcome"]["alloc"], doc["outcome"]["pay"]
    assert doc["outcome"]["revenue"] > 0.0
    for v, x, p in zip(values, alloc, pay):
        assert v * x - p >= -1e-9


def test_run_pseudo_vickrey_oracle(tmp_path):
    values = [3.0, 5.0, 2.0, 4.0]  # unsorted: the outcome keeps this order
    path = tmp_path / "top.json"
    path.write_text(json.dumps({"values": values, "weights": [0.8, 0.5, 0.3, 0.1],
                                "budget": 1.5}))
    out = tmp_path / "run.json"
    rc = entry(["run", "pseudo-vickrey", str(path), "--oracle", "--step", "1e-4",
                "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["oracle"]["kind"] == "clock"
    assert doc["oracle"]["step"] == 1e-4
    # the tick clock lags by one step: step * S_n / min(v_n, B) on the
    # top-slot instance, whose only supply is the top weight
    alloc_tol = 1e-4 * 0.8 / min(2.0, 1.5)
    assert doc["oracle"]["max_alloc_delta"] <= alloc_tol
    assert doc["oracle"]["max_pay_delta"] <= alloc_tol * 5.0
    inst = parse_instance(path.read_text())
    expected = json.loads(serialize_outcome(inst, pseudo_vickrey(inst)))
    assert doc["outcome"] == expected
    assert doc["outcome"]["revenue"] > 0.0


def test_run_reads_stdin(monkeypatch, capsys, worked):
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_instance(worked)))
    assert entry(["run", "clinching", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"]["revenue"] == pytest.approx(2.75)


def test_run_missing_file_is_a_config_error(capsys):
    assert entry(["run", "clinching", "/nonexistent/inst.json"]) == 2
    assert capsys.readouterr().err != ""


# ----------------------------------------------------------------------
# experiment
# ----------------------------------------------------------------------


def _lines(path):
    return path.read_text().strip().split("\n")


def test_experiment_welfare_approx(tmp_path):
    out = tmp_path / "w.csv"
    rc = entry(["experiment", "welfare-approx", "--trials", "6", "--n", "5",
                "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = _lines(out)
    assert len(lines) == 8  # header + rows + summary
    assert lines[0].startswith("trial,")
    assert [line.split(",", 1)[0] for line in lines[1:7]] == [str(t) for t in range(6)]
    assert lines[-1].startswith("#summary,")
    assert lines[-1].endswith("ok=1")
    assert "np.float" not in out.read_text()


def test_experiment_outputs_are_byte_stable(tmp_path):
    runs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        rc = entry(["experiment", "dominance-walk", "--trials", "60", "--n", "40",
                    "--q", "0.25", "--seed", "3", "--out", str(path)])
        assert rc == 0
        runs.append(path.read_bytes())
    assert runs[0] == runs[1]
    other = tmp_path / "c.csv"
    entry(["experiment", "dominance-walk", "--trials", "60", "--n", "40",
           "--q", "0.25", "--seed", "4", "--out", str(other)])
    assert other.read_bytes() != runs[0]


def test_experiment_walk_columns(tmp_path):
    out = tmp_path / "dw.csv"
    entry(["experiment", "dominance-walk", "--trials", "10", "--n", "30",
           "--q", "0.2", "--seed", "0", "--out", str(out)])
    lines = _lines(out)
    assert lines[0] == "trial,seed,k,pointwise_fail,top_in_market"
    assert all(len(line.split(",")) == 5 for line in lines[1:-1])


def test_experiment_bspe_revenue(tmp_path):
    out = tmp_path / "b.csv"
    rc = entry(["experiment", "bspe-revenue", "--trials", "120", "--n", "8",
                "--q", "0.25", "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert _lines(out)[-1].endswith("ok=1")


def test_experiment_tight_ratio(tmp_path):
    out = tmp_path / "t.csv"
    rc = entry(["experiment", "tight-ratio", "--N", "3..8", "--seed", "3",
                "--out", str(out)])
    assert rc == 0
    summary = _lines(out)[-1]
    field = next(p for p in summary.split(",") if p.startswith("max_abs_delta="))
    assert float(field.split("=", 1)[1]) < 1e-5


def test_experiment_oracle_agreement(tmp_path):
    out = tmp_path / "o.csv"
    rc = entry(["experiment", "oracle-agreement", "--trials", "5", "--n", "6",
                "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert _lines(out)[-1].endswith("ok=1")


def test_experiment_failed_bound_exits_one(tmp_path, monkeypatch):
    # poison the reference constants so every bound check must fail
    monkeypatch.setattr("clinchbench.cli.profit.walk_closed_forms",
                        lambda q: (-1.0, -1.0, -1.0))
    out = tmp_path / "f.csv"
    rc = entry(["experiment", "dominance-walk", "--trials", "20", "--n", "20",
                "--q", "0.25", "--seed", "0", "--out", str(out)])
    assert rc == 1
    assert _lines(out)[-1].endswith("ok=0")


def test_experiment_config_errors(capsys):
    assert entry(["experiment", "welfare-approx", "--trials", "0"]) == 2
    assert entry(["experiment", "tight-ratio", "--N", "1..5"]) == 2
    # the guarantee's (1 - 2q)^2 denominator vanishes at q = 0.5
    assert entry(["experiment", "bspe-revenue", "--trials", "2", "--q", "0.5"]) == 2
    capsys.readouterr()
