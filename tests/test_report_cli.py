"""Report determinism and the command line surface."""

import hashlib
import json
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

from voazhu import report
from voazhu.cli import main
from voazhu.linalg import SparseEchelon
from voazhu.report import SuiteConfig, report_json, run_suite
from voazhu.serialize import (monomial_str, pairs_to_vector, parse_module_spec,
                              parse_monomial, scalar_str, vector_to_pairs)

QUICK = SuiteConfig(seed=11, n_values=(0,))


@pytest.fixture(scope="module")
def quick_report():
    return run_suite(QUICK)


def test_suite_passes_and_is_deterministic(quick_report):
    again = run_suite(QUICK)
    assert report_json(quick_report) == report_json(again)
    counts = quick_report["summary"]["counts"]
    assert set(counts) <= {"pass", "certified"}


def test_suite_differs_across_seeds(quick_report):
    other = run_suite(SuiteConfig(**{**QUICK.__dict__, "seed": 12}))
    assert report_json(other) != report_json(quick_report)


def test_entries_sorted_canonically(quick_report):
    keys = [(e["module"], e["check_id"], e["input_hash"])
            for e in quick_report["entries"]]
    assert keys == sorted(keys)


def test_entries_carry_identity_and_hash(quick_report):
    for e in quick_report["entries"]:
        assert e["identity"]
        assert len(e["input_hash"]) == 16


def test_timestamp_only_when_unnormalized(quick_report):
    assert "timestamp" not in quick_report
    noisy = run_suite(SuiteConfig(**{**QUICK.__dict__, "normalize": False}))
    assert "timestamp" in noisy


def test_window_cap_too_small_reports_inconclusive_with_trail(monkeypatch):
    """A starved window cap degrades to Inconclusive entries that carry
    their retry trail; the suite never aborts."""
    monkeypatch.setattr(report, "WINDOW_CAP", 2)
    rep = run_suite(QUICK)
    stuck = [e for e in rep["entries"] if e["status"] == "inconclusive"]
    assert stuck, "expected some inconclusive results under a tiny window cap"
    for e in stuck:
        assert e["windows_tried"] and max(e["windows_tried"]) <= 2
    # exact-equality families are unaffected by the cap
    assert all(e["status"] == "pass" for e in rep["entries"]
               if e["module"] == "exact-formal")


def test_serialize_roundtrip(heis, fock_half):
    for module in (heis, fock_half):
        x = (module.monomial([("a", -3), ("a", -1), ("a", -1)], Fraction(-5, 7))
             + module.lw() * 2)
        pairs = vector_to_pairs(x)
        assert pairs_to_vector(module, pairs) == x
    bv = heis.basis_vector([("a", -1), ("a", -1), ("a", -3)])
    assert monomial_str(bv) == "a(-3) a(-1)^2"
    assert parse_monomial(heis, "a(-3) a(-1)^2") == bv
    assert parse_monomial(heis, "lw") == heis.basis_vector([])
    assert scalar_str(Fraction(-5, 7)) == "-5/7"
    assert scalar_str(Fraction(4)) == "4"


def test_parse_module_spec():
    assert parse_module_spec("heisenberg").module_id == "heis"
    assert parse_module_spec("fock:1/2").module_id == "fock(1/2)"
    assert parse_module_spec("virasoro:c=1/2").module_id == "vir(c=1/2)"
    assert parse_module_spec("verma:c=1/2,h=1/16").module_id == "verma(c=1/2,h=1/16)"
    for bad in ("lattice:A1", "virasoro:c=abc", "virasoro:", "virasoro:c=1/0",
                "verma:c=1", "fock:x", "fock:1e999999999", "verma:c=1/2,h=1E-999999999"):
        with pytest.raises(ValueError):
            parse_module_spec(bad)


def test_cli_verify_identities(tmp_path, capsys):
    out = tmp_path / "ids.json"
    rc = main(["verify-identities", "--max-n", "6", "--max-alt-n", "8",
               "--max-bivariate-n", "3", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["all_pass"]
    assert any(e["family"] == "bivariate_cancellation" for e in payload["entries"])


def test_cli_zhu_table(tmp_path):
    out = tmp_path / "table.json"
    rc = main(["zhu-table", "--algebra", "heisenberg", "--n", "0",
               "--depth", "5", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["window_dims"] == [1, 1, 2, 3, 5, 7]
    assert payload["quotient_upper_bounds"][0] == 1
    assert all(c["status"] == "certified" for c in payload["certs"])


def test_cli_fusion_json_schema(tmp_path):
    out = tmp_path / "fusion.json"
    rc = main(["fusion", "--w1", "fock:1/2", "--w2", "fock:1/2", "--w3", "fock:1",
               "--n", "0", "--window", "5,6", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert {"type", "N", "window", "fusion_dim_upper", "stabilized",
            "checks"} <= set(payload)
    assert payload["type"] == ["fock(1/2)", "fock(1/2)", "fock(1)"]
    assert payload["fusion_dim_upper"] == 1 and payload["stabilized"]


def test_cli_fusion_csv(tmp_path):
    out = tmp_path / "fusion.csv"
    rc = main(["fusion", "--w1", "fock:1", "--w2", "fock:2", "--w3", "fock:3",
               "--n", "0", "--window", "5,6", "--csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("w1,")
    assert len(lines) == 3


def test_cli_reduce(tmp_path, monkeypatch):
    """One reduction gives the representative and the witness, for a member
    and a non-member alike; the witness is still re-multiplied."""
    calls = []
    plain = SparseEchelon.reduce
    monkeypatch.setattr(SparseEchelon, "reduce",
                        lambda self, row: calls.append(row) or plain(self, row))
    elem = tmp_path / "elem.json"
    out = tmp_path / "reduced.json"
    for pairs, status, rep in (([["a(-2)", "1"], ["a(-1)", "1"]], "certified", []),
                               ([["1", "1"]], "inconclusive", [["lw", "1"]])):
        elem.write_text(json.dumps(pairs))
        calls.clear()
        rc = main(["reduce", str(elem), "--algebra", "heisenberg", "--n", "0",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["in_ideal_window"] == status
        assert payload["canonical_representative"] == rep
        assert len(calls) == 1


# sha256 of the stdout of the commands whose output a refactor or a speed-up
# must leave byte-identical; a change to these bytes must be deliberate
GOLDEN_STDOUT = {
    "zhu-table": (["zhu-table", "--algebra", "virasoro:c=1/2", "--n", "1", "--depth", "8"],
                  "5aba3b0dc5009b15c7a46a5badad7380613934632495a54f0bc226b19c39ea26"),
    "fusion": (["fusion", "--w1", "fock:1", "--w2", "fock:2", "--w3", "fock:3",
                "--n", "1", "--window", "8,10"],
               "907b366565deea76289506e0042be25ed93489386c95483a8bba924a0c1d46ce"),
    "fusion-verma": (["fusion", "--w1", "verma:c=1/2,h=1/16", "--w2", "verma:c=1/2,h=1/16",
                      "--w3", "verma:c=1/2,h=0", "--n", "1", "--window", "6,8"],
                     "2c268dd6f3e85c090017a2d62db83794b440a570293389a63585fac43c80d8c9"),
    "verify-identities": (["verify-identities"],
                          "df419d94ba15b93274fd9222672453de4ca692aaa2f5272b2ed74bedfcc22822"),
    "reduce": (["reduce", "{element}", "--algebra", "heisenberg", "--n", "1"],
               "e083513893bc1682d1bc6abe2ea7e719b5648b5d2e688bace3d29b0fdd5fdefe"),
    "axioms": (["axioms", "--seed", "42", "--n", "0,1"],
               "8e522940a71872a127650ffcee050db2bff086f9b30a9fdcbbdca3b5d65dbbc5"),
    "zhu-table-heisenberg": (["zhu-table", "--algebra", "heisenberg", "--depth", "6"],
                             "5c33a3eac6f00e7066da11bfdec08dbb3d960dc811b45b504c9bb6027a994bca"),
    "fusion-n0": (["fusion", "--w1", "fock:1", "--w2", "fock:2", "--w3", "fock:3",
                   "--window", "4,6"],
                  "726810c2301c45e226cf2aa93a4c4e4f820a26d223e50207be11eb19ec0fe720"),
    "fusion-verma-n0": (["fusion", "--w1", "verma:c=1/2,h=1/16", "--w2", "verma:c=1/2,h=1/16",
                         "--w3", "verma:c=1/2,h=0", "--window", "4,6"],
                        "20239c2acea278c263991c50e544f1e5d76525cabcd22987405fd79cedc9e479"),
    "fusion-half": (["fusion", "--w1", "fock:1/2", "--w2", "fock:1/2", "--w3", "fock:1",
                     "--window", "6,8"],
                    "2bd006e3bfb3a4ace32dd79a785b6f1fc799679f1561f78ffabc8b8e42726bf1"),
    "fusion-124": (["fusion", "--w1", "fock:1", "--w2", "fock:2", "--w3", "fock:4",
                    "--n", "1", "--window", "8,10"],
                   "a6d9f7673470d239c064b8c3d2d1f5be8e44bec14600ac7833a1f5a04be8d1b7"),
    # N = 0 dims 0: the fusion scan stops at full rank
    "fusion-124-n0": (["fusion", "--w1", "fock:1", "--w2", "fock:2", "--w3", "fock:4",
                       "--window", "6,8"],
                      "479faf53459d75f1db4b27ca82d290fd2a8080b48a3c6867c0958656ce65325c"),
    "axioms-seed7": (["axioms", "--seed", "7", "--n", "0,1"],
                     "aa858f1917d9df39032df5d2ed9defa6646d49b9572fb4c7ed5ab17cff8c4d1d"),
    # N = 2: the only pin of witness sizes above N = 1
    "axioms-n2": (["axioms", "--seed", "42", "--n", "2"],
                  "4cdb7fb0856f46e120f038c98f0e2a796625ba2cb5d2b65f7f61a83e8432f3d1"),
    "reduce-n0": (["reduce", "{element}", "--algebra", "heisenberg", "--n", "0"],
                  "6fc3cc716e58405c00a8d974bba722a4f428e5068120b2a034b9717a1aa8027b"),
    # a certified witness with denominators 2, 4, 6 and 12, re-multiplied in integers
    "reduce-virasoro": (["reduce", "{element_vir}", "--algebra", "virasoro:c=1/2", "--n", "1",
                         "--depth", "8"],
                        "d2f662fcb698ad6a850328a19aee845d5264f4a71a75e13be82293a35bfcb63b"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
def test_cli_stdout_is_frozen(name, tmp_path, src_env):
    elem = tmp_path / "element.json"
    elem.write_text(json.dumps([["a(-2)", "1"], ["a(-1)", "1"]]))
    elem_vir = tmp_path / "element-vir.json"
    elem_vir.write_text(json.dumps([["L(-6)", "1"], ["L(-2)", "-5"]]))
    argv, digest = GOLDEN_STDOUT[name]
    argv = [a.format(element=elem, element_vir=elem_vir) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "voazhu.cli", *argv], capture_output=True,
                          env=src_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_cli_axioms_quick(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["axioms", "--seed", "5", "--n", "0", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload["summary"]["counts"]) <= {"pass", "certified"}
    # --out holds exactly what stdout gets, trailing newline included
    capsys.readouterr()
    assert main(["axioms", "--seed", "5", "--n", "0"]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode()


BAD_ELEMENTS = {
    "missing": None,
    "malformed": '[["a(-1)", "1"',
    "not_pairs": '{"a(-1)": "1"}',
    "bad_coefficient": '[["a(-1)", "x"]]',
    "zero_denominator": '[["a(-1)", "1/0"]]',
    "unknown_generator": '[["b(-1)", "1"]]',
    "nested_too_deeply": "[" * 200000,
    "bool_coefficient": '[["a(-1)", true]]',
}


def _bad_input_runs(tmp_path):
    elem = tmp_path / "elem.json"
    elem.write_text(json.dumps([["a(-2)", "1"], ["a(-1)", "1"]]))
    runs = {
        "virasoro_bad_c": ["zhu-table", "--algebra", "virasoro:c=abc"],
        "unknown_spec": ["zhu-table", "--algebra", "nonsense"],
        "module_as_algebra": ["zhu-table", "--algebra", "fock:1"],
        "reduce_module_as_algebra": ["reduce", str(elem), "--algebra", "fock:1"],
        "axioms_bad_levels": ["axioms", "--n", "x"],
        "fusion_bad_window": ["fusion", "--w1", "fock:1", "--w2", "fock:2",
                              "--w3", "fock:3", "--window", "a"],
        # below 2N+1 = 17 no window holds a constraint; refused before any build
        "fusion_window_below_2n_plus_1": ["fusion", "--w1", "fock:1", "--w2", "fock:2",
                                          "--w3", "fock:3", "--n", "8", "--window", "4,6"],
        "negative_depth": ["zhu-table", "--algebra", "heisenberg", "--depth", "-1"],
        "depth_below_element": ["reduce", str(elem), "--algebra", "heisenberg",
                                "--depth", "1"],
    }
    for name, text in BAD_ELEMENTS.items():
        path = tmp_path / f"{name}.json"
        if text is not None:
            path.write_text(text)
        runs[f"element_{name}"] = ["reduce", str(path), "--algebra", "heisenberg"]
    return runs


def test_cli_bad_input_fails_cleanly(tmp_path, capsys):
    """Every bad input exits with code 2 and a one-line message on stderr."""
    for name, argv in _bad_input_runs(tmp_path).items():
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2, name
        assert captured.out == "", name
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "error:" in lines[0], (name, captured.err)


def test_cli_bad_input_prints_no_traceback(tmp_path, src_env):
    runs = _bad_input_runs(tmp_path)
    for name in ("virasoro_bad_c", "element_bad_coefficient", "depth_below_element"):
        proc = subprocess.run([sys.executable, "-m", "voazhu.cli", *runs[name]],
                              capture_output=True, text=True, env=src_env, timeout=120)
        assert proc.returncode == 2, name
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, (name, proc.stderr)


def test_cli_exponent_rationals_fail_fast(tmp_path, src_env):
    """'1e999999999' is refused before Fraction expands it to a
    billion-digit integer, in a module spec and in an element file."""
    elem = tmp_path / "huge.json"
    elem.write_text(json.dumps([["a(-1)", "1e999999999"]]))
    runs = {
        "spec": ["fusion", "--w1", "fock:1e999999999", "--w2", "fock:2", "--w3", "fock:3"],
        "element": ["reduce", str(elem), "--algebra", "heisenberg"],
    }
    for name, argv in runs.items():
        proc = subprocess.run([sys.executable, "-m", "voazhu.cli", *argv],
                              capture_output=True, text=True, env=src_env, timeout=30)
        assert proc.returncode == 2, (name, proc.stderr)
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, (name, proc.stderr)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_cli_reduce_refuses_deep_monomial_before_building(tmp_path, src_env):
    """A monomial beyond --depth is refused by its text.  Building
    a(-1)^100000000 first does not finish within the timeout; the 1 GB
    address-space limit keeps such a build from exhausting the machine."""
    elem = tmp_path / "deep.json"
    elem.write_text(json.dumps([["a(-1)^100000000", "1"]]))
    argv = ["reduce", str(elem), "--algebra", "heisenberg", "--depth", "4"]
    proc = subprocess.run([sys.executable, "-m", "voazhu.cli", *argv], capture_output=True,
                          text=True, env=src_env, timeout=30, preexec_fn=_limit_memory)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "depth 100000000, beyond --depth 4" in proc.stderr


@pytest.mark.parametrize("monomial, depth", [("a(-1)^16", 20), ("a(-1)^100000000", 100000004)])
def test_cli_reduce_refuses_deep_default_window(tmp_path, src_env, monomial, depth):
    """Without --depth the window depth comes from the monomials' text, and
    one beyond MAX_DEFAULT_DEPTH is refused before anything is built: the
    depth-20 window does not finish within the timeout, and building
    a(-1)^100000000 runs out of the 1 GB address space."""
    elem = tmp_path / "deep.json"
    elem.write_text(json.dumps([[monomial, "1"]]))
    argv = ["reduce", str(elem), "--algebra", "heisenberg"]
    proc = subprocess.run([sys.executable, "-m", "voazhu.cli", *argv], capture_output=True,
                          text=True, env=src_env, timeout=30, preexec_fn=_limit_memory)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert f"default window depth {depth}" in proc.stderr and "--depth" in proc.stderr
