from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorindep import (
    WeightedGraph,
    build_double_cover,
    check_interval_hom,
    hallflow,
    interval_hom_from_json,
)
from tensorindep import cli
from tensorindep.cli import (
    load_graph,
    main,
    parse_graph_edgelist,
    parse_graph_json,
)
from tensorindep.mwis import default_power_cap

from oracles import all_uniform_graphs, random_measured_graph

SRC = Path(__file__).resolve().parent.parent / "src"
DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

P3_JSON = {
    "vertices": [
        {"id": "u", "measure": "1/3"},
        {"id": "v", "measure": "1/3"},
        {"id": "w", "measure": "1/3"},
    ],
    "edges": [["u", "v"], ["v", "w"]],
}

K2_JSON = {
    "vertices": [{"id": "u", "measure": "1/2"}, {"id": "v", "measure": "1/2"}],
    "edges": [["u", "v"]],
}

BAD_SUM_JSON = {
    "vertices": [{"id": "u", "measure": "1/2"}, {"id": "v", "measure": "2/5"}],
    "edges": [["u", "v"]],
}


WEIGHTED_C5 = (
    "v c0 3/10\nv c1 2/10\nv c2 2/10\nv c3 2/10\nv c4 1/10\n"
    "e c0 c1\ne c1 c2\ne c2 c3\ne c3 c4\ne c4 c0\n"
)

WEIGHTED_C5_POWER_3_TEXT = """\
graph: 5 vertices, 5 edges
  c0: 3/10
  c1: 1/5
  c2: 1/5
  c3: 1/5
  c4: 1/10
alpha sequence: 1/2, 1/2, 1/2
condition: fails (no set outweighs its neighborhood)
verdict: ExactHalf value=1/2 rule=alpha-reaches-half+descriptor
upper bound: 1/2
descriptor: 12 interval pieces
timing: null
"""


@pytest.fixture
def fixture_file(tmp_path):
    def write(name: str, payload) -> str:
        path = tmp_path / name
        if isinstance(payload, str):
            path.write_text(payload)
        else:
            path.write_text(json.dumps(payload))
        return str(path)

    return write


class TestAnalyze:
    def test_p3_report(self, fixture_file, capsys):
        path = fixture_file("p3.json", P3_JSON)
        assert main(["analyze", path, "--max-power", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["kind"] == "ExactOne"
        assert report["condition"] == {"holds": True, "witness": ["u", "w"]}
        assert report["verdict"]["value"] == "1/1"
        assert report["descriptor"] is None
        assert report["alpha_sequence"] == ["2/3", "2/3"]

    def test_k2_report(self, fixture_file, capsys):
        path = fixture_file("k2.json", K2_JSON)
        assert main(["analyze", path, "--max-power", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["kind"] == "ExactHalf"
        assert report["verdict"]["value"] == "1/2"
        assert report["condition"]["holds"] is False
        assert report["descriptor"] is not None
        assert report["verdict"]["upper_bound"] == "1/2"

    def test_bad_measure_sum_exits_2(self, fixture_file, capsys):
        path = fixture_file("bad.json", BAD_SUM_JSON)
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert "9/10" in err

    def test_byte_identical_across_runs(self, fixture_file, capsys):
        path = fixture_file("p3.json", P3_JSON)
        outputs = []
        for _ in range(3):
            assert main(["analyze", path, "--max-power", "2"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_truncation_exits_3_with_partial_report(self, fixture_file, capsys):
        # K2^13 has 8192 vertices, over MWIS_CAP; the first 12 powers fit.
        path = fixture_file("k2.json", K2_JSON)
        assert main(["analyze", path, "--max-power", "13"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["alpha_sequence"] == ["1/2"] * 12
        assert report["verdict"]["certificate"]["alpha_truncated"] is True

    def test_text_format_carries_the_same_facts(self, fixture_file, capsys):
        path = fixture_file("p3.json", P3_JSON)
        assert main(["analyze", path, "--max-power", "2", "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert "ExactOne" in text and "u, w" in text and "2/3" in text

    def test_edge_list_format(self, fixture_file, capsys):
        path = fixture_file(
            "p3.txt",
            "# a path on three vertices\nv u 1/3\nv v 1/3\nv w 1/3\ne u v\ne v w\n",
        )
        assert main(["analyze", path, "--max-power", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["kind"] == "ExactOne"

    def test_seed_independent_set_section(self, fixture_file, capsys):
        path = fixture_file("p3.json", P3_JSON)
        code = main(
            ["analyze", path, "--max-power", "3", "--seed-independent-set", "u,w"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lower_bound"]["set"] == ["u", "w"]
        assert report["lower_bound"]["closed_form_limit"] == "2/3"

    @pytest.mark.parametrize("seed_set", ["u", "u,w"])
    def test_lower_bounds_stop_with_the_alpha_sequence(self, seed_set):
        # P3^8 is over MWIS_CAP, so both lists end at power 7: a huge
        # --max-power asks for no more bounds than the sequence has terms.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "tensorindep", "analyze", str(DEMO_DATA / "p3_path.json"),
             "--max-power", "100000000", "--seed-independent-set", seed_set],
            capture_output=True,
            text=True,
            env=env,
            timeout=20,
        )
        assert proc.returncode == 3, proc.stderr
        report = json.loads(proc.stdout)
        assert len(report["alpha_sequence"]) == 7
        assert len(report["lower_bound"]["terms"]) == 7

    def test_dependent_seed_set_exits_2(self, fixture_file, capsys):
        path = fixture_file("p3.json", P3_JSON)
        assert main(["analyze", path, "--seed-independent-set", "u,v"]) == 2

    def test_duplicate_vertex_exits_2(self, fixture_file, capsys):
        doc = {
            "vertices": [{"id": "u", "measure": "1/2"}, {"id": "u", "measure": "1/2"}],
            "edges": [],
        }
        assert main(["analyze", fixture_file("dup.json", doc)]) == 2

    def test_unknown_edge_endpoint_exits_2(self, fixture_file, capsys):
        doc = {"vertices": [{"id": "u", "measure": "1/1"}], "edges": [["u", "x"]]}
        assert main(["analyze", fixture_file("edge.json", doc)]) == 2

    @pytest.mark.parametrize(
        "name, text",
        [("k2.json", json.dumps(K2_JSON)), ("k2.txt", "v u 1/2\nv v 1/2\ne u v\n")],
        ids=["json", "edge-list"],
    )
    def test_graph_with_a_byte_order_mark(self, tmp_path, capsys, name, text):
        # Editors on Windows save UTF-8 with a leading BOM; it is not part of the text.
        plain, bom = tmp_path / name, tmp_path / f"bom_{name}"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert main(["analyze", str(plain)]) == 0
        expected = json.loads(capsys.readouterr().out)
        assert main(["analyze", str(bom)]) == 0
        assert json.loads(capsys.readouterr().out) == expected

    def test_non_utf8_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"vertices": \xff}')
        assert main(["analyze", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, payload",
        [
            ("exp.txt", "v a 1e-100000000\nv b 1\n"),
            (
                "exp.json",
                {
                    "vertices": [
                        {"id": "a", "measure": "1e-100000000"},
                        {"id": "b", "measure": "1"},
                    ]
                },
            ),
        ],
    )
    def test_exponent_literal_exits_2_at_once(self, fixture_file, capsys, name, payload):
        # Fraction() would expand the exponent into a 10^8-digit integer.
        path = fixture_file(name, payload)
        start = time.perf_counter()
        assert main(["analyze", path]) == 2
        assert time.perf_counter() - start < 1.0
        assert "'1e-100000000'" in capsys.readouterr().err

    def test_huge_json_integer_exits_2(self, fixture_file, capsys):
        text = '{"vertices": [{"id": "u", "measure": ' + "1" * 5000 + "}]}"
        assert main(["analyze", fixture_file("big.json", text)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid JSON")

    def test_oversized_measure_echo_is_bounded(self, fixture_file, capsys):
        doc = {"vertices": [{"id": "u", "measure": "1/" + "3" * 1_000_000}]}
        assert main(["analyze", fixture_file("long.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid rational")
        assert len(err.encode()) < 200

    @pytest.mark.parametrize(
        "measures",
        [["1/" + "7" * 4000, "1/3"], ["-" + "9" * 4000, "1/3"]],
        ids=["long-sum", "long-negative"],
    )
    def test_measure_error_echo_is_bounded(self, fixture_file, capsys, measures):
        doc = {
            "vertices": [{"id": f"v{i}", "measure": m} for i, m in enumerate(measures)],
            "edges": [],
        }
        assert main(["analyze", fixture_file("sum.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.encode()) < 200

    def test_deep_json_nesting_exits_2(self, fixture_file, capsys):
        text = '{"vertices": ' + "[" * 20000 + "]" * 20000 + "}"
        assert main(["analyze", fixture_file("deep.json", text)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid JSON")


class TestDefaultAnalyze:
    """``analyze`` without --max-power goes up to the largest power within MWIS_CAP."""

    @pytest.mark.parametrize("name, powers", [("k2_uniform.json", 12), ("p3_path.json", 7)])
    def test_default_equals_explicit_cap(self, capsys, name, powers):
        path = str(DEMO_DATA / name)
        assert main(["analyze", path]) == 0
        default = capsys.readouterr()
        assert len(json.loads(default.out)["alpha_sequence"]) == powers
        assert main(["analyze", path, "--max-power", str(powers)]) == 0
        explicit = capsys.readouterr()
        assert default.out == explicit.out
        assert default.err == explicit.err == ""

    @pytest.mark.parametrize(
        "name, terms",
        [
            ("c5_cycle.txt", ["2/5"] * 5),
            ("c7_chord.json", ["3/7"] * 4),
            ("triangle.json", ["1/3"] * 7),
            ("k2_uniform.json", ["1/2"] * 12),
            (
                "k2_biased.json",
                ["2/3", "2/3", "20/27", "20/27", "64/81", "64/81", "1808/2187", "1808/2187"]
                + ["16832/19683", "16832/19683", "640/729", "640/729"],
            ),
            ("p3_path.json", ["2/3", "2/3", "20/27", "20/27", "64/81", "64/81", "1808/2187"]),
        ],
    )
    def test_default_ends_on_every_demo(self, name, terms):
        # A subprocess with a timeout, so a hang fails the test instead of the suite.
        path = DEMO_DATA / name
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "tensorindep", "analyze", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        sequence = json.loads(proc.stdout)["alpha_sequence"]
        assert len(sequence) == default_power_cap(load_graph(str(path)).n)
        assert sequence == terms

    def test_half_at_power_one_fills_the_rest(self, fixture_file, capsys):
        # alpha = 3/10 + 2/10 = 1/2 and no set outweighs its neighborhood, so
        # every power is 1/2; before the fill, powers 4 and 5 were searched
        # and the default run did not end within a minute.
        path = fixture_file("wc5.txt", WEIGHTED_C5)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "tensorindep", "analyze", path],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["alpha_sequence"] == ["1/2"] * 5
        assert report["verdict"]["kind"] == "ExactHalf"
        assert main(["analyze", path, "--max-power", "3", "--format", "text"]) == 0
        assert capsys.readouterr().out == WEIGHTED_C5_POWER_3_TEXT

    def test_interval_verdict_in_text(self, capsys):
        path = str(DEMO_DATA / "c7_chord.json")
        assert main(["analyze", path, "--max-power", "2", "--format", "text"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "verdict: Interval lo=3/7 hi=1/2 rule=alpha-bracket+descriptor" in out

    def test_lower_bound_in_text(self, capsys):
        path = str(DEMO_DATA / "p3_path.json")
        argv = ["analyze", path, "--max-power", "2", "--seed-independent-set", "u,w"]
        assert main(argv + ["--format", "text"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "lower bound from {u, w}: 2/3, 2/3 -> 2/3" in out

    def test_truncation_in_text_exits_3(self, capsys):
        path = str(DEMO_DATA / "c5_cycle.txt")
        assert main(["analyze", path, "--max-power", "6", "--format", "text"]) == 3
        captured = capsys.readouterr()
        assert "size cap hit: alpha sequence truncated" in captured.err.splitlines()
        assert "timing: null" in captured.out.splitlines()

    def test_text_prints_each_certificate_note(self, fixture_file, capsys):
        # C17 is over the transitivity cap and C5 at power 6 over the search
        # cap; each note of the JSON report is one line of the text.
        n = 17
        doc = {
            "vertices": [{"id": f"c{i}", "measure": f"1/{n}"} for i in range(n)],
            "edges": [[f"c{i}", f"c{(i + 1) % n}"] for i in range(n)],
        }
        c17 = fixture_file("c17.json", doc)
        c5 = str(DEMO_DATA / "c5_cycle.txt")
        for argv, code, note in [
            (["analyze", c17], 0, "transitivity check too large: 17 vertices exceeds cap 16"),
            (
                ["analyze", c5, "--max-power", "6"],
                3,
                "alpha sequence truncated after 5 of 6 powers",
            ),
        ]:
            assert main(argv) == code
            report = json.loads(capsys.readouterr().out)
            assert report["verdict"]["certificate"]["notes"] == [note]
            assert main(argv + ["--format", "text"]) == code
            out = capsys.readouterr().out.splitlines()
            assert out[-2:] == [f"note: {note}", "timing: null"]

    def test_truncation_in_json_says_so_on_stderr(self, capsys):
        # Both formats print the same line, and the JSON report on stdout
        # carries the flag as before.
        path = str(DEMO_DATA / "c5_cycle.txt")
        assert main(["analyze", path, "--max-power", "6"]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["size cap hit: alpha sequence truncated"]
        report = json.loads(captured.out)
        assert report["verdict"]["certificate"]["alpha_truncated"] is True

    def test_uniform_k5_ends_at_once(self, fixture_file, capsys):
        # K5 has no odd cycle cover, but it is vertex transitive, so the
        # searches stop after power 1; they used to run past 30 s.
        doc = {
            "vertices": [{"id": f"k{i}", "measure": "1/5"} for i in range(5)],
            "edges": [[f"k{i}", f"k{j}"] for i in range(5) for j in range(i + 1, 5)],
        }
        path = fixture_file("k5.json", doc)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "tensorindep", "analyze", path],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        start = time.perf_counter()
        assert main(["analyze", path]) == 0
        assert time.perf_counter() - start < 1.0
        report = json.loads(capsys.readouterr().out)
        assert report["alpha_sequence"] == ["1/5"] * default_power_cap(5)
        assert report["verdict"]["rule"] == "vertex-transitive-uniform"

    def test_max_power_zero_exits_2(self, capsys):
        path = str(DEMO_DATA / "k2_uniform.json")
        assert main(["analyze", path, "--max-power", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-power must be positive" in captured.err


class TestAlphaCommand:
    def test_c5_square(self, fixture_file, capsys):
        doc = {
            "vertices": [{"id": f"c{i}", "measure": "1/5"} for i in range(5)],
            "edges": [[f"c{i}", f"c{(i + 1) % 5}"] for i in range(5)],
        }
        path = fixture_file("c5.json", doc)
        assert main(["alpha", path, "--power", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "2/5"
        assert out[1].startswith("witness: ")

    def test_k2_power_one(self, fixture_file, capsys):
        path = fixture_file("k2.json", K2_JSON)
        assert main(["alpha", path, "--power", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "1/2"

    def test_k2_at_the_search_cap(self, capsys):
        # 2^12 = 4096 vertices, exactly MWIS_CAP: the witness is every vertex
        # whose first coordinate is u.
        path = str(DEMO_DATA / "k2_uniform.json")
        assert main(["alpha", path, "--power", "12"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "1/2"
        labels = out[1].removeprefix("witness: ").split()
        assert len(set(labels)) == len(labels) == 2048
        assert all(label.startswith("(u,") for label in labels)

    def test_c5_power_4_finishes(self):
        # 625 vertices: the odd-cycle bound closes the search at once, where
        # the clique cover alone ran for minutes.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "tensorindep", "alpha", str(DEMO_DATA / "c5_cycle.txt"),
             "--power", "4"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        value, witness = proc.stdout.splitlines()
        assert value == "2/5"
        labels = witness.removeprefix("witness: ").split()
        assert len(set(labels)) == len(labels) == 250

    def test_power_zero_exits_2(self, capsys):
        path = str(DEMO_DATA / "c5_cycle.txt")
        assert main(["alpha", path, "--power", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--power must be positive" in captured.err

    def test_over_cap_exits_3(self, fixture_file, capsys):
        doc = {
            "vertices": [{"id": f"c{i}", "measure": "1/5"} for i in range(5)],
            "edges": [[f"c{i}", f"c{(i + 1) % 5}"] for i in range(5)],
        }
        path = fixture_file("c5.json", doc)
        # 5^6 = 15625 vertices, over MWIS_CAP: refused before the power is built.
        assert main(["alpha", path, "--power", "6"]) == 3

    def test_huge_power_exits_3_at_once(self):
        # The cap is checked without building 3**100000000.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "tensorindep", "alpha", str(DEMO_DATA / "triangle.json"),
             "--power", "100000000"],
            capture_output=True,
            text=True,
            env=env,
            timeout=10,
        )
        assert proc.returncode == 3, proc.stderr
        assert "search too large: 3**100000000 vertices exceeds cap 4096" in proc.stderr


class TestDescriptorCommand:
    def test_k2_pieces(self, fixture_file, capsys):
        path = fixture_file("k2.json", K2_JSON)
        assert main(["descriptor", path]) == 0
        pieces = json.loads(capsys.readouterr().out)
        assert pieces == [
            {"lo": "0/1", "hi": "1/4", "target": "(u,A)"},
            {"lo": "1/4", "hi": "1/2", "target": "(v,A)"},
            {"lo": "1/2", "hi": "3/4", "target": "(v,B)"},
            {"lo": "3/4", "hi": "1/1", "target": "(u,B)"},
        ]

    def test_p3_exits_4(self, fixture_file, capsys):
        path = fixture_file("p3.json", P3_JSON)
        assert main(["descriptor", path]) == 4

    def test_out_file_reverifies(self, fixture_file, tmp_path, capsys):
        from tensorindep import WeightedGraph
        from fractions import Fraction

        path = fixture_file("k2.json", K2_JSON)
        out = tmp_path / "hom.json"
        assert main(["descriptor", path, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        k2 = WeightedGraph([Fraction(1, 2)] * 2, [(0, 1)], ["u", "v"])
        cover = build_double_cover(k2)
        hom = interval_hom_from_json(data, cover)
        assert check_interval_hom(hom, cover) is None

    def test_out_in_missing_directory_exits_2(self, fixture_file, tmp_path, capsys):
        path = fixture_file("k2.json", K2_JSON)
        out = tmp_path / "missing" / "hom.json"
        assert main(["descriptor", path, "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestVerifyHomCommand:
    def _cover_files(self, fixture_file):
        cover_doc = {
            "vertices": [
                {"id": "(u,A)", "measure": "1/4"},
                {"id": "(v,A)", "measure": "1/4"},
                {"id": "(u,B)", "measure": "1/4"},
                {"id": "(v,B)", "measure": "1/4"},
            ],
            "edges": [["(u,A)", "(v,B)"], ["(v,A)", "(u,B)"]],
        }
        mapping = {"(u,A)": "u", "(v,A)": "v", "(u,B)": "u", "(v,B)": "v"}
        return (
            fixture_file("cover.json", cover_doc),
            fixture_file("k2.json", K2_JSON),
            fixture_file("map.json", mapping),
        )

    def test_projection_passes(self, fixture_file, capsys):
        h, g, m = self._cover_files(fixture_file)
        assert main(["verify-hom", h, g, m]) == 0
        assert "yes" in capsys.readouterr().out

    def test_constant_map_exits_5(self, fixture_file, capsys):
        k2 = fixture_file("k2.json", K2_JSON)
        const = fixture_file("const.json", {"u": "u", "v": "u"})
        assert main(["verify-hom", k2, k2, const]) == 5

    def test_missing_vertex_exits_2(self, fixture_file, capsys):
        k2 = fixture_file("k2.json", K2_JSON)
        partial = fixture_file("partial.json", {"u": "u"})
        assert main(["verify-hom", k2, k2, partial]) == 2

    def test_map_with_a_byte_order_mark(self, fixture_file, tmp_path, capsys):
        h, g, m = self._cover_files(fixture_file)
        bom = tmp_path / "bom_map.json"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(m).read_bytes())
        assert main(["verify-hom", h, g, str(bom)]) == 0
        assert capsys.readouterr().out == "measure-preserving homomorphism: yes\n"

    def test_non_utf8_map_exits_2(self, fixture_file, tmp_path, capsys):
        k2 = fixture_file("k2.json", K2_JSON)
        bad = tmp_path / "map.json"
        bad.write_bytes(b'{"u": "\xff"}')
        assert main(["verify-hom", k2, k2, str(bad)]) == 2
        assert "cannot read map file" in capsys.readouterr().err

    def test_deeply_nested_map_exits_2(self, fixture_file, capsys):
        k2 = fixture_file("k2.json", K2_JSON)
        deep = fixture_file("deep.json", "[" * 100_000 + "]" * 100_000)
        assert main(["verify-hom", k2, k2, deep]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read map file")


# Fragments of both input formats, the values that once escaped the
# parsers (an exponent literal, a 5000-digit integer, 20,000-deep nesting)
# among them.
_DOCUMENT_TOKENS = [
    "{", "}", "[", "]", ",", ":", " ", "\n", '"', "#",
    '"vertices"', '"edges"', '"id"', '"measure"', '"u"', '"v"',
    '"1/2"', '"1/0"', '"-1/2"', '"1e-100000000"', "1", "0.5", "1e-5", "-1",
    "null", "true", "NaN", "Infinity", "1" * 5000, "[" * 20000, "]" * 20000,
    "v", "e", "u", "w", "1/2", "1/3", "2/3", "1/0", "x/y", "0.25", "1e-100000000",
]


class TestParserFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(_DOCUMENT_TOKENS), max_size=40).map("".join))
    def test_parsers_return_a_graph_or_a_document_error(self, text):
        # A ValueError for the document's shape or for the graph's own
        # content: main maps every ValueError to exit 2.
        for parse in (parse_graph_json, parse_graph_edgelist):
            try:
                graph = parse(text)
            except ValueError:
                continue
            assert isinstance(graph, WeightedGraph)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(_DOCUMENT_TOKENS), max_size=40).map("".join))
    def test_analyze_exits_0_or_2(self, tmp_path_factory, text):
        # Whatever the file holds, analyze reports through its exit codes:
        # no exception escapes main.
        path = tmp_path_factory.getbasetemp() / "fuzz-analyze.doc"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", str(path), "--max-power", "2"])
        assert code in (0, 2)
        assert (code == 2) == err.getvalue().startswith("error: ")


_K2_TEXT = "v u 1/2\nv v 1/2\ne u v\n"


class TestInvalidInputExits2:
    """Every kind of invalid input exits 2 with one line on stderr."""

    @pytest.mark.parametrize(
        "command, files, flags, message",
        [
            ("analyze", ['{"vertices": []}'], [], 'document needs a nonempty "vertices" array'),
            (
                "analyze",
                ['{"vertices": [{"id": "u"}]}'],
                [],
                "vertex entry {'id': 'u'} needs id and measure",
            ),
            (
                "analyze",
                ['{"vertices": [{"id": "u", "measure": "1"}], "edges": {}}'],
                [],
                '"edges" must be an array of id pairs',
            ),
            (
                "analyze",
                ['{"vertices": [{"id": "u", "measure": "1"}], "edges": [["u"]]}'],
                [],
                "edge entry ['u'] must be an [id, id] pair",
            ),
            (
                "analyze",
                ['{"vertices": [{"id": "u", "measure": "1"}], "edges": [["u", "u"]]}'],
                [],
                "self-loop at 'u' rejected",
            ),
            ("analyze", ["v a 1\ne a a\n"], [], "self-loop at 'a' rejected"),
            # Measure text is read after the document's shape is checked.
            (
                "analyze",
                ['{"vertices": [{"id": "u", "measure": "x"}], "edges": {}}'],
                [],
                '"edges" must be an array of id pairs',
            ),
            (
                "analyze",
                ['{"vertices": [{"id": "u", "measure": true}]}'],
                [],
                "invalid rational 'True'",
            ),
            (
                "analyze",
                [_K2_TEXT],
                ["--seed-independent-set", "u,zz"],
                "unknown vertex id 'zz' in --seed-independent-set",
            ),
            (
                "verify-hom",
                [_K2_TEXT, _K2_TEXT, "[]"],
                [],
                "map file must be a JSON object of id -> id",
            ),
            (
                "verify-hom",
                [_K2_TEXT, _K2_TEXT, '{"u": "u", "v": "zz"}'],
                [],
                "map sends 'v' to unknown vertex 'zz'",
            ),
            (
                "verify-hom",
                [_K2_TEXT, _K2_TEXT, '{"u": "u", "v": "v", "w": "u"}'],
                [],
                "map mentions unknown vertices ['w']",
            ),
            # A first non-blank "[" is JSON too, not an edge list.
            ("analyze", ["[]"], [], "top-level JSON value must be an object"),
            (
                "analyze",
                ['  \n[{"id": "u", "measure": "1"}]'],
                [],
                "top-level JSON value must be an object",
            ),
        ],
    )
    def test_exits_2_with_its_message(self, tmp_path, capsys, command, files, flags, message):
        paths = []
        for i, text in enumerate(files):
            path = tmp_path / f"file{i}"
            path.write_text(text)
            paths.append(str(path))
        assert main([command, *paths, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestOneCoverOneFlow:
    """Each command builds one double cover and runs one maximum flow."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"build_double_cover": 0, "max_flow": 0}
        for name in counts:
            original = getattr(hallflow, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            for module_name, module in list(sys.modules.items()):
                in_package = module_name.split(".")[0] == "tensorindep"
                if in_package and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "k2_uniform.json", "--max-power", "2"],
            ["analyze", "c7_chord.json", "--max-power", "1"],
            ["analyze", "p3_path.json", "--max-power", "2"],
            ["descriptor", "k2_uniform.json"],
            # No violating set: the descriptor and the verdict share the flow.
            ["analyze", "c7_chord.json", "--max-power", "2"],
            # A violating set, read off the same flow's cut.
            ["analyze", "p3_path.json", "--max-power", "3"],
        ],
    )
    def test_one_cover_and_one_flow(self, counts, argv, capsys):
        command, name, *flags = argv
        assert main([command, str(DEMO_DATA / name), *flags]) == 0
        assert counts == {"build_double_cover": 1, "max_flow": 1}


GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("*.out")), ids=lambda p: p.name)
def test_analyze_matches_the_golden_report(golden, capsys):
    # <demo file>.power<k>.out holds the stdout of analyze at --max-power k.
    name, power = re.fullmatch(r"(.+)\.power(\d+)\.out", golden.name).groups()
    with open(golden, encoding="utf-8") as handle:
        expected = handle.read()
    assert main(["analyze", str(DEMO_DATA / name), "--max-power", power]) == 0
    assert capsys.readouterr().out == expected


def test_golden_reports_are_all_there():
    assert len(list(GOLDEN.glob("*.out"))) == 13


class TestOneParser:
    """main builds its parser once and picks the handler at call time."""

    def test_flags_do_not_carry_over_between_calls(self, capsys):
        path = str(DEMO_DATA / "p3_path.json")
        outputs = []
        for flags in ([], ["--format", "text"], [], ["--format", "text"]):
            assert main(["analyze", path, "--max-power", "2", *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[2] and outputs[1] == outputs[3]
        assert json.loads(outputs[0])["alpha_sequence"] == ["2/3", "2/3"]
        assert outputs[1].startswith("graph: 3 vertices")

    def test_handler_patched_after_a_call_is_the_one_that_runs(self, monkeypatch, capsys):
        path = str(DEMO_DATA / "k2_uniform.json")
        assert main(["analyze", path, "--max-power", "1"]) == 0
        capsys.readouterr()
        seen = []

        def replacement(args):
            seen.append(args.path)
            return 0

        monkeypatch.setattr(cli, "cmd_analyze", replacement)
        assert main(["analyze", path, "--max-power", "1"]) == 0
        assert seen == [path]
        assert capsys.readouterr().out == ""


# sha256 of the reports test_reports_stay_byte_identical hashes.
REPORT_DIGEST = "2390501a1308f0cedea78be881d92afa68d73f7604f3694d4a287b5d703c285d"


def test_reports_stay_byte_identical():
    """Whole analyze reports at power 2 hash to the recorded digest.

    The inputs are the 1,099 uniform census graphs (at most 5 vertices)
    and 300 measured graphs on 2-7 vertices from one seeded generator.
    Each adds its ``json.dumps(report, indent=2)`` and its truncated flag
    to the hash, so any change to a report's bytes fails here.

    A change that means to alter reports re-pins the digest: paste the
    output of ``python3 -c "import test_cli; print(test_cli._report_digest())"``,
    run in ``tests/`` with ``src`` on ``PYTHONPATH``, into ``REPORT_DIGEST``.
    A re-pin needs a line in CHANGES.md that names what changed in the
    reports, and why.
    """
    assert _report_digest() == REPORT_DIGEST


def _report_digest() -> str:
    rng = random.Random(26)
    graphs = [
        *all_uniform_graphs(5),
        *(
            random_measured_graph(rng, 7, max_weight=4, min_vertices=2, density=0.4)
            for _ in range(300)
        ),
    ]
    digest = hashlib.sha256()
    for g in graphs:
        report, truncated = cli.build_report(g, 2, None)
        digest.update(f"{json.dumps(report, indent=2)}\n{truncated}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["analyze", "k2_biased.json", "--max-power", "12"], 0, ""),
        (
            ["analyze", "k2_biased.json", "--max-power", "13"],
            3,
            "size cap hit: alpha sequence truncated\n",
        ),
        (["analyze", "k2_biased.json", "--max-power", "2", "--format", "text"], 0, ""),
        (["descriptor", "c7_chord.json"], 0, ""),
        (["alpha", "c5_cycle.txt", "--power", "2"], 0, ""),
    ],
    ids=["analyze", "analyze-truncated", "analyze-text", "descriptor", "alpha"],
)
def test_closed_stdout_keeps_the_exit_code(argv, code, err):
    # A reader that stops early, like `| head -1`, closes the pipe: the
    # command ends with its own exit code and no traceback on stderr.
    argv = [str(DEMO_DATA / a) if a.endswith((".json", ".txt")) else a for a in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tensorindep", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, err)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["analyze", str(DEMO_DATA / "k2_biased.json"), "--max-power", "13"], 3),
        (["analyze", "nonexistent.json"], 2),
    ],
    ids=["size-cap-line", "error-line"],
)
def test_closed_stderr_keeps_the_exit_code(argv, code):
    # The "size cap hit" and "error:" lines meet a closed stderr as the
    # report meets a closed stdout: the command keeps its own exit code.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tensorindep", *argv],
            stdout=subprocess.DEVNULL,
            stderr=write_end,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code


def test_module_entrypoint_runs_in_subprocess(tmp_path):
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(K2_JSON))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "tensorindep", "alpha", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "1/2"
