import dataclasses
import importlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pkgutil import iter_modules

import pytest

import hnzz
from hnzz import affine, campaign, cli, quiver, serialize
from hnzz.affine import AffineQuiver, CCW, CW, NClass, indec_N, indec_T, to_quiver
from hnzz.cli import main
from hnzz.errors import InternalCheckError
from hnzz.generators import equioriented_quiver, gen_affine
from hnzz.hn import HNReport, hn_bruteforce
from hnzz.linalg import GF, QQ, Matrix
from hnzz.quiver import (
    Quiver,
    Representation,
    StabilityCondition,
    direct_sum,
    euler_stability,
)
from hnzz.serialize import (
    hn_to_json,
    instance_from_json,
    instance_to_json,
    load_json,
    write_json,
)
from hnzz.zigzag import Interval, interval_module

EX = AffineQuiver(6, (CW, CW, CW, CCW, CW, CW))


def write_instance(tmp_path, rep, affine=None, name="inst.json"):
    path = tmp_path / name
    write_json(str(path), instance_to_json(rep, affine))
    return str(path)


def run(args):
    return main([str(a) for a in args])


def cli_process(args):
    """Keyword arguments that start the CLI in a child process.

    A child process shows what an uncaught exception really does: a
    traceback on stderr rather than an exception inside the test.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(hnzz.__file__)))
    return {"args": [sys.executable, "-m", "hnzz.cli", *[str(a) for a in args]],
            "stderr": subprocess.PIPE, "text": True, "env": env}


def run_process(args):
    """Run the CLI in a child process: (exit code, stderr)."""
    proc = subprocess.run(stdout=subprocess.PIPE, timeout=60, **cli_process(args))
    return proc.returncode, proc.stderr


def gen_short_window_instance(tmp_path):
    """Truth N(0,6) + T(1,1) + T(1,2) on a 3-cycle, dims (6,5,5): D >= 24."""
    out = tmp_path / "aff3.json"
    assert run(["gen", "--kind", "affine", "--n", 3, "--seed", 5, "--field", 3,
                "--max-summands", 3, "--out", out]) == 0
    return out


class TestBarcodeCommand:
    def test_one_bar(self, tmp_path):
        q = equioriented_quiver(2)
        rep = Representation(q, GF(2), (1, 1), (Matrix.identity(GF(2), 1),))
        inp = write_instance(tmp_path, rep)
        out = tmp_path / "report.json"
        assert run(["barcode", inp, "--out", out]) == 0
        assert load_json(str(out)) == {"barcode": [{"lo": 0, "hi": 1, "mult": 1}]}

    def test_two_point_bars(self, tmp_path):
        q = equioriented_quiver(2)
        rep = Representation(q, GF(2), (1, 1), (Matrix.zeros(GF(2), 1, 1),))
        inp = write_instance(tmp_path, rep)
        out = tmp_path / "report.json"
        assert run(["barcode", inp, "--out", out]) == 0
        assert load_json(str(out))["barcode"] == [
            {"lo": 0, "hi": 0, "mult": 1},
            {"lo": 1, "hi": 1, "mult": 1},
        ]

    def test_malformed_exit_2(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text("{oops")
        assert run(["barcode", bad]) == 2

    def test_invariant_violation_exit_3(self, tmp_path):
        rep = interval_module(equioriented_quiver(3), Interval(0, 2), GF(2))
        doc = instance_to_json(rep)
        doc["dims"][1] += 1
        path = tmp_path / "inst.json"
        write_json(str(path), doc)
        assert run(["barcode", path]) == 3

    def test_non_path_exit_4(self, tmp_path):
        rep = indec_N(EX, 1, 9, GF(5))
        inp = write_instance(tmp_path, rep, EX)
        assert run(["barcode", inp]) == 4

    def test_disconnected_path_exit_4(self, tmp_path, capsys):
        # vertex 2 joins no edge: every edge is a step, but the path stops at 1
        q = Quiver(3, ((0, 1),))
        rep = Representation(q, GF(2), (1, 1, 1), (Matrix.identity(GF(2), 1),))
        inp = write_instance(tmp_path, rep)
        assert run(["barcode", inp]) == 4
        out, err = capsys.readouterr()
        assert (out, err) == ("", "unsupported shape: quiver is not a connected path on 0..n-1\n")


class TestHnCommand:
    def test_three_step_slopes(self, tmp_path, capsys):
        q = equioriented_quiver(3)
        rep = direct_sum(
            direct_sum(
                interval_module(q, Interval(0, 2), GF(2)),
                interval_module(q, Interval(0, 0), GF(2)),
            ),
            interval_module(q, Interval(1, 2), GF(2)),
        )
        inp = write_instance(tmp_path, rep)
        assert run(["hn", inp]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [s["slope"] for s in doc["hn"]] == ["1", "1/3", "0"]
        assert [s["quotient_dims"] for s in doc["hn"]] == [
            [1, 0, 0],
            [1, 1, 1],
            [0, 1, 1],
        ]

    def test_semistable_single_step(self, tmp_path, capsys):
        rep = interval_module(equioriented_quiver(2), Interval(0, 1), GF(3))
        inp = write_instance(tmp_path, rep)
        assert run(["hn", inp]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["hn"]) == 1

    def test_affine_oracle_agrees(self, tmp_path, capsys):
        aq = AffineQuiver(3, (CW, CW, CCW))
        rep = direct_sum(indec_N(aq, 0, 1, GF(2)), indec_T(aq, 1, 1, GF(2)))
        inp = write_instance(tmp_path, rep, aq)
        assert run(["hn", inp, "--oracle"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["oracle_agrees"] is True

    def test_guard_exit_5(self, tmp_path):
        rep = indec_N(EX, 1, 9, GF(5))
        inp = write_instance(tmp_path, rep, EX)
        assert run(["hn", inp, "--oracle"]) == 5

    def test_zigzag_fast_route_agrees_with_oracle(self, tmp_path, capsys):
        # the zigzag 0 <- 1 -> 2 with bars [0,1] (slope 1/2) and [2,2]
        # (slope 0) takes the closed form; --oracle adds its agreement
        q = Quiver(3, ((1, 0), (1, 2)))
        rep = Representation(q, GF(2), (1, 1, 1), (Matrix(GF(2), [[1]]), Matrix(GF(2), [[0]])))
        inp = write_instance(tmp_path, rep)
        assert run(["hn", inp]) == 0
        fast = json.loads(capsys.readouterr().out)
        assert fast == {"hn": hn_to_json(hn_bruteforce(rep, euler_stability(q)))}
        assert [step["slope"] for step in fast["hn"]] == ["1/2", "0"]
        assert run(["hn", inp, "--oracle"]) == 0
        assert json.loads(capsys.readouterr().out) == {**fast, "oracle_agrees": True}

    def test_zigzag_fast_path_unavailable_exit_4(self, tmp_path):
        # the fast route of the 2-path 0 <- 1 holds for its Euler weights
        # (0, 1) alone: under other weights the input exits 4
        q = Quiver(2, ((1, 0),))
        rep = Representation(q, GF(2), (1, 1), (Matrix.identity(GF(2), 1),))
        inp = write_instance(tmp_path, rep)
        weights = tmp_path / "w.json"
        weights.write_text('["1", "0"]\n')
        assert run(["hn", inp]) == 0
        assert run(["hn", inp, "--stability", weights]) == 4

    @pytest.mark.parametrize(
        "edges, dims, rows, weights",
        [
            (((1, 0), (1, 2)), (1, 1, 1), [[[1]], [[1]]], ("1", "0", "1")),
            (((1, 0), (2, 0), (3, 0)), (2, 1, 1, 1), [[[1], [0]], [[0], [1]], [[1], [1]]], None),
        ],
        ids=["zigzag", "d4-star"],
    )
    def test_no_fast_route_oracle_alone(self, tmp_path, capsys, edges, dims, rows, weights):
        # a zigzag under weights other than its Euler weights (0, 1, 0), or a
        # D4 star under its Euler weights, has no fast route: --oracle prints
        # the oracle's report alone, without it the input exits 4
        q = Quiver(len(dims), edges)
        rep = Representation(q, GF(2), dims, tuple(Matrix(GF(2), r) for r in rows))
        inp = write_instance(tmp_path, rep)
        extra, alpha = [], euler_stability(q)
        if weights is not None:
            path = tmp_path / "w.json"
            path.write_text(json.dumps(list(weights)))
            extra, alpha = ["--stability", path], StabilityCondition(weights)
        assert run(["hn", inp, *extra]) == 4
        assert run(["hn", inp, *extra, "--oracle"]) == 0
        expected = {"hn": hn_to_json(hn_bruteforce(rep, alpha))}
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    def test_custom_weights_need_oracle(self, tmp_path, capsys):
        # the Euler weights of this 2-path are (1, 0); these are not
        rep = interval_module(equioriented_quiver(2), Interval(0, 1), GF(2))
        inp = write_instance(tmp_path, rep)
        weights = tmp_path / "w.json"
        weights.write_text('["0", "1"]\n')
        assert run(["hn", inp, "--stability", weights]) == 4
        assert run(["hn", inp, "--stability", weights, "--oracle"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "hn" in doc and "oracle_agrees" not in doc

    @pytest.mark.parametrize("kind, n, seed", [("persistence", 4, 5), ("affine", 3, 3)])
    def test_euler_weights_file_same_bytes(self, tmp_path, capsys, kind, n, seed):
        # the route goes by the weights' values, not their spelling: a file
        # holding the Euler weights prints the default's bytes, with and
        # without --oracle
        inp = tmp_path / "inst.json"
        assert run(["gen", "--kind", kind, "--n", n, "--seed", seed, "--field", 2,
                    "--max-summands", 2, "--out", inp]) == 0
        q = instance_from_json(load_json(str(inp))).quiver
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps([str(w) for w in euler_stability(q).weights]))
        for extra in ([], ["--oracle"]):
            assert run(["hn", inp, *extra]) == 0
            default = capsys.readouterr().out
            assert run(["hn", inp, "--stability", weights, *extra]) == 0
            assert capsys.readouterr().out == default
        doc = json.loads(default)
        assert doc["oracle_agrees"] is True and len(doc["hn"]) > 1

    def test_one_route_rule_for_hn_and_verify(self, tmp_path, capsys, monkeypatch):
        # hn and both campaign checks take the fast report from
        # campaign.fast_report: a wrong report there shows in all three
        rng = random.Random(5)
        cases = {}
        for theorem, (draw, check) in campaign.THEOREMS.items():
            case = draw(rng)
            while case.rep.total_dim() == 0:
                case = draw(rng)
            assert check(case) is None
            cases[theorem] = case
        inp = write_instance(tmp_path, cases["a"].rep)
        assert run(["hn", inp]) == 0
        right = capsys.readouterr().out

        def wrong(rep, alpha):
            return HNReport(rep.quiver, ((Fraction(7), rep.dims),))

        monkeypatch.setattr(campaign, "fast_report", wrong)
        assert run(["hn", inp]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "hn": hn_to_json(wrong(cases["a"].rep, None))
        } != json.loads(right)
        assert campaign.check_a(cases["a"]) == "hn_from_barcode differs from the oracle"
        assert campaign.check_b(cases["b"]) == "eta_from_lift differs from the oracle"


class TestLiftCommand:
    def test_jordan(self, tmp_path, capsys):
        rep = indec_T(EX, 2, 3, GF(5))
        inp = write_instance(tmp_path, rep, EX)
        assert run(["lift", inp]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d_inf"] == 3 and doc["classes"] == []

    def test_wrapped(self, tmp_path, capsys):
        rep = indec_N(EX, 1, 9, GF(5))
        inp = write_instance(tmp_path, rep, EX)
        assert run(["lift", inp]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d_inf"] == 0
        assert doc["classes"] == [{"u": 1, "len": 8, "mult": 1}]

    def test_window_bump_stable(self, tmp_path, capsys):
        rep = indec_N(EX, 1, 9, GF(5))
        inp = write_instance(tmp_path, rep, EX)
        assert run(["lift", inp, "--window", 18]) == 0
        first = json.loads(capsys.readouterr().out)
        assert run(["lift", inp, "--window", 24]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["d_inf"] == second["d_inf"]
        assert first["classes"] == second["classes"]

    def test_bad_window_exit_4(self, tmp_path):
        rep = indec_T(EX, 1, 1, GF(3))
        inp = write_instance(tmp_path, rep, EX)
        assert run(["lift", inp, "--window", 20]) == 4

    def test_requires_affine_exit_4(self, tmp_path):
        rep = interval_module(equioriented_quiver(2), Interval(0, 1), GF(2))
        inp = write_instance(tmp_path, rep)
        assert run(["lift", inp]) == 4

    def test_path_refused_by_classify_lift(self, tmp_path, capsys):
        rep = interval_module(equioriented_quiver(3), Interval(0, 1), GF(2))
        inp = write_instance(tmp_path, rep)
        assert run(["lift", inp]) == 4
        assert capsys.readouterr().err == "unsupported shape: not an affine cycle quiver\n"

    def test_no_vertices_exit_4(self, tmp_path):
        rep = Representation(Quiver(0, ()), GF(2), (), ())
        code, err = run_process(["lift", write_instance(tmp_path, rep)])
        assert code == 4
        assert err == "unsupported shape: not an affine cycle quiver\n"

    @pytest.mark.parametrize("window", [6, 9])
    def test_short_window_exit_4(self, tmp_path, window):
        inp = gen_short_window_instance(tmp_path)
        code, err = run_process(["lift", inp, "--window", window])
        assert code == 4
        assert "Traceback" not in err

    @pytest.mark.parametrize("window", [None, 27])
    def test_sufficient_window_gives_truth(self, tmp_path, capsys, window):
        inp = gen_short_window_instance(tmp_path)
        capsys.readouterr()
        extra = [] if window is None else ["--window", window]
        assert run(["lift", inp, *extra]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d_inf"] == 3
        assert doc["classes"] == [{"u": 0, "len": 6, "mult": 1}]


def edge_spelled(tmp_path, path):
    """A copy of the affine instance at ``path`` whose quiver is written as vertices and edges."""
    doc = load_json(str(path))
    spec = doc["quiver"]["affine"]
    q = to_quiver(AffineQuiver(spec["n"], tuple(spec["orientation"])))
    doc["quiver"] = {
        "vertices": q.vertex_count,
        "edges": [{"src": s, "dst": d} for s, d in q.edges],
    }
    out = tmp_path / "edges.json"
    write_json(str(out), doc)
    return out


class TestShapeFromQuiver:
    """The quiver alone decides the route, however the file spells it."""

    @pytest.mark.parametrize(
        "command", [["hn"], ["hn", "--oracle"], ["lift"]], ids=["hn", "hn-oracle", "lift"]
    )
    def test_edge_spelled_cycle_same_bytes(self, tmp_path, capsys, command):
        # N(2,3) + T(1;2) on a 3-cycle over GF(2), dims (3,2,3): inside the oracle guard
        inp = tmp_path / "aff.json"
        assert run(["gen", "--kind", "affine", "--n", 3, "--seed", 3, "--field", 2,
                    "--max-summands", 2, "--out", inp]) == 0
        edges = edge_spelled(tmp_path, inp)
        assert load_json(str(edges))["quiver"]["vertices"] == 3
        assert run([command[0], inp, *command[1:]]) == 0
        expected = capsys.readouterr().out
        assert run([command[0], edges, *command[1:]]) == 0
        assert capsys.readouterr().out == expected
        if command == ["hn", "--oracle"]:
            assert json.loads(expected)["oracle_agrees"] is True


class TestGenCommand:
    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert (
                run(
                    [
                        "gen", "--kind", "affine", "--n", 5, "--seed", 7,
                        "--field", 3, "--max-summands", 3, "--out", out,
                    ]
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json.truth.json").read_bytes() == (
            tmp_path / "b.json.truth.json"
        ).read_bytes()

    def test_zero_summands(self, tmp_path):
        out = tmp_path / "z.json"
        assert (
            run(
                [
                    "gen", "--kind", "persistence", "--n", 4, "--seed", 1,
                    "--field", "rational", "--max-summands", 0, "--out", out,
                ]
            )
            == 0
        )
        doc = load_json(str(out))
        assert doc["dims"] == [0, 0, 0, 0]
        truth = load_json(str(out) + ".truth.json")
        assert truth == {"intervals": []}

    def test_lift_classes_match_sidecar(self, tmp_path, capsys):
        out = tmp_path / "aff.json"
        assert (
            run(
                [
                    "gen", "--kind", "affine", "--n", 4, "--seed", 11,
                    "--field", 5, "--max-summands", 3, "--out", out,
                ]
            )
            == 0
        )
        truth = load_json(str(out) + ".truth.json")
        assert run(["lift", out]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = {}
        t_mass = 0
        for s in truth["summands"]:
            if s["type"] == "N":
                key = (s["u"], s["v"] - s["u"])
                expected[key] = expected.get(key, 0) + s["mult"]
            else:
                t_mass += s["w"] * s["mult"]
        got = {(c["u"], c["len"]): c["mult"] for c in doc["classes"]}
        assert got == expected
        assert doc["d_inf"] == t_mass

    def test_persistence_sidecar_matches_barcode(self, tmp_path, capsys):
        out = tmp_path / "pers.json"
        assert (
            run(
                [
                    "gen", "--kind", "persistence", "--n", 5, "--seed", 13,
                    "--field", 2, "--max-summands", 4, "--out", out,
                ]
            )
            == 0
        )
        truth = load_json(str(out) + ".truth.json")
        assert run(["barcode", out]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["barcode"] == truth["intervals"]


ZERO_INSTANCES = {
    "persistence": ["--n", 5, "--seed", 2, "--field", 2, "--max-summands", 3],
    "affine": ["--n", 3, "--seed", 1, "--field", 2, "--max-summands", 1],
}


class TestZeroRepresentation:
    """Every route answers the zero representation: no bars, no HN steps."""

    @pytest.mark.parametrize(
        "kind, command, expected",
        [
            ("persistence", ["barcode"], {"barcode": []}),
            ("persistence", ["hn"], {"hn": []}),
            ("persistence", ["hn", "--oracle"], {"hn": [], "oracle_agrees": True}),
            ("affine", ["hn"], {"hn": []}),
            ("affine", ["hn", "--oracle"], {"hn": [], "oracle_agrees": True}),
            ("affine", ["lift"], {"d_inf": 0, "classes": [], "barcode": []}),
        ],
        ids=["path-barcode", "path-hn", "path-hn-oracle",
             "affine-hn", "affine-hn-oracle", "affine-lift"],
    )
    def test_route(self, tmp_path, capsys, kind, command, expected):
        inp = tmp_path / f"{kind}.json"
        assert run(["gen", "--kind", kind, *ZERO_INSTANCES[kind], "--out", inp]) == 0
        assert not any(load_json(str(inp))["dims"])
        assert run([command[0], inp, *command[1:]]) == 0
        assert json.loads(capsys.readouterr().out) == expected


class TestVerifyCommand:
    def test_zero_cases_vacuous(self, capsys):
        assert run(["verify", "--theorem", "a", "--cases", 0]) == 0
        assert "0 passed, 0 failed" in capsys.readouterr().out

    def test_theorem_a_small(self, capsys):
        assert run(["verify", "--theorem", "a", "--cases", 12, "--seed", 5]) == 0
        assert "12 passed, 0 failed" in capsys.readouterr().out

    def test_theorem_b_small(self, capsys):
        assert run(["verify", "--theorem", "b", "--cases", 8, "--seed", 6]) == 0
        assert "8 passed, 0 failed" in capsys.readouterr().out

    def test_failure_reports_first_counterexample(self, monkeypatch, capsys):
        # theorem b spells the cycle that gen_affine drew, which the campaign
        # derives from the quiver
        cycles = []

        def recording(*args, **kwargs):
            drawn = gen_affine(*args, **kwargs)
            cycles.append(drawn[0])
            return drawn

        # a check that raises fails its case as one that returns a reason does
        def raising(case):
            raise InternalCheckError("forced")

        monkeypatch.setattr(campaign, "gen_affine", recording)
        for theorem, check, reason in (("a", lambda case: "forced", "forced"),
                                       ("b", lambda case: "forced", "forced"),
                                       ("a", raising, "InternalCheckError: forced")):
            draw, _ = campaign.THEOREMS[theorem]
            monkeypatch.setitem(campaign.THEOREMS, theorem, (draw, check))
            assert run(["verify", "--theorem", theorem, "--cases", 3, "--seed", 5]) == 1
            out, err = capsys.readouterr()
            head = f"theorem {theorem}: 0 passed, 3 failed of 3\nfirst counterexample instance:\n"
            assert out.startswith(head)
            aq = cycles[0] if theorem == "b" else None
            assert json.loads(out[len(head):]) == instance_to_json(draw(random.Random(5)).rep, aq)
            assert f"first disagreement: {reason}" in err

    def test_theorem_choices_come_from_the_campaign(self, monkeypatch, capsys):
        draw, _ = campaign.THEOREMS["a"]
        monkeypatch.setitem(campaign.THEOREMS, "z", (draw, lambda case: None))
        assert run(["verify", "--theorem", "z", "--cases", 2]) == 0
        assert capsys.readouterr().out == "theorem z: 2 passed, 0 failed of 2\n"

    def test_parser_built_once(self, capsys):
        # main reuses one parser per process; a second request parses alike
        assert cli._parser() is cli._parser()
        for _ in range(2):
            assert run(["verify", "--theorem", "a", "--cases", 2]) == 0
            assert capsys.readouterr().out == "theorem a: 2 passed, 0 failed of 2\n"

    def test_check_reasons_name_the_summands(self):
        # a case whose recorded summands disagree with its instance fails
        # with the closed form (A) or the recovered multiplicity (B)
        rng = random.Random(5)
        a, b = campaign.draw_a(rng), campaign.draw_b(rng)
        assert a.summands == {Interval(1, 1): 1} and b.summands == {NClass(0, 4): 1}
        assert campaign.check_a(a) is None and campaign.check_b(b) is None
        extra_j = dataclasses.replace(a, summands={Interval(0, 0): 1, Interval(1, 1): 1})
        assert campaign.check_a(extra_j) == (
            "the closed form of the drawn summands differs from the oracle"
        )
        doubled = dataclasses.replace(b, summands={NClass(0, 4): 2})
        assert campaign.check_b(doubled) == "N(0,4) recovered 1 times, built 2"


def _small_instance():
    return instance_to_json(interval_module(equioriented_quiver(3), Interval(0, 2), GF(2)))


def _rational_instance():
    return instance_to_json(interval_module(equioriented_quiver(2), Interval(0, 1), QQ))


def _affine_instance():
    aq = AffineQuiver(3, (CW, CW, CCW))
    return instance_to_json(indec_N(aq, 0, 1, GF(2)), aq)


def _set(path, value):
    """Mutator that replaces the entry at ``path`` of an instance document."""
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


class TestMalformedInput:
    """Each malformed input exits with its code and prints no traceback."""

    @pytest.mark.parametrize("weights", ['["abc"]', "[1, [2]]", "[0.1, 0.2, 0.3]", '["1e5", 0, 0]'],
                             ids=["word", "nested", "float", "exponent"])
    def test_bad_weights_exit_2(self, tmp_path, weights):
        inp = tmp_path / "inst.json"
        write_json(str(inp), _small_instance())
        wfile = tmp_path / "w.json"
        wfile.write_text(weights)
        code, err = run_process(["hn", inp, "--stability", wfile, "--oracle"])
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "make, mutate",
        [
            (_small_instance, _set(("matrices", 0, "rows"), [1])),
            (_small_instance, _set(("dims", 0), True)),
            (_affine_instance, _set(("quiver", "affine", "n"), True)),
            (_small_instance, _set(("field",), {"kind": "prime", "p": True})),
            (_affine_instance, _set(("quiver", "affine", "orientation", 0), True)),
            (_small_instance, _set(("matrices", 0, "edge"), False)),
            (_small_instance, _set(("quiver", "edges", 0, "src"), False)),
            (_small_instance, _set(("quiver", "edges", 0, "dst"), True)),
            (_small_instance, _set(("field",), {"kind": "prime", "p": 2305843009213693951})),
            (_rational_instance, _set(("matrices", 0, "rows", 0, 0), "1e5")),
        ],
        ids=["int-row", "bool-dims", "bool-n", "bool-p", "bool-orientation",
             "bool-edge", "bool-src", "bool-dst", "huge-p", "exponent-entry"],
    )
    def test_bad_instance_exit_2(self, tmp_path, make, mutate):
        doc = make()
        mutate(doc)
        inp = tmp_path / "inst.json"
        write_json(str(inp), doc)
        command = "lift" if "affine" in doc["quiver"] else "barcode"
        code, err = run_process([command, inp])
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "make, mutate, code, err",
        [
            (_rational_instance, _set(("matrices", 0, "rows"), [["1"], ["1", "0"]]), 3,
             "invariant violation: ragged rows in matrix data\n"),
            (_small_instance, _set(("matrices", 0, "rows"), [[1], [1, 0]]), 3,
             "invariant violation: ragged rows in matrix data\n"),
            (_rational_instance, _set(("matrices", 0, "rows"), [[0.5]]), 2,
             "error: matrix 0: QQ entry must be exact, not float\n"),
            (_rational_instance, _set(("matrices", 0, "rows"), [[True]]), 2,
             "error: matrix 0: QQ entry must be exact, not bool\n"),
            (_rational_instance, _set(("matrices", 0, "rows"), [["1e5"]]), 2,
             "error: matrix 0: QQ entry '1e5' has an exponent; write a/b or a decimal\n"),
            (_rational_instance, _set(("matrices", 0, "rows"), [["1", "0"]]), 3,
             "invariant violation: edge 0: matrix is 1x2, expected 1x1\n"),
            (_small_instance, _set(("matrices", 0, "rows"), [["1"]]), 2,
             "error: matrix 0: GF(2) entry must be an int, not str\n"),
            (_affine_instance, _set(("quiver", "affine", "orientation", 0), 2), 2,
             "error: quiver.affine: orientation must be a 0/1 array\n"),
            (_small_instance, _set(("dims",), [1, 1]), 3,
             "invariant violation: dims has 2 entries for 3 vertices\n"),
            (_small_instance, _set(("matrices", 0, "edge"), 5), 2,
             "error: matrix for unknown edge 5\n"),
            (_small_instance, _set(("matrices", 1, "edge"), 0), 2,
             "error: duplicate matrix for edge 0\n"),
        ],
        ids=["ragged-qq", "ragged-gf2", "float", "bool", "exponent", "wide", "gf2-str",
             "orientation-2", "dims-short", "unknown-edge", "duplicate-edge"],
    )
    def test_bad_entry_message(self, tmp_path, make, mutate, code, err):
        # pins the whole stderr line: entry errors come from the reader
        # (exit 2), shape errors from the matrix and the representation (exit 3)
        doc = make()
        mutate(doc)
        inp = tmp_path / "inst.json"
        write_json(str(inp), doc)
        command = "lift" if "affine" in doc["quiver"] else "barcode"
        assert run_process([command, inp]) == (code, err)

    @pytest.mark.parametrize(
        "affine, err",
        [
            ({"n": 1, "orientation": [0]},
             "invariant violation: affine quivers need at least two vertices\n"),
            ({"n": 3, "orientation": [0, 1]},
             "invariant violation: orientation must have one bit per edge\n"),
        ],
        ids=["one-vertex", "short-orientation"],
    )
    def test_bad_affine_quiver_exit_3(self, tmp_path, capsys, affine, err):
        doc = _affine_instance()
        doc["quiver"]["affine"] = affine
        inp = tmp_path / "inst.json"
        write_json(str(inp), doc)
        assert run(["lift", inp]) == 3
        assert capsys.readouterr().err == err

    def test_entries_read_canonically(self, tmp_path, capsys):
        # out-of-range residues are reduced, rational strings normalised
        doc = _small_instance()
        doc["matrices"][0]["rows"] = [[3]]
        doc["matrices"][1]["rows"] = [[-1]]
        inp = tmp_path / "inst.json"
        write_json(str(inp), doc)
        rep = instance_from_json(load_json(str(inp)))
        assert [m.data for m in rep.mats] == [((1,),), ((1,),)]
        doc = _rational_instance()
        doc["matrices"][0]["rows"] = [["2/4"]]
        write_json(str(inp), doc)
        (entry,), = instance_from_json(load_json(str(inp))).mats[0].data
        assert entry == Fraction(1, 2) and type(entry) is Fraction

    @pytest.mark.parametrize(
        "rows, err",
        [
            ([[1, True]], "error: matrix 0: QQ entry must be exact, not bool\n"),
            ([["1", True]], "error: matrix 0: QQ entry must be exact, not bool\n"),
            ([["1", "1/0", "1/0"]], "error: matrix 0: QQ entry '1/0' is not a rational\n"),
        ],
        ids=["int-then-true", "string-then-true", "repeated-bad-string"],
    )
    def test_entry_memo_refuses_as_before(self, tmp_path, capsys, rows, err):
        # the reader keeps only strings it took, so a JSON true never
        # borrows the Fraction of "1" or 1, and a refused string is refused
        doc = _rational_instance()
        doc["matrices"][0]["rows"] = rows
        inp = tmp_path / "inst.json"
        write_json(str(inp), doc)
        assert run(["barcode", inp]) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize(
        "fld, matrices, code, err",
        [
            (GF(3), [[[3]], [[-1]], [["1"]]], 2,
             "error: matrix 2: GF(3) entry must be an int, not str\n"),
            (QQ, [[["2/4"]], [["0.5"]], [[0.5]]], 2,
             "error: matrix 2: QQ entry must be exact, not float\n"),
            (GF(3), [[[1]], [[True]], [[1]]], 2,
             "error: matrix 1: GF(3) entry must be an int, not bool\n"),
            (GF(3), [[["1"]], [[1], [1, 0]], [[1]]], 2,
             "error: matrix 0: GF(3) entry must be an int, not str\n"),
            (QQ, [[[0.5]], [["1"], ["1", "0"]], [["1"]]], 2,
             "error: matrix 0: QQ entry must be exact, not float\n"),
            (GF(3), [[["1"]], ("edge", 7), [[1]]], 2,
             "error: matrix 0: GF(3) entry must be an int, not str\n"),
            (GF(3), [[["1"]], ("edge", 0), [[1]]], 2,
             "error: matrix 0: GF(3) entry must be an int, not str\n"),
            (GF(3), [[[1]], [[1], [1, 0]], [["1"]]], 3,
             "invariant violation: ragged rows in matrix data\n"),
            (GF(3), [[[3]], [[1]], ("edge", 5)], 2, "error: matrix for unknown edge 5\n"),
        ],
        ids=["gf3-after-residues", "qq-after-strings", "gf3-true", "entry-then-ragged",
             "qq-entry-then-ragged", "entry-then-unknown-edge", "entry-then-duplicate-edge",
             "ragged-then-entry", "residue-then-unknown-edge"],
    )
    def test_first_refusal_in_document_order(self, tmp_path, capsys, fld, matrices, code, err):
        # a document of three matrices, each 1x1 unless it says otherwise, or
        # with its "edge" key replaced: the first refusal in document order
        # is the one printed, whatever valid but non-canonical entries the
        # matrices before it hold and whatever errors the matrices after it hold
        doc = instance_to_json(interval_module(equioriented_quiver(4), Interval(0, 3), fld))
        for mobj, change in zip(doc["matrices"], matrices):
            if isinstance(change, tuple):
                mobj[change[0]] = change[1]
            else:
                mobj["rows"] = change
        inp = tmp_path / "inst.json"
        write_json(str(inp), doc)
        assert run(["barcode", inp]) == code
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("fld", [GF(3), QQ], ids=repr)
    def test_matrices_out_of_edge_order(self, tmp_path, capsys, fld):
        # each matrix is read into the slot of its edge, and a bad entry is
        # refused in the order the document lists the matrices
        doc = instance_to_json(interval_module(equioriented_quiver(4), Interval(0, 3), fld))
        entry = (lambda x: x) if fld == GF(3) else str
        for mobj, x in zip(doc["matrices"], (2, 0, 1)):
            mobj["rows"] = [[entry(x)]]
        listed = dict(doc, matrices=doc["matrices"][::-1])
        inp = tmp_path / "inst.json"
        write_json(str(inp), listed)
        rep = instance_from_json(load_json(str(inp)))
        assert [m.data for m in rep.mats] == [((2,),), ((0,),), ((1,),)]
        assert run(["barcode", inp]) == 0
        assert capsys.readouterr().err == ""
        listed["matrices"][2]["rows"] = [["x"]]  # edge 0, listed last
        listed["matrices"][1]["rows"] = [[0.5]]  # edge 1
        write_json(str(inp), listed)
        assert run(["barcode", inp]) == 2
        must = "an int" if fld == GF(3) else "exact"
        err = f"error: matrix 1: {fld!r} entry must be {must}, not float\n"
        assert capsys.readouterr().err == err

    def test_repeated_entry_strings_read_once(self, tmp_path, monkeypatch, count_calls):
        # one read per distinct string of the document, however often it
        # occurs in the matrices, and each into ints: no Fraction is built
        q = Quiver(3, ((0, 1), (2, 1)))
        doc = instance_to_json(Representation(q, QQ, (2, 2, 1), (Matrix.zeros(QQ, 2, 2),
                                                                  Matrix.zeros(QQ, 2, 1))))
        doc["matrices"][0]["rows"] = [["2/4", "-3"], ["2/4", "2/4"]]
        doc["matrices"][1]["rows"] = [["-3"], [7]]
        inp = tmp_path / "inst.json"
        write_json(str(inp), doc)
        raw = load_json(str(inp))
        reads, read_entry = [], serialize._read_entry
        monkeypatch.setattr(serialize, "_read_entry", lambda v: reads.append(v) or read_entry(v))
        built = count_calls(Fraction, "__new__")
        first, second = instance_from_json(raw).mats
        assert reads == ["2/4", "-3", 7]  # an int is read where it occurs, as it was
        assert len(built) == 0
        assert first.data == ((Fraction(1, 2), -3), (Fraction(1, 2), Fraction(1, 2)))
        assert second.data == ((-3,), (7,))
        for row in first.data + second.data:
            assert all(type(x) is Fraction for x in row)

    def test_long_value_short_error_line(self, tmp_path):
        # the offending value is echoed, but cut short
        inp = tmp_path / "inst.json"
        write_json(str(inp), _small_instance())
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(["1/" + "7" * 5000, "0", "0"]))
        doc = _small_instance()
        doc["field"] = {"kind": "x" * 5000}
        kind = tmp_path / "kind.json"
        write_json(str(kind), doc)
        doc["field"] = {"kind": "prime", "p": 10**4000}
        modulus = tmp_path / "modulus.json"
        write_json(str(modulus), doc)
        for args in (["hn", inp, "--stability", wfile, "--oracle"], ["barcode", kind],
                     ["barcode", modulus], ["gen", "--kind", "affine", "--n", 3, "--field", "7" * 5000,
                                            "--out", tmp_path / "g.json"]):
            code, err = run_process(args)
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1
            assert len(err) < 200

    def test_gen_huge_field_exit_2(self, tmp_path):
        code, err = run_process(["gen", "--kind", "affine", "--n", 3,
                                 "--field", 2305843009213693951, "--out", tmp_path / "g.json"])
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "raw",
        [b"[" * 3000 + b"]" * 3000, b'["\xff"]', b'{"dims": [' + b"9" * 5000 + b"]}"],
        ids=["deep-nesting", "bad-utf8", "huge-int"],
    )
    def test_undecodable_file_exit_2(self, tmp_path, raw):
        # json.load raises RecursionError, UnicodeDecodeError, or a ValueError
        # for an integer literal past Python's 4300-digit limit
        inp = tmp_path / "inst.json"
        write_json(str(inp), _small_instance())
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        for args in (["barcode", bad], ["hn", inp, "--stability", bad, "--oracle"]):
            code, err = run_process(args)
            assert code == 2
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "args, err",
        [
            (["gen", "--kind", "persistence", "--n", 0],
             "error: --kind persistence needs --n of at least 1\n"),
            (["gen", "--kind", "affine", "--n", 1],
             "error: --kind affine needs --n of at least 2\n"),
            (["gen", "--kind", "persistence", "--n", 3, "--max-summands", -1],
             "error: --max-summands must not be negative\n"),
            (["verify", "--theorem", "a", "--cases", -3], "error: --cases must not be negative\n"),
            (["gen", "--kind", "persistence", "--n", 3, "--field", "q"],
             "error: bad field 'q': use 'rational' or a prime\n"),
            (["verify", "--theorem", "a", "--cases", -1], "error: --cases must not be negative\n"),
        ],
        ids=["persistence-n0", "affine-n1", "negative-summands", "negative-cases",
             "field-q", "cases-minus-1"],
    )
    def test_bad_argument_exit_2(self, tmp_path, args, err):
        # pins the whole stderr line
        if args[0] == "gen":
            args = [*args, "--out", tmp_path / "g.json"]
        assert run_process(args) == (2, err)

    def test_unwritable_out_exit_2(self, tmp_path):
        missing = tmp_path / "missing" / "x.json"
        code, err = run_process(["gen", "--kind", "persistence", "--n", 3, "--out", missing])
        assert code == 2
        assert err.startswith("error: cannot write ")
        assert "Traceback" not in err
        inp = tmp_path / "inst.json"
        write_json(str(inp), _small_instance())
        code, err = run_process(["barcode", inp, "--out", missing])
        assert code == 2
        assert err.startswith("error: cannot write ")
        assert "Traceback" not in err


class TestModuleEntryPoint:
    def test_python_m_hnzz(self):
        # ``python -m hnzz`` runs the same CLI from a checkout, without an install
        args = ["verify", "--theorem", "a", "--cases", 3, "--seed", 0]
        outs = []
        for module in ("hnzz", "hnzz.cli"):
            spec = cli_process(args)
            spec["args"][1:3] = ["-m", module]
            proc = subprocess.run(stdout=subprocess.PIPE, timeout=60, **spec)
            assert (proc.returncode, proc.stderr) == (0, "")
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert outs[0].startswith("theorem a: 3 passed, 0 failed of 3")


class TestClosedStdout:
    """A reader that stops early ends the command without a traceback."""

    def test_reader_stops_after_one_line(self, tmp_path):
        args = cli_process(["lift", gen_short_window_instance(tmp_path)])
        with subprocess.Popen(stdout=subprocess.PIPE, **args) as proc:
            assert proc.stdout.readline() == "{\n"
            proc.stdout.close()
            err = proc.stderr.read()
            # the child may have written everything before the pipe closed
            assert proc.wait(timeout=60) in (0, 1)
        assert "Traceback" not in err
        assert "Exception ignored" not in err

    def test_closed_pipe_exit_1(self, tmp_path):
        args = cli_process(["lift", gen_short_window_instance(tmp_path)])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.Popen(stdout=write_end, **args)
        finally:
            os.close(write_end)
        with proc:
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert "Exception ignored" not in err


def calls_everywhere(count_calls, function) -> list[list]:
    """``count_calls`` on every module of the package that binds ``function`` by name."""
    modules = [importlib.import_module(f"hnzz.{info.name}") for info in iter_modules(hnzz.__path__)]
    name = function.__name__
    return [count_calls(module, name) for module in modules
            if getattr(module, name, None) is function]


def test_each_request_resolves_and_weighs_once(tmp_path, count_calls):
    # a lift or hn request on a cycle resolves it with one affine_of_quiver,
    # and an hn request builds its Euler weights once; an hn request on a
    # path also asks once whether it is a cycle
    aq = AffineQuiver(3, (CW, CW, CCW))
    cycle = write_instance(tmp_path, indec_N(aq, 0, 4, GF(3)), aq)
    path = write_instance(tmp_path, interval_module(equioriented_quiver(3), Interval(0, 1), GF(3)),
                          name="path.json")
    resolved = calls_everywhere(count_calls, affine.affine_of_quiver)
    weighed = calls_everywhere(count_calls, quiver.euler_stability)
    assert resolved and weighed
    for command, inp in (("lift", cycle), ("hn", cycle), ("hn", path)):
        for calls in resolved + weighed:
            calls.clear()
        assert run([command, inp, "--out", tmp_path / "out.json"]) == 0
        counts = sum(map(len, resolved)), sum(map(len, weighed))
        assert counts == (1, int(command == "hn")), (command, inp)
