"""End-to-end tests for the command line.

Most tests drive main() in-process and inspect captured output; a few
run the module as a subprocess to check the real exit-code contract,
including the split-failure code 3.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import moritacat
from moritacat import jsonio
from moritacat.cli import main
from moritacat.completion import iota
from moritacat.generate import planted_range_square, random_category
from moritacat.homotopy import ho_morphism
from moritacat.presentations import build_universal
from moritacat.semisimple import SemisimpleForm, decompose
from moritacat.starcat import (
    ground_category,
    identity_functor,
    matrix_category,
    zero_category,
)

GROUND_DOC = {
    "kind": "concrete",
    "objects": [{"name": "x", "dim": 1}],
    "homs": {"x->x": [[["1"]]]},
}

# Endomorphisms spanned by the identity and a hermitian matrix whose
# minimal polynomial has no rational-Gaussian root.
SQRT2_DOC = {
    "kind": "concrete",
    "objects": [{"name": "x", "dim": 2}],
    "homs": {
        "x->x": [
            [["1", "0"], ["0", "1"]],
            [["1", "1"], ["1", "-1"]],
        ]
    },
}

TWO_BLOCKS_DOC = {
    "kind": "semisimple",
    "blocks": ["b1", "b2"],
    "objects": [{"name": "x", "mult": [1, 1]}],
}

THREE_BLOCKS_DOC = {
    "kind": "semisimple",
    "blocks": ["b1", "b2", "b3"],
    "objects": [{"name": "x", "mult": [1, 1, 1]}],
}


@pytest.fixture
def write(tmp_path):
    def _write(name, doc):
        path = tmp_path / name
        path.write_text(jsonio.dumps(doc), encoding="utf-8")
        return str(path)

    return _write


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# validate


class TestValidate:
    def test_valid_category(self, write, capsys):
        path = write("f.json", GROUND_DOC)
        assert run_cli("validate", path) == 0
        assert "valid" in capsys.readouterr().out

    def test_broken_category_exits_2(self, write, capsys):
        doc = {
            "kind": "concrete",
            "objects": [{"name": "x", "dim": 2}],
            "homs": {"x->x": [[["0", "1"], ["0", "0"]]]},
        }
        path = write("broken.json", doc)
        assert run_cli("validate", path) == 2
        out = capsys.readouterr().out
        assert "unit" in out

    def test_schema_error_exits_2(self, write, capsys):
        path = write("bad.json", {"kind": "concrete"})
        assert run_cli("validate", path) == 2
        assert "objects" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run_cli("validate", str(tmp_path / "absent.json")) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["validate", "decompose", "k0"])
    def test_oversized_scalar_exits_2(self, verb, write, capsys):
        # int() refuses strings of more than 4,300 digits by default.
        doc = {
            "kind": "concrete",
            "objects": [{"name": "x", "dim": 1}],
            "homs": {"x->x": [[["1" + "0" * 5000]]]},
        }
        path = write("big.json", doc)
        assert run_cli(verb, path) == 2
        assert "scalar is too long" in capsys.readouterr().err

    def test_valid_functor_document(self, write, capsys):
        doc = jsonio.functor_to_json(identity_functor(matrix_category(2)))
        path = write("f.json", doc)
        assert run_cli("validate", path, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"kind": "functor", "valid": True, "problems": []}


# ---------------------------------------------------------------------------
# decompose


class TestDecompose:
    def test_matrix_category(self, write, capsys):
        path = write("m2.json", jsonio.category_to_json(matrix_category(2)))
        assert run_cli("decompose", path, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["blocks"]) == 1
        assert report["unit_ranks"] == [1]
        # The report doubles as a parseable semisimple document.
        form = jsonio.semisimple_form_from_json(report)
        assert form.k == 1
        assert form.class_of("x") == (2,)

    def test_semisimple_passthrough(self, write, capsys):
        path = write("f2.json", TWO_BLOCKS_DOC)
        assert run_cli("decompose", path) == 0
        assert "2 block(s)" in capsys.readouterr().out

    def test_split_failure_exits_3(self, write, capsys):
        path = write("sqrt2.json", SQRT2_DOC)
        assert run_cli("decompose", path, "--json") == 3
        captured = capsys.readouterr()
        assert "t^2 - 2" in captured.err
        assert json.loads(captured.out)["polynomial"] == "t^2 - 2"


# ---------------------------------------------------------------------------
# saturate


class TestSaturate:
    def test_plain_listing(self, write, capsys):
        path = write("m2.json", jsonio.category_to_json(matrix_category(2)))
        assert run_cli("saturate", path, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["base"] == [{"name": "x", "dim": 2}]
        assert report["objects"]["x"]["word"] == ["x"]

    def test_object_probe_valid(self, write, capsys):
        cat_path = write("f.json", GROUND_DOC)
        obj_path = write(
            "obj.json", {"word": ["x", "x"], "proj": [["1", "0"], ["0", "0"]]}
        )
        assert run_cli("saturate", cat_path, "--object", obj_path, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank"] == 1
        assert report["ambient_dimension"] == 2

    def test_object_probe_invalid(self, write, capsys):
        cat_path = write("f.json", GROUND_DOC)
        obj_path = write(
            "obj.json", {"word": ["x", "x"], "proj": [["0", "1"], ["0", "0"]]}
        )
        assert run_cli("saturate", cat_path, "--object", obj_path) == 2
        assert "not a saturation object" in capsys.readouterr().err

    def test_hom_probe(self, write, capsys):
        cat_path = write("f.json", GROUND_DOC)
        a = write("a.json", {"word": ["x"], "proj": [["1"]]})
        b = write(
            "b.json", {"word": ["x", "x"], "proj": [["1", "0"], ["0", "1"]]}
        )
        assert run_cli("saturate", cat_path, "--hom", a, b, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dimension"] == 2


# ---------------------------------------------------------------------------
# morita


class TestMorita:
    def test_equivalent_with_witness(self, write, capsys):
        a = write("m2.json", jsonio.category_to_json(matrix_category(2)))
        b = write("f.json", GROUND_DOC)
        assert run_cli("morita", a, b, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["equivalent"] is True
        witness = jsonio.saturation_functor_from_json(report["witness"])
        assert witness.source == matrix_category(2)

    def test_not_equivalent_reason(self, write, capsys):
        a = write("f.json", GROUND_DOC)
        b = write("f2.json", TWO_BLOCKS_DOC)
        assert run_cli("morita", a, b) == 1
        assert "block count 1 ≠ 2" in capsys.readouterr().out


    def test_missing_witness_is_not_called_impossible(self, write, capsys):
        # The 91st draw has a block of multiplicity two and rank two, on
        # which the exact witness construction finds no functor.
        rng = random.Random(11)
        for _ in range(91):
            drawn = random_category(
                rng, max_blocks=2, max_mult=2, max_objects=2, max_rank=2
            )
        path = write("x.json", jsonio.category_to_json(drawn.category))
        assert run_cli("morita", path, path, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["equivalent"] is True
        assert report["witness"] is None
        assert "no explicit witness functor exists" not in report["note"]
        assert "Morita equivalent" in report["note"]


# ---------------------------------------------------------------------------
# hom and compose


class TestHomCompose:
    def test_hom_rank(self, write, capsys):
        a = write("f2.json", TWO_BLOCKS_DOC)
        b = write("f.json", GROUND_DOC)
        assert run_cli("hom", a, b, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank"] == 2
        assert report["shape"] == [1, 2]

    def test_hom_bounded_count(self, write, capsys):
        a = write("f.json", GROUND_DOC)
        assert run_cli("hom", a, a, "--json", "--bound", "3") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bounded_elements"] == 4  # 0, 1, 2, 3

    def test_no_seed_and_bound_only_on_hom_and_picard(self, write, capsys):
        path = write("f.json", GROUND_DOC)
        assert run_cli("k0", path, "--bound", "3") == 2
        assert run_cli("picard", path, "--verify", "--bound", "1") == 0
        assert run_cli("k0", path, "--seed", "1") == 2

    def test_compose_matrix_product(self, write, capsys):
        point = SemisimpleForm(("b1",), (("x", (1,)),))
        pair = SemisimpleForm(("c1", "c2"), (("y", (1, 1)),))
        f = ho_morphism(point, pair, ((1,), (2,)))
        g = ho_morphism(pair, point, ((3, 1),))
        first = write("f.json", jsonio.ho_morphism_to_json(f))
        second = write("g.json", jsonio.ho_morphism_to_json(g))
        assert run_cli("compose", first, second, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mult"] == [[5]]  # 3*1 + 1*2

    def test_compose_mismatch_exits_2(self, write, capsys):
        point = SemisimpleForm(("b1",), (("x", (1,)),))
        pair = SemisimpleForm(("c1", "c2"), (("y", (1, 1)),))
        f = ho_morphism(point, pair, ((1,), (2,)))
        path = write("f.json", jsonio.ho_morphism_to_json(f))
        assert run_cli("compose", path, path) == 2
        assert "not composable" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# picard, k0, tensor, k0-ring


class TestKTheoryVerbs:
    def test_picard_verified(self, write, capsys):
        path = write("f3.json", THREE_BLOCKS_DOC)
        assert run_cli("picard", path, "--verify") == 0
        assert "S_3 (order 6), verified by enumeration" in capsys.readouterr().out

    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_picard_verify_below_bound_one_exits_2(self, bound, write, capsys):
        path = write("f3.json", THREE_BLOCKS_DOC)
        assert run_cli("picard", path, "--verify", "--bound", bound, "--json") == 2
        report = json.loads(capsys.readouterr().out)
        assert report == {"error": f"the enumeration bound must be at least 1, got {bound}"}

    def test_picard_unverified_json(self, write, capsys):
        path = write("m2.json", jsonio.category_to_json(matrix_category(2)))
        assert run_cli("picard", path, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "group": "S_1",
            "order": 1,
            "verified": False,
            "generators": [],
        }

    def test_k0(self, write, capsys):
        path = write("f2.json", TWO_BLOCKS_DOC)
        assert run_cli("k0", path, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank"] == 2
        assert report["objects"]["x"] == [1, 1]

    def test_tensor(self, write, capsys):
        a = write("f2.json", TWO_BLOCKS_DOC)
        assert run_cli("tensor", a, a, "--json") == 0
        form = jsonio.semisimple_form_from_json(
            json.loads(capsys.readouterr().out)
        )
        assert form.k == 4

    def test_k0_ring_product_form(self, write, capsys):
        path = write("f3.json", THREE_BLOCKS_DOC)
        assert run_cli("k0-ring", path, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["unit"] == [1, 1, 1]
        assert report["pointwise"] is True

    def test_k0_ring_rejects_matrix_block(self, write, capsys):
        path = write("m2.json", jsonio.category_to_json(matrix_category(2)))
        assert run_cli("k0-ring", path) == 2
        assert "product of base fields" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# universal and pushout


class TestUniversalPushout:
    def test_universal_round_trip(self, capsys):
        assert run_cli("universal", "R", "2", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert jsonio.presentation_from_json(doc) == build_universal("R", 2)

    def test_universal_interval_takes_no_count(self, capsys):
        assert run_cli("universal", "I", "2") == 2
        assert "takes no count" in capsys.readouterr().err

    def test_pushout_interval(self, write, capsys):
        path = write("m2.json", jsonio.category_to_json(matrix_category(2)))
        assert run_cli("pushout", path, "--interval", "x", "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["original"] == "x"
        assert report["copy"] == "x'"
        cat = jsonio.category_from_json(report["category"])
        assert set(cat.object_names()) == {"x", "x'"}

    def test_pushout_interval_unknown_object(self, write, capsys):
        path = write("m2.json", jsonio.category_to_json(matrix_category(2)))
        assert run_cli("pushout", path, "--interval", "nope") == 2

    def test_pushout_range(self, write, capsys):
        cat_path = write("f.json", GROUND_DOC)
        g_path = write(
            "g.json", {"objects": {"o1": "x"}, "arrows": {"p1_1": [["1"]]}}
        )
        assert run_cli("pushout", cat_path, "--rn", g_path, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["range"] == "r(1)"
        assert report["word"] == ["x"]
        cat = jsonio.category_from_json(report["category"])
        assert set(cat.object_names()) == {"x", "r(1)"}

    def test_pushout_range_rejects_non_projection(self, write, capsys):
        cat_path = write("f.json", GROUND_DOC)
        g_path = write(
            "g.json", {"objects": {"o1": "x"}, "arrows": {"p1_1": [["1/2"]]}}
        )
        assert run_cli("pushout", cat_path, "--rn", g_path) == 2
        assert "projection" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fibrancy-probe and lift-check


class TestProbesAndLifts:
    def test_probe_zero_category_passes(self, write, capsys):
        path = write("zero.json", jsonio.category_to_json(zero_category()))
        assert run_cli("fibrancy-probe", path, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_pass"] is True

    def test_probe_finite_category_fails(self, write, capsys):
        path = write("m2.json", jsonio.category_to_json(matrix_category(2)))
        assert run_cli("fibrancy-probe", path, "--json") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["all_pass"] is False
        assert report["failing"]

    def test_lift_found(self, write, capsys, tmp_path):
        rng = random.Random(11)
        gen_cat = random_category(rng, max_objects=2, min_mult=1)
        scenario = planted_range_square(rng, gen_cat, 1)
        f_path = write("f.json", jsonio.functor_to_json(scenario.functor))
        sq_path = write("sq.json", jsonio.square_to_json(scenario.square))
        assert run_cli("lift-check", f_path, sq_path, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["found"] is True
        assert report["family"] == "R"

    def test_no_lift_exits_1(self, write, capsys):
        rng = random.Random(12)
        gen_cat = random_category(rng, max_objects=2, min_mult=1)
        scenario = planted_range_square(rng, gen_cat, 1)
        # The inclusion of the base misses the adjoined range object, so
        # the same square has no lift through it.
        incl = scenario.pushout.inclusion
        f_path = write("incl.json", jsonio.functor_to_json(incl))
        sq_path = write("sq.json", jsonio.square_to_json(scenario.square))
        assert run_cli("lift-check", f_path, sq_path) == 1
        assert "no lift" in capsys.readouterr().out

    def test_non_commuting_square_exits_2(self, write, capsys):
        cat = ground_category()
        f = identity_functor(cat)
        f_path = write("id.json", jsonio.functor_to_json(f))
        square = {
            "kind": "square",
            "family": "R",
            "n": 1,
            "top": {"objects": {"o1": "x"}, "arrows": {"p1_1": [["1"]]}},
            "bottom": {
                "objects": {"o1": "x", "r(1)": "x"},
                "arrows": {"s1": [["0"]]},
            },
        }
        sq_path = write("sq.json", square)
        assert run_cli("lift-check", f_path, sq_path) == 2
        assert "commute" in capsys.readouterr().err


    def test_saturation_functor_rejected_with_2(self, write, capsys):
        f_path = write("iota.json", jsonio.functor_to_json(iota(ground_category())))
        square = {
            "kind": "square",
            "family": "R",
            "n": 1,
            "top": {"objects": {"o1": "x"}, "arrows": {"p1_1": [["1"]]}},
            "bottom": {
                "objects": {"o1": "x", "r(1)": "x"},
                "arrows": {"s1": [["1"]]},
            },
        }
        sq_path = write("sq.json", square)
        assert run_cli("lift-check", f_path, sq_path) == 2
        assert 'a "functor" document is required' in capsys.readouterr().err


# ---------------------------------------------------------------------------
# global behavior


class TestGlobalContract:
    def test_json_output_byte_identical(self, write, capsys):
        path = write("m2.json", jsonio.category_to_json(matrix_category(2)))
        assert run_cli("decompose", path, "--json") == 0
        first = capsys.readouterr().out
        assert run_cli("decompose", path, "--json") == 0
        assert capsys.readouterr().out == first

    def test_unknown_verb_rejected(self, capsys):
        assert run_cli("frobnicate") == 2

    def test_no_verb_rejected(self, capsys):
        assert run_cli() == 2

    def test_subprocess_split_failure_code_3(self, tmp_path):
        path = tmp_path / "sqrt2.json"
        path.write_text(jsonio.dumps(SQRT2_DOC), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "moritacat.cli", "decompose", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3, proc.stderr
        assert "t^2 - 2" in proc.stderr

    def test_subprocess_morita_negative_code_1(self, tmp_path):
        a = tmp_path / "f.json"
        a.write_text(jsonio.dumps(GROUND_DOC), encoding="utf-8")
        b = tmp_path / "f2.json"
        b.write_text(jsonio.dumps(TWO_BLOCKS_DOC), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "moritacat.cli", "morita", str(a), str(b)],
            capture_output=True,
            text=True,
            # A stripped C-locale env checks that the non-ASCII report
            # prints whatever the caller's locale; PYTHONPATH points the
            # child at the same moritacat this process imported.
            env={
                "PATH": "/usr/bin:/bin",
                "LC_ALL": "C",
                "PYTHONPATH": str(Path(moritacat.__file__).resolve().parents[1]),
                "PYTHONDONTWRITEBYTECODE": "1",
            },
        )
        assert proc.returncode == 1, proc.stderr
        assert "block count" in proc.stdout, proc.stderr

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "moritacat.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        for verb in ("morita", "k0-ring", "fibrancy-probe", "lift-check"):
            assert verb in proc.stdout, proc.stderr
