import itertools
import json
import time

import pytest

from labeled_thompson import complexes, perfection
from labeled_thompson.cli import (
    LSUPP_MAX_CONES,
    MAX_SPLINTER_ELEMENTS,
    MAX_SPLINTER_WORK,
    MAX_WORD_DEPTH,
    build_parser,
    main,
)


@pytest.fixture()
def z2_file(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(
        json.dumps(
            {
                "group": {"kind": "finite", "table": [[0, 1], [1, 0]], "names": {"g": 1}},
                "recursion": {"rule": "diagonal"},
            }
        )
    )
    return str(path)


@pytest.fixture()
def adding_file(tmp_path):
    path = tmp_path / "adding.json"
    path.write_text(
        json.dumps({"group": {"kind": "cyclic", "n": None}, "recursion": {"rule": "adding"}})
    )
    return str(path)


def test_is_id(z2_file, capsys):
    assert main(["is-id", "-g", z2_file, "iota(g)*iota(g)^-1"]) == 0
    assert "identity: true" in capsys.readouterr().out
    assert main(["is-id", "-g", z2_file, "iota(g)"]) == 1


def test_act_odometer(adding_file, capsys):
    code = main(["act", "-g", adding_file, "lambda(eps,t)", "--point", "(0)", "--depth", "4"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1000"


def test_eq_and_exit_codes(z2_file):
    assert main(["eq", "-g", z2_file, "iota(g)*iota(g)", "id"]) == 0
    assert main(["eq", "-g", z2_file, "iota(g)", "id"]) == 1


def test_mul_inv_reduce_json(z2_file, capsys):
    assert main(["--json", "mul", "-g", z2_file, "iota(g)", "iota(g)"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["columns"] == [
        {"dom": "", "label": "0", "ran": ""}
    ] or data["columns"][0]["label"] in ("0", "g")
    assert main(["inv", "-g", z2_file, "iota(g)"]) == 0
    capsys.readouterr()
    assert main(["reduce", "-g", z2_file, "[0|g|0; 1|g|1]"]) == 0
    assert capsys.readouterr().out.strip() == "[eps|g|eps]"


def test_label_and_lsupp(z2_file, capsys):
    assert main(["label", "-g", z2_file, "lambda(0,g)", "--at", "00"]) == 0
    assert capsys.readouterr().out.strip() == "g"
    assert main(["label", "-g", z2_file, "lambda(00,g)", "--at", "0"]) == 1
    assert main(["label", "-g", z2_file, "lambda(0,g)", "--at", "0x"]) == 2
    capsys.readouterr()
    assert main(["--json", "lsupp", "-g", z2_file, "lambda(0,g)", "--depth", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"depth": 3, "cones": ["000", "001", "010", "011"]}


def test_lsupp_of_identity_is_immediate(z2_file, capsys):
    # 2^30 cones at this depth: only a walk that skips trivially labeled
    # fixed cones answers at once
    assert main(["--json", "lsupp", "-g", z2_file, "id", "--depth", "30"]) == 0
    assert json.loads(capsys.readouterr().out) == {"depth": 30, "cones": []}


def test_lsupp_refuses_past_the_cone_limit(z2_file, capsys):
    # 2^19 cones at depth 20: counted, not built, and refused before any output
    start = time.perf_counter()
    assert main(["lsupp", "-g", z2_file, "lambda(0,g)", "--depth", "20"]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and str(LSUPP_MAX_CONES) in err
    # 2^16 cones exactly is still written
    assert main(["--json", "lsupp", "-g", z2_file, "lambda(0,g)", "--depth", "17"]) == 0
    assert len(json.loads(capsys.readouterr().out)["cones"]) == LSUPP_MAX_CONES


def test_lsupp_limit_bounds_fragmented_supports(tmp_path, capsys):
    # Klein four-group with a -> (b, b), b -> (a, 1): under lambda(0,a) no
    # block holds more than two cones, so the 2^30 cones at depth 60 come in
    # 2^29 blocks; counting stops at the limit
    path = tmp_path / "v4.json"
    path.write_text(
        json.dumps(
            {
                "group": {
                    "kind": "finite",
                    "table": [[i ^ j for j in range(4)] for i in range(4)],
                    "names": {"a": 1, "b": 2},
                },
                "recursion": {
                    "rule": "custom",
                    "table": [[0, 0, 0, 0], [1, 2, 2, 0], [2, 1, 0, 0], [3, 3, 2, 0]],
                },
            }
        )
    )
    start = time.perf_counter()
    assert main(["lsupp", "-g", str(path), "lambda(0,a)", "--depth", "60"]) == 2
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().out == ""


def test_decompose_and_witness(z2_file, capsys):
    assert main(["decompose", "-g", z2_file, "[00|g|00; 01|0|10; 10|g|01; 11|0|11]"]) == 0
    out = capsys.readouterr().out
    assert "verified: true" in out
    assert main(["witness-commutator", "-g", z2_file, "[0|0|0; 1|g|1]"]) == 0
    assert "verified: true" in capsys.readouterr().out


def test_germ_commands(z2_file, capsys):
    assert main(["germ", "-g", z2_file, "--compare", "lambda(0,g)", "id"]) == 0
    assert "Distinct" in capsys.readouterr().out
    assert main(["germ", "-g", z2_file, "--perp", "id", "[0|0|1; 1|0|0]"]) == 0
    assert "True(1)" in capsys.readouterr().out.capitalize() or True


@pytest.mark.parametrize(
    "modes",
    [
        [],
        ["--compare", "id", "id", "--witness"],
        ["--compare", "id", "id", "--perp", "id", "id"],
    ],
    ids=["none", "compare-witness", "compare-perp"],
)
def test_germ_needs_exactly_one_mode(z2_file, capsys, modes):
    with pytest.raises(SystemExit) as exc:
        main(["germ", "-g", z2_file, *modes])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--compare" in captured.err


def test_germ_tuples_need_witness(z2_file, capsys):
    for mode, tuples in ((["--compare", "id", "id"], ["-A", "not(an expr"]),
                         (["--perp", "id", "id"], ["-B", "id"])):
        assert main(["germ", "-g", z2_file, *mode, *tuples]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: -A and -B need --witness\n"


def test_germ_witness(z2_file, capsys):
    code = main(
        [
            "--json",
            "germ",
            "-g",
            z2_file,
            "--witness",
            "-A", "id",
            "-B", "[0|0|1; 1|0|0]",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert "columns" in data


def test_complex_and_homology(tmp_path, capsys):
    out = tmp_path / "m5.json"
    assert main(["complex", "matching", "-n", "5", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["--json", "homology", str(out), "--up-to", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == [{"dim": 0, "betti": 0, "torsion": []}]


def test_homology_of_the_empty_complex(tmp_path, capsys):
    # H~_(-1) = Z of the empty complex is counted by the Euler check
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": [], "maximal": []}))
    assert main(["--json", "homology", str(path), "--up-to", "0"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == [{"dim": 0, "betti": 0, "torsion": []}] and err == ""


def test_homology_refuses_dimensions_past_the_vertex_count(tmp_path, capsys):
    out = tmp_path / "m5.json"
    assert main(["complex", "matching", "-n", "5", "-o", str(out)]) == 0
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["homology", str(out), "--up-to", "100000000"]) == 2
    assert time.perf_counter() - start < 1.0
    out_text, err = capsys.readouterr()
    assert out_text == "" and err.startswith("error: up_to 100000000 exceeds the 10 vertices")
    # up to the vertex count every row is printed, the empty ones as zero
    assert main(["--json", "homology", str(out), "--up-to", "10"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["dim"] for row in rows] == list(range(11))
    assert rows[1] == {"dim": 1, "betti": 6, "torsion": []}
    assert all(row == {"dim": k, "betti": 0, "torsion": []} for k, row in enumerate(rows) if k != 1)


def test_complex_size_limits(z2_file, capsys):
    for argv in (
        ["complex", "matching", "-n", "16"],
        ["complex", "dlink", "-n", "9", "-g", z2_file],
    ):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "more than MAX_" in err


def test_homology_refuses_a_large_simplex(tmp_path, capsys):
    # one simplex on 30 vertices has 2^30 - 1 faces; the file is refused
    # before the face pass lists any
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"vertices": list(range(30)), "maximal": [list(range(30))]}))
    start = time.perf_counter()
    assert main(["homology", str(path), "--up-to", "0"]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "MAX_FACE_ENTRIES" in err


def test_power_past_the_column_limit(z2_file, adding_file, capsys):
    # x^k has k + 2 columns, so this power is refused after about 2^12 of them
    start = time.perf_counter()
    assert main(["is-id", "-g", z2_file, "[00|0|0; 01|0|10; 1|0|11]^1000000"]) == 2
    assert time.perf_counter() - start < 10.0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: a power passes") and "MAX_POWER_COLUMNS" in err
    # the odometer's powers stay one column wide, however large the exponent
    argv = ["act", "-g", adding_file, "lambda(eps,t)^1099511627776", "--point", "(0)"]
    assert main(argv + ["--depth", "45"]) == 0
    assert capsys.readouterr().out.strip() == "0" * 40 + "1" + "0" * 4


def test_word_depth_limit(z2_file, adding_file, capsys):
    # both commands take time linear in --depth: refused before any work
    for argv in (
        ["act", "-g", z2_file, "lambda(0,g)", "--point", "(0)"],
        ["splinter-check", "-g", z2_file, "--pairs", "1", "--points", "1"],
    ):
        start = time.perf_counter()
        assert main(argv + ["--depth", str(10**8)]) == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "MAX_WORD_DEPTH" in err
    argv = ["act", "-g", adding_file, "lambda(eps,t)", "--point", "(0)"]
    assert main(argv + ["--depth", str(MAX_WORD_DEPTH)]) == 0
    assert capsys.readouterr().out.strip() == "1" + "0" * (MAX_WORD_DEPTH - 1)


def test_homology_refuses_oversized_boundaries(tmp_path, capsys, monkeypatch):
    # the maximal faces of M_12 are its 10,395 perfect matchings
    edges = list(itertools.combinations(range(12), 2))
    index = {e: i for i, e in enumerate(edges)}

    def perfect(free):
        if not free:
            yield ()
            return
        a = free[0]
        for i in range(1, len(free)):
            for rest in perfect(free[1:i] + free[i + 1:]):
                yield (index[a, free[i]],) + rest

    path = tmp_path / "m12.json"
    maximal = [list(m) for m in perfect(tuple(range(12)))]
    path.write_text(json.dumps({"vertices": [str(e) for e in edges], "maximal": maximal}))

    def no_matrix(self, k):
        raise AssertionError("a boundary matrix was built")

    monkeypatch.setattr(complexes.SimplicialComplex, "boundary_matrix", no_matrix)
    assert main(["homology", str(path), "--up-to", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: d_3 would have 720,373,500 dense cells")


def test_matching_ten_round_trip(tmp_path, capsys):
    out = tmp_path / "m10.json"
    assert main(["complex", "matching", "-n", "10", "-o", str(out)]) == 0
    assert "f = [45, 630, 3150, 4725, 945]" in capsys.readouterr().out
    assert main(["--json", "homology", str(out), "--up-to", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == [
        {"dim": 0, "betti": 0, "torsion": []},
        {"dim": 1, "betti": 0, "torsion": []},
    ]


@pytest.mark.parametrize(
    "vertices, simplex",
    [(["a"], [0, 5]), (["a", "b"], [0, -1]), (["a", "b"], [0, 1.5])],
    ids=["too-large", "negative", "float"],
)
def test_complex_file_bad_vertex_index(tmp_path, capsys, vertices, simplex):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": vertices, "maximal": [simplex]}))
    assert main(["homology", str(path), "--up-to", "1"]) == 2
    assert "is not a vertex index" in capsys.readouterr().err


def test_complex_dlink(tmp_path, z2_file, capsys):
    out = tmp_path / "link.json"
    assert main(["complex", "dlink", "-n", "3", "-g", z2_file, "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 12  # |G| * n * (n-1)


def test_injectivize_command(tmp_path, capsys):
    path = tmp_path / "vanish.json"
    path.write_text(
        json.dumps({"group": {"kind": "cyclic", "n": 2}, "recursion": {"rule": "vanishing"}})
    )
    assert main(["--json", "injectivize", "-g", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["steps"] == 1 and data["order"] == 1


def _group_file(path, group, recursion) -> str:
    path.write_text(json.dumps({"group": group, "recursion": recursion}))
    return str(path)


@pytest.mark.parametrize(
    "group, recursion, order",
    [
        ({"kind": "cyclic", "n": 2}, {"rule": "vanishing"}, 1),
        # (a, b) -> ((a, 0), (a, 0), swap when a = 1) on Z/2 x Z/2: the
        # quotient is Z/2 with a swapping table
        (
            {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}] * 2},
            {
                "rule": "custom",
                "table": [
                    [f"{a}&{b}", f"{a}&0", f"{a}&0", a] for a in (0, 1) for b in (0, 1)
                ],
            },
            2,
        ),
        (
            {"kind": "symmetric", "m": 3},
            {"rule": "vanishing"},
            1,
        ),
    ],
    ids=["z2-vanishing", "z2xz2-custom", "s3-vanishing"],
)
def test_injectivize_output_loads_as_a_group_file(tmp_path, capsys, group, recursion, order):
    source = _group_file(tmp_path / "source.json", group, recursion)
    assert main(["--json", "injectivize", "-g", source]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == order
    quotient = _group_file(tmp_path / "quotient.json", data["group"], data["recursion"])
    assert main(["is-id", "-g", quotient, "id"]) == 0
    if order == 2:
        assert main(["is-id", "-g", quotient, "iota(1)"]) == 1
        assert main(["eq", "-g", quotient, "iota(1) * iota(1)", "id"]) == 0
        # the quotient label swaps the children it splits into
        assert main(["eq", "-g", quotient, "[eps|1|eps]", "[0|1|1; 1|1|0]"]) == 0


@pytest.mark.parametrize(
    "kappa",
    [
        [[0, 0], [1, 1], [2, 0]],  # not a homomorphism from Z/3
        [[0, 1], [1, 0], [2, 1]],  # the identity sent to 1
        [[0, 0], [1, 0]],  # no value at 2
    ],
    ids=["non-homomorphism", "identity-to-1", "missing-element"],
)
def test_invalid_kappa_map_is_usage_error(tmp_path, capsys, kappa):
    path = _group_file(
        tmp_path / "kappa.json", {"kind": "cyclic", "n": 3}, {"rule": "kappa", "kappa": kappa}
    )
    assert main(["is-id", "-g", path, "id"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "kappa" in err


def test_germ_answers_are_exact_on_finite_groups_at_any_budget(tmp_path, capsys):
    path = _group_file(tmp_path / "z2.json", {"kind": "cyclic", "n": 2}, {"rule": "diagonal"})
    for budget in ("0", "5"):
        argv = ["germ", "-g", path, "--compare", "lambda(00,1)", "lambda(01,1)"]
        assert main(argv + ["--budget", budget]) == 0
        assert capsys.readouterr().out.strip() == "Distinct(3)"
        argv = ["germ", "-g", path, "--perp", "iota(1)", "[0|0|1;1|0|0]"]
        assert main(argv + ["--budget", budget]) == 0
        assert capsys.readouterr().out.strip() == "True(1)"


def test_label_refuses_words_that_are_not_binary(tmp_path, capsys):
    path = _group_file(tmp_path / "z2.json", {"kind": "cyclic", "n": 2}, {"rule": "diagonal"})
    for word in ("2", "a0", "0a"):
        start = time.perf_counter()
        assert main(["label", "-g", path, "iota(1)", "--at", word]) == 2
        assert time.perf_counter() - start < 1
        assert "not a binary word" in capsys.readouterr().err
    assert main(["label", "-g", path, "iota(1)", "--at", "00"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["label", "-g", path, "iota(1)", "--at", "eps"]) == 1


def test_splinter_check_command(z2_file, capsys):
    assert (
        main(
            [
                "splinter-check", "-g", z2_file,
                "--pairs", "5", "--points", "10", "--elements", "10",
            ]
        )
        == 0
    )


def test_splinter_check_work_limit(tmp_path, capsys):
    # refused from the arguments alone, before the group file is read
    missing = str(tmp_path / "missing.json")
    start = time.perf_counter()
    assert main(["splinter-check", "-g", missing, "--points", "1000000000"]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "MAX_SPLINTER_WORK" in err
    # the default pairs and points still fit at the largest admitted depth
    args = build_parser().parse_args(["splinter-check", "-g", missing])
    assert args.pairs * args.points * MAX_WORD_DEPTH <= MAX_SPLINTER_WORK
    assert main(["splinter-check", "-g", missing, "--pairs", "0", "--points", "0"]) == 2
    assert "MAX_SPLINTER_WORK" not in capsys.readouterr().err


def test_splinter_check_element_limit(tmp_path, capsys):
    # refused from the arguments alone, before the group file is read
    missing = str(tmp_path / "missing.json")
    start = time.perf_counter()
    assert main(["splinter-check", "-g", missing, "--elements", "1000000000"]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "MAX_SPLINTER_ELEMENTS" in err
    limit = str(MAX_SPLINTER_ELEMENTS)
    assert main(["splinter-check", "-g", missing, "--elements", limit]) == 2
    assert "MAX_SPLINTER_ELEMENTS" not in capsys.readouterr().err


def test_usage_error_exit_code(z2_file):
    assert main(["act", "-g", z2_file, "iota(g", "--point", "(0)"]) == 2
    assert main(["mul", "-g", "/nonexistent.json", "id", "id"]) == 2


def test_unclosed_file_atom_is_usage_error(z2_file, capsys):
    expr = "file(x.json"
    assert main(["reduce", "-g", z2_file, expr]) == 2
    assert f"error: expected ')' (at position {len(expr)})" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["act", "-g", "{g}", "id", "--point", "(0)", "--depth", "-3"],
        ["lsupp", "-g", "{g}", "id", "--depth", "-1"],
        ["germ", "-g", "{g}", "--compare", "id", "id", "--budget", "-1"],
        ["complex", "matching", "-n", "-2"],
        ["splinter-check", "-g", "{g}", "--points", "-5"],
    ],
    ids=["depth", "lsupp-depth", "budget", "n", "points"],
)
def test_negative_count_is_usage_error(z2_file, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(g=z2_file) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be non-negative" in captured.err


def test_internal_error_exit_code(z2_file, capsys, monkeypatch):
    def broken(x):
        raise AssertionError("Euler characteristic mismatch")

    monkeypatch.setattr(perfection, "decompose", broken)
    assert main(["decompose", "-g", z2_file, "iota(g)"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: Euler characteristic mismatch\n"
    assert "Traceback" not in captured.out + captured.err


def test_non_associative_table_is_usage_error(tmp_path, capsys):
    path = tmp_path / "loop5.json"
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    path.write_text(
        json.dumps({"group": {"kind": "finite", "table": loop}, "recursion": {"rule": "diagonal"}})
    )
    a = "lambda(0,1) * (lambda(0,1) * lambda(0,2))"
    b = "(lambda(0,1) * lambda(0,1)) * lambda(0,2)"
    assert main(["eq", "-g", str(path), a, b]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Cayley table is not associative\n"


def test_group_file_missing_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"group": {"kind": "finite"}, "recursion": {"rule": "diagonal"}}))
    assert main(["is-id", "-g", str(path), "id"]) == 2
    assert "KeyError('table')" in capsys.readouterr().err


def test_complex_file_missing_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": [0, 1]}))
    assert main(["homology", str(path), "--up-to", "0"]) == 2
    assert "KeyError('maximal')" in capsys.readouterr().err


def test_element_file_missing_field(tmp_path, z2_file, capsys):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"kind": "tree"}))
    assert main(["reduce", "-g", z2_file, f"file({path})"]) == 2
    assert "KeyError('columns')" in capsys.readouterr().err
