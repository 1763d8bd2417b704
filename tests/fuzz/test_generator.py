"""Generator properties: determinism, coverage, introspection."""

from repro.fuzz import build_kernel, case_stmt_count, describe_case, generate_case, run_case
from repro.fuzz.generator import (
    ALIAS_SEED_BASE,
    ALIAS_STMT_KINDS,
    STMT_KINDS,
    TILE_SEED_BASE,
    case_kind_counts,
    make_device,
)
from repro.simt import classify_kernel, disassemble


def test_same_seed_same_case():
    a = generate_case(1234)
    b = generate_case(1234)
    assert a == b
    assert disassemble(build_kernel(a)) == disassemble(build_kernel(b))


def test_different_seeds_differ():
    assert generate_case(1) != generate_case(2)


def test_device_init_is_deterministic():
    case = generate_case(7)
    d1, b1 = make_device(case)
    d2, b2 = make_device(case)
    assert sorted(b1) == sorted(b2)
    for name in b1:
        assert d1.download(b1[name]).tobytes() == d2.download(b2[name]).tobytes()


def test_generator_covers_the_ir_surface():
    # Over a modest seed range every statement kind must appear, nesting
    # must reach depth 2, and both semantic classes must be exercised.
    seen = set()
    depths = set()
    tags = set()

    def walk(stmts, depth):
        depths.add(depth)
        for s in stmts:
            seen.add(s["k"])
            if s["k"] == "if":
                walk(s["then"], depth + 1)
                walk(s["else"], depth + 1)
            elif s["k"] == "while":
                walk(s["body"], depth + 1)

    for i in range(120):
        seed = (11 << 20) + i
        assert seed >= ALIAS_SEED_BASE  # this stream draws the extended grammar
        case = generate_case(seed)
        walk(case["stmts"], 0)
        tags.add(classify_kernel(build_kernel(case)).tag)

    # The "cast" grammar entry emits concrete "i2f"/"f2i" statements; seeds
    # in the aliasing band add the "oload"/"bandstore" planner-stress kinds.
    kinds = {k for k, _ in ALIAS_STMT_KINDS} - {"cast"} | {"i2f", "f2i"}
    assert seen == kinds, f"kinds never generated: {kinds - seen}"
    assert 2 in depths, "control flow never nested two levels deep"
    assert tags == {"lane-disjoint", "communicating"}

    # Below the band the original grammar is untouched — corpus seeds and
    # historical campaigns replay bit-identically.
    old = set()
    for i in range(60):
        walk_target = generate_case(1000 + i)["stmts"]

        def collect(stmts):
            for s in stmts:
                old.add(s["k"])
                if s["k"] == "if":
                    collect(s["then"])
                    collect(s["else"])
                elif s["k"] == "while":
                    collect(s["body"])

        collect(walk_target)
    assert old <= {k for k, _ in STMT_KINDS} - {"cast"} | {"i2f", "f2i"}


def test_tile_band_adds_tilestore_and_its_buffer():
    # ``tout`` exists exactly when a case stores tiles, so cases of the
    # lower bands keep their parameter list and buffer layout.
    replayed = 0
    for i in range(40):
        case = generate_case(TILE_SEED_BASE + i)
        uses = "tilestore" in case_kind_counts(case)
        _dev, bufs = make_device(case)
        assert ("tout" in bufs) == uses
        assert ("tout" in {p.name for p in build_kernel(case).params}) == uses
        if uses and replayed < 4:
            replayed += 1
            report = run_case(case)
            assert report.ok, report.failures
    assert replayed == 4
    assert "tout" not in make_device(generate_case(ALIAS_SEED_BASE + 3))[1]


def test_case_stmt_count_counts_nested_bodies():
    case = {
        "seed": 0,
        "grid": 1,
        "block": [32, 1],
        "stmts": [
            {"k": "ret"},
            {"k": "if", "then": [{"k": "ret"}, {"k": "ret"}], "else": [], "c": None},
        ],
    }
    assert case_stmt_count(case) == 4


def test_describe_case_mentions_shape_and_kinds():
    case = generate_case(42)
    text = describe_case(case)
    assert "seed=42" in text
    assert "grid=" in text and "block=" in text
