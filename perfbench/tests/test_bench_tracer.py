import json

import tracer as tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_nested_child_spans():
    clock = FakeClock()
    t = tracing.Tracer(clock)

    def leaf():
        clock.advance(2.0)

    def mid():
        clock.advance(1.0)
        leaf_w()
        clock.advance(1.0)

    def top():
        clock.advance(3.0)
        mid_w()
        leaf_w()
        clock.advance(1.0)

    leaf_w = t.wrap("leaf", leaf, record=False)
    mid_w = t.wrap("mid", mid)
    top_w = t.wrap("top", top)
    t.job = "job-7"
    top_w()

    # [calls, total seconds, self seconds]
    assert t.stats["top"] == [1, 10.0, 4.0]
    assert t.stats["mid"] == [1, 4.0, 2.0]
    assert t.stats["leaf"] == [2, 4.0, 4.0]
    assert t.stack == []
    # only recorded spans are kept; mid's parent is top, top has none
    top_span, mid_span = t.spans
    assert top_span == ("top", 0.0, 10.0, -1, "job-7")
    assert mid_span == ("mid", 3.0, 7.0, 0, "job-7")


def test_self_time_survives_an_exception():
    clock = FakeClock()
    t = tracing.Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    def outer():
        clock.advance(2.0)
        try:
            boom_w()
        except ValueError:
            pass

    boom_w = t.wrap("boom", boom)
    t.wrap("outer", outer)()
    assert t.stats["boom"] == [1, 1.0, 1.0]
    assert t.stats["outer"] == [1, 3.0, 2.0]


def test_install_counts_layers_and_uninstall_restores(tmp_path):
    from wigneralg import operators, scalars, single_mode

    originals = (scalars.RadicalSum.__mul__, operators.check_relation, single_mode.build_single_mode)
    t = tracing.Tracer()
    t.install()
    try:
        assert t.missing == []
        s = single_mode.build_single_mode(3)
        operators.check_relation("a @ adag = a @ adag", s.a @ s.a_dag, s.a @ s.a_dag)
    finally:
        t.uninstall()
    assert (scalars.RadicalSum.__mul__, operators.check_relation, single_mode.build_single_mode) == originals
    assert scalars.RadicalSum.__rmul__ is scalars.RadicalSum.__mul__

    m = t.metrics()
    assert m["single_mode.build_single_mode.calls"] == 1
    assert m["operators.matmul.calls"] == 2
    assert m["operators.check_relation.calls"] == 1
    assert m["operators.check_relation.fallback_calls"] == 0
    # a, adag, N, R and the two products: six 3x3 matrices
    assert m["operators.cells_allocated"] == 6 * 9
    # a and adag have two entries each, N has two (n = 1, 2), R has three;
    # a @ adag = diag([1], [2], 0) in the truncated space has two
    assert m["operators.nnz_stored"] == 2 + 2 + 2 + 3 + 2 + 2
    assert m["operators.matmul.out_nnz"] == 4
    assert m["scalars.RadicalSum.mul.calls"] > 0

    path = tmp_path / "spans.json"
    count = t.write_spans(str(path))
    data = json.loads(path.read_text())
    assert data["fields"] == ["name", "start", "end", "parent", "job"]
    assert len(data["spans"]) == count
    names = [row[0] for row in data["spans"]]
    assert names.count("operators.matmul") == 2
