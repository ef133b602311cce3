import types

import pytest

from tracer import HOOK_SPAN, Tracer, all_restored, patched, self_time_by_name, self_times


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([["a", 10, 25, -1]]) == [15]


def test_self_time_subtracts_nested_children():
    spans = [
        ["root", 0, 100, -1],
        ["child", 10, 60, 0],
        ["grandchild", 20, 30, 1],
    ]
    assert self_times(spans) == [50, 40, 10]
    assert sum(self_times(spans)) == 100


def test_self_time_subtracts_siblings_and_merges_overlap():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 20, 0],
        ["b", 30, 50, 0],
        ["c", 40, 70, 0],  # overlaps b: covered time is 30..70, not 20 + 30
        ["d", 90, 130, 0],  # runs past the parent: only 90..100 counts
    ]
    assert self_times(spans)[0] == 100 - 10 - 40 - 10


def test_self_time_by_name_adds_up_to_the_root():
    spans = [
        ["bench", 0, 1000, -1],
        ["cfo.search", 100, 900, 0],
        ["cfo.accel", 200, 500, 1],
        ["cfo.accel", 600, 700, 1],
        ["objectives.eval", 700, 750, 1],
    ]
    own = self_time_by_name(spans)
    assert own == {"bench": 200, "cfo.search": 350, "cfo.accel": 400, "objectives.eval": 50}
    assert sum(own.values()) == 1000


def test_wrap_records_parent_links_and_hooks_in_their_own_span():
    tracer = Tracer()
    seen = []
    inner = tracer.wrap("inner", lambda x: x + 1, after=lambda args, result: seen.append(result))
    outer = tracer.wrap("outer", lambda x: inner(x) * 2, before=lambda args: seen.append(args))
    with tracer.span("root"):
        assert outer(3) == 8
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("root", -1), (HOOK_SPAN, 0), ("outer", 0), ("inner", 2), (HOOK_SPAN, 2)]
    assert seen == [(3,), 4]
    assert all(end >= start for _, start, end, _ in tracer.spans)
    assert sum(self_times(tracer.spans)) == tracer.spans[0][2] - tracer.spans[0][1]


def test_wrap_closes_the_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0][2] >= tracer.spans[0][1] > 0
    assert tracer._stack == []


def test_patched_restores_every_attribute_even_after_an_error():
    module = types.SimpleNamespace(f=lambda: "f", g=lambda: "g")

    class Owner:
        def method(self):
            return "method"

    originals = (module.f, module.g, Owner.method)
    targets = [(module, "f", lambda: "F"), (module, "g", lambda: "G"),
               (Owner, "method", lambda self: "METHOD")]
    with pytest.raises(KeyError):
        with patched(targets) as saved:
            assert (module.f(), module.g(), Owner().method()) == ("F", "G", "METHOD")
            assert not all_restored(saved)
            raise KeyError("inside the traced region")
    assert all_restored(saved)
    assert (module.f, module.g, Owner.method) == originals
