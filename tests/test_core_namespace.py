"""The Odyssey namespace: mounts, longest-prefix routing, readdir."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.namespace import Namespace, normalize
from repro.errors import NoSuchObject, OdysseyError


class FakeWarden:
    def __init__(self, name):
        self.name = name

    def vfs_readdir(self, rest):
        return [f"{self.name}:{rest or 'root'}"]


def test_normalize():
    assert normalize("/a/b/../c") == "/a/c"
    assert normalize("/a/") == "/a"
    with pytest.raises(NoSuchObject):
        normalize("relative/path")
    with pytest.raises(NoSuchObject):
        normalize("")


def test_mount_and_resolve():
    ns = Namespace()
    video = FakeWarden("video")
    ns.mount("/odyssey/video", video)
    warden, rest = ns.resolve("/odyssey/video/movie1")
    assert warden is video
    assert rest == "movie1"
    warden, rest = ns.resolve("/odyssey/video")
    assert rest == ""


def test_longest_prefix_wins():
    ns = Namespace()
    outer, inner = FakeWarden("outer"), FakeWarden("inner")
    ns.mount("/odyssey/data", outer)
    ns.mount("/odyssey/data/special", inner)
    assert ns.resolve("/odyssey/data/x")[0] is outer
    assert ns.resolve("/odyssey/data/special/x")[0] is inner


def test_prefix_match_respects_component_boundaries():
    ns = Namespace()
    ns.mount("/odyssey/web", FakeWarden("web"))
    with pytest.raises(NoSuchObject):
        ns.resolve("/odyssey/webby/object")


def test_mount_outside_root_rejected():
    ns = Namespace()
    with pytest.raises(OdysseyError):
        ns.mount("/usr/local", FakeWarden("w"))


def test_double_mount_rejected():
    ns = Namespace()
    ns.mount("/odyssey/a", FakeWarden("a"))
    with pytest.raises(OdysseyError):
        ns.mount("/odyssey/a", FakeWarden("b"))


def test_unmount():
    ns = Namespace()
    ns.mount("/odyssey/a", FakeWarden("a"))
    ns.unmount("/odyssey/a")
    with pytest.raises(NoSuchObject):
        ns.resolve("/odyssey/a/x")
    with pytest.raises(OdysseyError):
        ns.unmount("/odyssey/a")


def test_unclaimed_path_raises():
    ns = Namespace()
    with pytest.raises(NoSuchObject):
        ns.resolve("/odyssey/nothing")


def test_readdir_root_lists_mounts():
    ns = Namespace()
    ns.mount("/odyssey/video", FakeWarden("v"))
    ns.mount("/odyssey/web", FakeWarden("w"))
    assert ns.readdir("/odyssey") == ["video", "web"]


def test_readdir_delegates_to_warden():
    ns = Namespace()
    ns.mount("/odyssey/video", FakeWarden("video"))
    assert ns.readdir("/odyssey/video/dir") == ["video:dir"]


def test_is_odyssey_path():
    ns = Namespace()
    assert ns.is_odyssey_path("/odyssey/anything")
    assert ns.is_odyssey_path("/odyssey")
    assert not ns.is_odyssey_path("/etc/passwd")


def test_mount_resolve_property():
    """Any mounted prefix resolves its own subtree to itself."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    name_strategy = st.text(
        alphabet="abcdefgh", min_size=1, max_size=6
    )

    @settings(max_examples=50, deadline=None)
    @given(names=st.lists(name_strategy, min_size=1, max_size=6,
                          unique=True),
           child=name_strategy)
    def check(names, child):
        ns = Namespace()
        wardens = {}
        for name in names:
            warden = FakeWarden(name)
            ns.mount(f"/odyssey/{name}", warden)
            wardens[name] = warden
        for name in names:
            resolved, rest = ns.resolve(f"/odyssey/{name}/{child}")
            assert resolved is wardens[name]
            assert rest == child
        assert ns.readdir("/odyssey") == sorted(names)

    check()


def linear_resolve(mounts, path):
    """The reference: scan every mount for the longest matching prefix."""
    path = normalize(path)
    best = None
    for prefix in mounts:
        if path == prefix or path.startswith(prefix + "/"):
            if best is None or len(prefix) > len(best):
                best = prefix
    return best, (None if best is None else path[len(best):].lstrip("/"))


# Few component names, so generated mounts nest (``/r/a`` under ``/r``),
# sit side by side (``/r/a`` next to ``/r/ab``) and paths hit them.
components = st.lists(st.sampled_from(["a", "ab", "b", "a.b", ".."]),
                      max_size=4)


@settings(max_examples=300, deadline=None)
@given(root=st.sampled_from(["/", "/r", "/r/s"]),
       mounts=st.lists(components, max_size=6),
       probes=st.lists(st.tuples(components,
                                 st.sampled_from(["", "/", "//"])),
                       min_size=1, max_size=8))
def test_resolve_is_the_longest_prefix_match(root, mounts, probes):
    ns = Namespace(root)
    for parts in mounts:
        prefix = normalize("/".join([root, *parts]))
        try:
            ns.mount(prefix, FakeWarden(prefix))
        except OdysseyError:
            continue  # outside the root, or already mounted
    for parts, lead in probes:
        path = lead + "/".join([root.lstrip("/"), *parts])
        path = path if path.startswith("/") else "/" + path
        expected, rest = linear_resolve(ns.mounts, path)
        if expected is None:
            with pytest.raises(NoSuchObject):
                ns.resolve(path)
        else:
            warden, got_rest = ns.resolve(path)
            assert (warden.name, got_rest) == (expected, rest)
    for prefix in ns.mounts:  # each mount point resolves to itself
        warden, rest = ns.resolve(prefix)
        assert (warden.name, rest) == (prefix, "")
