"""Compositing and layout work per render.

The text backend splices each window's lines into its canvas rows, one
slice per row, clipped to the canvas; it keeps each window's drawing on
the window and reuses it while nothing drawn changed; the screen sizes
each window once per layout pass.  The properties below hold the row
compositor and the drawing memo to a per-character, memo-less reference
kept here, over random window trees and random edits to them; the
counted tests pin the work one render does.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.windowing.screen import Screen
from repro.windowing.textbackend import TextBackend, _blit
from repro.windowing.window import WindowTree
from repro.windowing.wintypes import (
    ROOT,
    WindowKind,
    at,
    below,
    button,
    panel,
    right_of,
    text_window,
)


def _reference_blit(canvas, x, y, lines):
    for row, line in enumerate(lines):
        for col, char in enumerate(line):
            if 0 <= y + row < len(canvas) and 0 <= x + col < len(canvas[0]):
                canvas[y + row][x + col] = char


class ReferenceBackend(TextBackend):
    """The text backend with a per-character copy for every window, and
    every window drawn afresh (no memo read or written)."""

    def render(self, tree: WindowTree) -> str:
        boxes = []
        max_right = max_bottom = 0
        for root in tree.draw_order():
            if not root.is_open:
                continue
            lines = self._draw_window(root)
            x, y = root.geometry.x, root.geometry.y
            boxes.append((x, y, lines))
            max_right = max(max_right, x + max(len(line) for line in lines))
            max_bottom = max(max_bottom, y + len(lines))
        canvas = [[" "] * max_right for _ in range(max_bottom)]
        for x, y, lines in boxes:
            _reference_blit(canvas, x, y, lines)
        rendered = ["".join(row).rstrip() for row in canvas]
        closed = tree.closed_roots()
        if closed:
            rendered.append("")
            rendered.append(
                "icons: " + " ".join(f"({window.name})" for window in closed))
        return "\n".join(rendered).rstrip("\n")

    def _draw_window(self, window):
        children = None
        if window.kind is WindowKind.PANEL:
            children = [(child.geometry.x, child.geometry.y,
                         self._draw_window(child))
                        for child in window.children if child.is_open]
        return self._frame(window, max(window.geometry.width, 1),
                           max(window.geometry.height, 1), children)

    def _draw_panel(self, children, width, height):
        grid = [[" "] * width for _ in range(height)]
        for x, y, lines in children:
            _reference_blit(grid, x, y, lines)
        return ["".join(row).rstrip() for row in grid]


# -- the slice copy against the reference ---------------------------------------

_lines = st.lists(st.text(alphabet="ab#.- ", max_size=12), max_size=8)


@settings(max_examples=300, deadline=None)
@given(width=st.integers(0, 14), height=st.integers(0, 10),
       x=st.integers(-16, 18), y=st.integers(-12, 14), lines=_lines)
def test_blit_matches_per_character_copy(width, height, x, y, lines):
    ours = ["~" * width for _ in range(height)]
    reference = [["~"] * width for _ in range(height)]
    _blit(ours, x, y, lines)
    _reference_blit(reference, x, y, lines)
    assert ours == ["".join(row) for row in reference]


# -- whole screens against the reference ------------------------------------------

_text = st.lists(st.text(alphabet="abc#=. ", max_size=9),
                 min_size=1, max_size=4).map("\n".join)
_size = st.integers(0, 7)
_offset = st.integers(-6, 40)


@st.composite
def _leaf(draw, offset=_offset):
    return {
        "text": draw(_text),
        "title": draw(st.sampled_from(["", "t", "a long title"])),
        "width": draw(_size),
        "height": draw(_size),
        "placement": draw(st.one_of(st.none(), st.tuples(offset, offset))),
        "scroll": draw(st.booleans()),
    }


@st.composite
def _screens(draw):
    roots = draw(st.lists(
        st.one_of(
            _leaf(),
            st.fixed_dictionaries({
                "children": st.lists(_leaf(offset=st.integers(-4, 12)),
                                     min_size=1, max_size=4),
                "width": _size,
                "height": _size,
                "placement": st.one_of(st.none(),
                                       st.tuples(_offset, _offset)),
                "title": st.sampled_from(["", "panel"]),
            }),
        ),
        min_size=1, max_size=6))
    raised = draw(st.lists(st.integers(0, len(roots) - 1), max_size=4))
    closed = draw(st.sets(st.integers(0, len(roots) - 1),
                          max_size=len(roots) - 1))
    return roots, raised, closed, draw(st.integers(20, 70))


def _leaf_spec(name, leaf, default_placement=ROOT):
    placement = leaf["placement"]
    return text_window(
        name, leaf["text"], title=leaf["title"],
        placement=at(*placement) if placement else default_placement,
        width=leaf["width"], height=leaf["height"],
        scrollable=leaf["scroll"])


def _build(roots, raised, closed, width):
    screen = Screen(TextBackend(), width=width)
    for index, root in enumerate(roots):
        name = f"w{index}"
        if "children" in root:
            children = tuple(
                _leaf_spec(f"{name}.{number}", child, at(0, 0))
                for number, child in enumerate(root["children"]))
            placement = root["placement"]
            screen.create(panel(
                name, children, title=root["title"],
                placement=at(*placement) if placement else ROOT,
                width=root["width"], height=root["height"]))
        else:
            screen.create(_leaf_spec(name, root))
    for index in raised:
        screen.raise_window(f"w{index}")
    for index in closed:
        screen.close(f"w{index}")
    return screen


@settings(max_examples=150, deadline=None)
@given(_screens())
def test_render_matches_per_character_reference(case):
    """Roots at negative and overflowing offsets, overlapping and raised,
    closed ones in the icon bar, panel children sticking out of their
    (possibly fixed-size) panel."""
    screen = _build(*case)
    rendering = screen.render()
    assert rendering == ReferenceBackend().render(screen.tree)


# -- the drawing memo against the reference, across edits ---------------------------

_EDITS = ("content", "title", "toggle", "drag", "raise", "scroll",
          "destroy", "create")


def _edit(screen, data, serial):
    """Apply one random edit a session can make between two renders."""
    names = screen.tree.names()
    roots = [window.name for window in screen.tree.roots()]
    edit = data.draw(st.sampled_from(_EDITS), label="edit")
    if edit == "content":
        leaves = [name for name in names
                  if screen.get(name).kind is not WindowKind.PANEL]
        if leaves:
            name = data.draw(st.sampled_from(leaves), label="leaf")
            screen.set_content(name, data.draw(_text, label="text"))
    elif edit == "title":
        window = screen.get(data.draw(st.sampled_from(names), label="win"))
        window.spec = replace(window.spec, title=data.draw(
            st.sampled_from(["", "t", "u", "a long title"]), label="title"))
    elif edit == "toggle":
        window = screen.get(data.draw(st.sampled_from(names), label="win"))
        window.is_open = not window.is_open
    elif edit == "drag":
        screen.drag(data.draw(st.sampled_from(roots), label="root"),
                    data.draw(_offset, label="x"), data.draw(_offset, label="y"))
    elif edit == "raise":
        screen.raise_window(data.draw(st.sampled_from(roots), label="root"))
    elif edit == "scroll":
        scrollable = [name for name in names
                      if screen.get(name).kind is WindowKind.SCROLL_TEXT]
        if scrollable:
            screen.scroll(data.draw(st.sampled_from(scrollable), label="win"),
                          data.draw(st.integers(-3, 3), label="delta"))
    elif edit == "destroy":
        name = data.draw(st.sampled_from(names), label="win")
        if name not in roots or len(roots) > 1:   # keep a root to drag
            screen.destroy(name)
    else:
        panels = [name for name in names
                  if screen.get(name).kind is WindowKind.PANEL]
        parent = data.draw(st.sampled_from([None] + panels), label="parent")
        leaf = data.draw(_leaf(), label="leaf")
        screen.create(_leaf_spec(f"new{serial}", leaf, at(0, 0)),
                      parent=parent)


@settings(max_examples=150, deadline=None)
@given(_screens(), st.data())
def test_cached_render_matches_fresh_render_across_edits(case, data):
    """One backend renders the same screen through a run of edits; after
    each, its output (drawings reused from earlier renders wherever their
    key holds) equals a fresh, memo-less render of the same tree."""
    screen = _build(*case)
    assert screen.render() == ReferenceBackend().render(screen.tree)
    for serial in range(data.draw(st.integers(1, 12), label="edits")):
        _edit(screen, data, serial)
        assert screen.render() == ReferenceBackend().render(screen.tree)


def _count_frames(monkeypatch):
    framed = Counter()
    frame = TextBackend._frame

    def counting(self, window, *args):
        framed[window.name] += 1
        return frame(self, window, *args)

    monkeypatch.setattr(TextBackend, "_frame", counting)
    return framed


def test_an_edit_redraws_only_its_window_and_ancestors(monkeypatch):
    screen = Screen(TextBackend(), width=80)
    screen.create(panel("p", (
        text_window("p.a", "alpha", placement=at(0, 0)),
        panel("p.q", (
            text_window("p.q.b", "beta", placement=at(0, 0)),
        ), placement=below("p.a")),
    )))
    screen.create(text_window("other", "other"))
    first = screen.render()
    framed = _count_frames(monkeypatch)
    assert screen.render() == first
    assert not framed
    screen.set_content("p.q.b", "gamma")
    screen.render()
    assert framed == Counter({"p.q.b": 1, "p.q": 1, "p": 1})


# -- counted: one sizing per window per render ---------------------------------------


def _count_sizings(monkeypatch):
    sized = Counter()
    natural_size = Screen.natural_size

    def counting(self, window):
        sized[window.name] += 1
        return natural_size(self, window)

    monkeypatch.setattr(Screen, "natural_size", counting)
    return sized


def _visible(screen):
    def shown(window):
        while window is not None:
            if not window.is_open:
                return False
            window = window.parent
        return True

    return {window.name for window in screen.tree.all_windows()
            if shown(window)}


def test_render_sizes_each_open_window_once(monkeypatch):
    """Nested panels, anchored siblings and a closed branch: every open
    window is sized exactly once, and nothing closed is sized."""
    screen = Screen(TextBackend(), width=80)
    screen.create(panel("outer", (
        text_window("outer.head", "head", placement=at(0, 0)),
        panel("outer.inner", (
            button("outer.inner.a", "a", "a", placement=at(0, 0)),
            button("outer.inner.b", "b", "b",
                   placement=right_of("outer.inner.a")),
            panel("outer.inner.deep", (
                text_window("outer.inner.deep.x", "x", placement=at(0, 0)),
            ), placement=below("outer.inner.a")),
        ), placement=below("outer.head")),
        text_window("outer.tail", "tail", placement=right_of("outer.inner")),
    )))
    screen.create(panel("shut", (
        text_window("shut.t", "hidden", placement=at(0, 0)),
    )))
    screen.create(text_window("last", "last"))
    screen.close("shut")
    sized = _count_sizings(monkeypatch)
    screen.render()
    assert set(sized) == _visible(screen)
    assert set(sized.values()) == {1}


def test_paper_session_render_sizes_each_open_window_once(tmp_path,
                                                          monkeypatch):
    """The browse click's screen: an object set with its text and picture
    displays and the dept -> mgr chain open."""
    from repro.core.session import UserSession
    from repro.data.labdb import make_lab_database

    make_lab_database(tmp_path).close()
    session = UserSession(tmp_path, screen_width=220)
    try:
        session.click_database_icon("lab")
        browser = session.app.session("lab").open_object_set("employee")
        session.click_control(browser, "next")
        session.click_format_button(browser, "text")
        session.click_format_button(browser, "picture")
        dept = session.click_reference_button(browser, "dept")
        session.click_format_button(dept, "text")
        mgr = session.click_reference_button(dept, "mgr")
        session.click_format_button(mgr, "text")
        screen = session.app.screen
        sized = _count_sizings(monkeypatch)
        session.app.render()
        assert set(sized) == _visible(screen)
        assert len(sized) > 30 and set(sized.values()) == {1}
    finally:
        session.shutdown()


def test_fixed_size_panel_still_lays_out_its_children():
    """A panel with both width and height set is never measured from its
    children, so its group must still be solved on the way down."""
    screen = Screen(TextBackend(), width=80)
    screen.create(panel("p", (
        text_window("p.a", "alpha", placement=at(1, 0)),
        text_window("p.b", "beta", placement=below("p.a")),
    ), width=12, height=8))
    rendering = screen.render()
    a, b = screen.get("p.a").geometry, screen.get("p.b").geometry
    assert (a.x, a.y, a.width, a.height) == (1, 0, 5, 1)
    assert (b.x, b.y, b.width, b.height) == (1, 3, 4, 1)
    assert "|alpha|" in rendering and "|beta|" in rendering
