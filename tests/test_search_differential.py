"""The search against its pair-layered reference.

In shortest mode `reasoner.expand` keeps each scene in the first layer that
reaches it; ``tests/reference_search.py`` keeps every (scene, depth) pair.
Both must give the same texts, in both modes, and in shortest mode
``stats.nodes`` must be the number of distinct scenes over the reference's
layers (in exact mode, the number of its pairs).  They are compared on:

* the five ``tests/data`` request fixtures, as they are;
* the ``tests/test_successors.py`` families in shortest mode, each with a
  goal of every atom kind, and a negated one, that a scene a few steps from
  the initial scene satisfies and the initial scene does not;
* networks drawn by `test_generator_soundness.requests`, in both modes,
  with drawn goals of every atom kind, negated ones included, ``#final
  any`` and ``#final stable``, and the draw's ``#freeze``.
"""

from __future__ import annotations

import dataclasses
import pathlib
from collections import Counter
from typing import Optional

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from trafficlogic.domain import LonRel, Scene
from trafficlogic.facts import ParseError
from trafficlogic.reasoner import Goal, GoalAtom, _gen_successors, expand, parse_request

from reference_search import reference_count, reference_search, reference_texts
from test_generator_soundness import requests
from test_successors import FAMILIES

DATA = pathlib.Path(__file__).parent / "data"
KINDS = ("on", "lonr", "lonpr", "lonro")
#: drawn requests with more (scene, depth) pairs or scenarios than this are
#: left out, to bound the run time
MOST = 2000


def assert_matches_reference(req, most: Optional[int] = None) -> Optional[tuple[int, int]]:
    """``expand(req)`` gives the reference's texts, nodes and pruned nodes.

    Returns (scenarios, pairs - scenes) over the reference's layers, or
    None, without expanding, when it has more than ``most`` (scene, depth)
    pairs or scenarios.
    """
    found = reference_search(req, most)
    if found is None:
        return None
    layers, live, memo = found
    count = reference_count(live, memo)
    if most is not None and count > most:
        return None
    res = expand(req)
    assert list(res.texts) == reference_texts(req, live, memo)
    pairs = sum(map(len, layers))
    scenes = len(set().union(*layers))
    nodes = scenes if req.mode == "shortest" else pairs
    assert (res.stats.nodes, res.stats.pruned) == (nodes, nodes - sum(map(len, live)))
    return count, pairs - scenes


def atoms_of(scene: Scene, kind: str) -> list[GoalAtom]:
    """The positive goal atoms of one kind that hold in ``scene``, sorted."""
    if kind == "on":
        return [GoalAtom("on", (c, l), None) for c in sorted(scene.occ) for l in sorted(scene.occ[c])]
    rels = {"lonr": scene.vrel, "lonpr": scene.prel, "lonro": scene.orel}[kind]
    return [GoalAtom(kind, args, v) for args, v in sorted(rels.items())]


def reachable(req, depth: int) -> list[list[Scene]]:
    """The scenes first reached in d steps, for d up to ``depth``, under the request's freeze."""
    seen = {req.initial}
    layers = [[req.initial]]
    interned: dict = {}
    while len(layers) <= depth and layers[-1]:
        step = (_gen_successors(s, req.network, req.frozen, {}, interned) for s in layers[-1])
        layers.append([t for t in dict.fromkeys(t for succ in step for t in succ) if t not in seen])
        seen.update(layers[-1])
    return [layer for layer in layers if layer]


def family_goals(req, depth: int) -> dict[str, Goal]:
    """Per atom kind, and ``not``, a one-atom goal that the last scene found within ``depth`` steps meets."""
    initial, target = req.initial, reachable(req, depth)[-1][-1]
    goals = {}
    for kind in KINDS:
        new = [a for a in atoms_of(target, kind) if not a.holds(initial)]
        if new:
            goals[kind] = Goal((new[0],))
    gone = [a for kind in KINDS for a in atoms_of(initial, kind) if not a.holds(target)]
    if gone:
        goals["not"] = Goal((dataclasses.replace(gone[0], negated=True),))
    return goals


@pytest.mark.parametrize("path", sorted(DATA.glob("*.req")), ids=lambda p: p.stem)
def test_fixtures_match_reference_search(path):
    count, _ = assert_matches_reference(parse_request(path.read_text()))
    assert count


@pytest.mark.parametrize("family", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_families_in_shortest_mode_match_reference_search(family):
    _, text, bound = family
    req = parse_request(text)
    depth = 2 if bound is None else max(bound, 1)
    goals = family_goals(req, depth)
    assert goals
    for goal in goals.values():
        assert_matches_reference(dataclasses.replace(req, mode="shortest", goal=goal, horizon=depth + 3))


def test_drawn_requests_match_reference_search():
    seen: Counter = Counter()

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(requests(), st.data())
    def run(case, data):
        text, _ = case
        try:
            req = parse_request(text)
        except ParseError:
            reject()
        mode = data.draw(st.sampled_from(("shortest", "shortest", "exact")))
        atoms = []
        for _ in range(data.draw(st.integers(1 if mode == "shortest" else 0, 2))):
            # the end of a drawn walk of two or three steps
            target = req.initial
            for _ in range(data.draw(st.integers(2, 3))):
                step = _gen_successors(target, req.network, req.frozen, {})
                target = data.draw(st.sampled_from(step)) if step else target
            kind = data.draw(st.sampled_from(KINDS))
            options = atoms_of(target, kind)
            if not options and kind in ("lonr", "lonro"):
                # a pair the target does not relate, which a later scene may
                x, y = data.draw(st.permutations(sorted(req.vehicles)))[:2]
                options = [GoalAtom(kind, (x, y), data.draw(st.sampled_from(list(LonRel))))]
            atom = data.draw(st.sampled_from(options or atoms_of(target, "on")))
            if data.draw(st.booleans()):
                # negated, with a drawn relation: it may or may not hold in the target
                atom = dataclasses.replace(atom, negated=True)
                if atom.rel is not None:
                    atom = dataclasses.replace(atom, rel=data.draw(st.sampled_from(list(LonRel))))
            atoms.append(atom)
        req = dataclasses.replace(
            req,
            mode=mode,
            goal=Goal(tuple(atoms)) if atoms else None,
            horizon=data.draw(st.integers(2, 6 if mode == "shortest" else 3)),
            final_stable=data.draw(st.sampled_from((None, True, False))),
        )
        found = assert_matches_reference(req, MOST)
        if found is None:
            reject()
        count, revisits = found
        seen.update(("not " if a.negated else "") + a.kind for a in atoms)
        seen["examples"] += 1
        seen["scenarios"] += bool(count)
        seen["shortest revisits"] += bool(revisits and mode == "shortest")

    run()
    print(dict(seen))
    # goals of every kind, negated too, that the draws reach, and shortest
    # searches that meet scenes at two depths, which only lane changes allow
    assert all(seen[kind] and seen["not " + kind] for kind in KINDS), dict(seen)
    assert seen["scenarios"] * 2 >= seen["examples"], dict(seen)
    assert seen["shortest revisits"] >= 5, dict(seen)

