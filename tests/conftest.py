"""Shared test input: a small generated result file with seeded rule breaks."""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

import pytest

from trafficlogic import facts
from trafficlogic.reasoner import expand, parse_request

#: 2 vehicles on a 2-lane road, exact mode, horizon 4: 180 scenarios
#: through 20 distinct scenes.
DENSE_NETWORK = "lane(l1, ra).\nlane(l2, ra).\nleft(l1, l2).\nvehicle(c1).\nvehicle(c2).\n"
DENSE_REQUEST = (
    "lane(l1, ra).\nlane(l2, ra).\nleft(l1, l2).\n"
    "#init\non(c1, l1).\non(c2, l2).\nlonr(c1, c2, behind).\n#horizon 4\n#mode exact\n"
)
#: scenario -> the step whose ``lonr(c1,c2,_)`` value changes, which breaks PR1
#: against the unchanged mirror atom
MUTATED = {2: 2, 50: 3, 97: 4, 150: 1, 7: 1}
#: this scenario's step 3 becomes a copy of its broken step 1
REPEATED = 7
_NEXT_VALUE = {"ahead": "cover", "cover": "behind", "behind": "ahead"}


@dataclass(frozen=True)
class DenseResult:
    path: pathlib.Path
    network: pathlib.Path
    broken: frozenset[int]
    repeated: int

    def parse(self) -> list:
        net, declared = facts.parse_network(self.network.read_text())
        return facts.parse_scenarios(self.path.read_text(), net, declared)


def _break_step(section: str, step: int) -> list[str]:
    """The section's ``#step`` blocks, with one ``lonr(c1,c2,_)`` value changed in ``step``."""
    blocks = section.split("#step ")
    lines = blocks[step].split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith("lonr(c1,c2,"))
    lines[i] = f"lonr(c1,c2,{_NEXT_VALUE[lines[i][len('lonr(c1,c2,'):-2]]})."
    blocks[step] = "\n".join(lines)
    return blocks


@pytest.fixture
def dense_result(tmp_path) -> DenseResult:
    """The dense result file and its network, with the scenarios in ``MUTATED`` broken."""
    result = expand(parse_request(DENSE_REQUEST))
    sections = facts.render_result(texts=result.texts).split("#scenario ")
    for i, step in MUTATED.items():
        blocks = _break_step(sections[i], step)
        if i == REPEATED:
            blocks[3] = blocks[1].replace("1\n", "3\n", 1)
        sections[i] = "#step ".join(blocks)
    path = tmp_path / "dense.result"
    path.write_text("#scenario ".join(sections))
    network = tmp_path / "dense.net"
    network.write_text(DENSE_NETWORK)
    return DenseResult(path, network, frozenset(MUTATED), REPEATED)
