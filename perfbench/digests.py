"""Result digests that check random_mix answers.

random_mix answers have no closed form, so the answers of the default
seed's first CHECKED_ITEMS items were recorded once, from the evaluator
as it stood when the benchmark was defined, as one short digest per op
in random_mix_digests.txt. Other seeds and later items are reported as
unchecked. To record again after a deliberate change of semantics:

    python3 perfbench/digests.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path

PATH = Path(__file__).with_name("random_mix_digests.txt")
DEFAULT_SEED = 0
CHECKED_ITEMS = 1200


def digest(rows: frozenset) -> str:
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()[:8]


def load() -> dict[tuple[int, str], str]:
    """(item index, semantics) -> digest."""
    out = {}
    for line in PATH.read_text().splitlines():
        if line and not line.startswith("#"):
            index, *per_semantics = line.split()
            for semantics, d in zip(("s1", "s2", "s3"), per_semantics):
                out[int(index), semantics] = d
    return out


def main() -> None:
    import run

    pkg = run.load_program()
    mix = run.RandomMix(pkg, DEFAULT_SEED, checked=False)
    lines = [f"# random_mix, seed {DEFAULT_SEED}: item index, then the digest of its S1, S2 and S3 answers"]
    ops = mix.setup(mix.inputs_for(0, CHECKED_ITEMS))
    for index in range(CHECKED_ITEMS):
        triple = ops[3 * index: 3 * index + 3]
        lines.append(" ".join([str(index)] + [digest(run.to_rows(run.evaluate(pkg, op))) for op in triple]))
    PATH.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
