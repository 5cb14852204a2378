"""The four benchmark workloads: inputs, operations and output checks.

Every workload is a closed loop on one thread: each operation is issued
after the previous one returns.  A workload is run in blocks; a block is a
fixed sequence of operations over the inputs made by `setup`, and the
timed phase runs whole blocks so that every run measures the same mix.

Library functions are looked up on the `localsim` modules at call time
(`lib.compose`, never a name bound once), so the traced run sees every
call through the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shlex
import statistics
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from pace import Pace

HERE = Path(__file__).resolve().parent

# per-alphabet depth caps for random elements, as in the acceptance suite
DEPTH = {2: 5, 3: 3}

# Leaf-count bands, by alphabet size, that random elements are drawn into
# in equal numbers.  Unconditioned, about half the draws are one-row
# elements and the rest spread thinly up to 25 rows, so the mix of cheap
# and costly operations, and with it every latency percentile, would move
# with the seed; fixed quotas per band keep the mix the same for every seed.
# The top band stops short of the rare largest draws, whose count would
# otherwise set p99; the combs cover growth in the leaf count.
SIZE_BANDS = {2: ((2, 4), (5, 8), (9, 12), (13, 16)), 3: ((3, 7), (9, 13), (15, 19), (21, 23))}

# leaf counts of the rotated combs (zipper) and the identity combs (algebra)
ZIPPER_COMBS = (16, 32, 64, 128)
ALGEBRA_COMBS = (125, 250, 500, 1000)


# what Recorder.call returns for an operation that raised
FAILED = object()


class Recorder:
    """Counts operations and failures and keeps one latency sample per op
    (per block for the audit), the operation count, seconds and pace of
    every block, and the reference samples taken meanwhile."""

    def __init__(self):
        self.latencies = array("d")
        # per latency sample, the indices of the first reference sample taken
        # during it and of the first one taken after it
        self.sample_marks = array("l")
        self.attempted = 0
        self.failed = 0
        self.blocks: list[tuple[int, float, float]] = []
        self.pace = Pace()
        self.tracer = None

    def call(self, fn, *args):
        """Run one timed operation; a raised exception counts as a failure."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        clock = self.pace.clock
        first, t0 = len(self.pace.samples), clock()
        try:
            out = fn(*args)
        except Exception:
            out = FAILED
            self.failed += 1
        self.add_latency(clock() - t0, first)
        return out

    def add_latency(self, seconds: float, first: int) -> None:
        """Keep a latency that began when `first` reference samples had been taken."""
        self.latencies.append(seconds)
        self.sample_marks.extend((first, len(self.pace.samples)))

    def expect(self, out, ok) -> None:
        """Count a failed check on an operation that returned."""
        if out is not FAILED and not ok:
            self.failed += 1


def comb_literal(n: int, shift: int) -> str:
    """The comb on n leaves (1^i 0 for i < n-1, then 1^(n-1)), each source
    sent to the comb word `shift` places on."""
    words = ["1" * i + "0" for i in range(n - 1)] + ["1" * (n - 1)]
    targets = words[shift:] + words[:shift]
    return ";".join(f"{s}->{t}" for s, t in zip(words, targets))


def structures(lib) -> list:
    return [lib.trivial_group(2), lib.symmetric_group(2), lib.trivial_group(3), lib.symmetric_group(3)]


def banded_elements(lib, group, rng, count: int) -> list:
    """`count` seeded random elements, an equal share from each leaf-count band."""
    d = group.alphabet.size
    bands = SIZE_BANDS[d]
    want = [count // len(bands) + (i < count % len(bands)) for i in range(len(bands))]
    out = []
    while any(want):
        g = lib.random_element(group, rng, max_depth=DEPTH[d])
        for i, (lo, hi) in enumerate(bands):
            if want[i] and lo <= len(g.rows) <= hi:
                want[i] -= 1
                out.append(g)
    rng.shuffle(out)
    return out


def slope(sizes, seconds) -> float:
    """Least-squares slope of log time against log size."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


@dataclass
class State:
    """Inputs of one workload run, plus what its blocks record."""

    lib: object
    inputs: dict
    comb_times: dict = field(default_factory=dict)
    audit_new: int = 0

    def comb_summary(self) -> dict:
        """Median seconds per comb size and the fitted log-log slope."""
        if not self.comb_times:
            return {}
        sizes = sorted(self.comb_times)
        med = [statistics.median(self.comb_times[n]) for n in sizes]
        return {"sizes": sizes, "seconds": med, "slope": slope(sizes, med)}


# -- audit ----------------------------------------------------------------------

# per-radius (ball, within) counts and the stabilized flag, from the seed code
AUDIT_GOLDENS = {
    ("trivial", 6): ([1, 8, 42, 201, 933, 4209, 18608], [1, 6, 13, 20, 22, 22, 22], True),
    ("symmetric", 5): ([1, 9, 55, 304, 1559, 7550], [1, 7, 22, 41, 44, 44], False),
    ("trivial", 3): ([1, 8, 42, 201], [1, 6, 13, 20], False),
    ("symmetric", 2): ([1, 9, 55], [1, 7, 22], False),
}


class Audit:
    """Two Cayley-ball properness audits per block; one op per element reached.

    Stresses compose and the packed() dedup keys of a growing visited set,
    so it is the compose/reduce hot path and the memory-heavy workload; it
    never touches symdiff.
    """

    name = "audit"

    def __init__(self, radii=(6, 5), goldens=None):
        self.radii = radii
        self.goldens = AUDIT_GOLDENS if goldens is None else goldens

    def setup(self, lib, seed: int) -> State:
        rng = random.Random(f"audit:{seed}")
        gens_text = lib.cli._resolve_input("v.gens")
        runs = []
        for kind, radius in zip(("trivial", "symmetric"), self.radii):
            group = lib.trivial_group(2) if kind == "trivial" else lib.symmetric_group(2)
            gens = [g for _, g in lib.cli.parse_gens_file(gens_text, group)]
            if kind == "symmetric":
                gens.append(lib.parse_element("e->e:1", group))
            # ball sizes do not depend on the generator order; the seed picks it
            rng.shuffle(gens)
            runs.append((group, gens, radius, self.goldens[(kind, radius)]))
        rng.shuffle(runs)
        return State(lib, {"runs": runs})

    def block(self, state: State, rec: Recorder) -> None:
        lib = state.lib
        first, t0 = len(rec.pace.samples), rec.pace.clock()
        for group, gens, radius, (balls, within, stabilized) in state.inputs["runs"]:
            rec.attempted += balls[-1]
            if rec.tracer is not None:
                rec.tracer.op += 1
            try:
                report = lib.properness_audit(group, gens, radius=radius, threshold=4)
            except Exception:
                rec.failed += balls[-1]
                continue
            state.audit_new += report.rows[-1].ball_size - 1
            if (
                [r.ball_size for r in report.rows] != balls
                or [r.within_threshold for r in report.rows] != within
                or report.stabilized != stabilized
            ):
                rec.failed += balls[-1]
        rec.add_latency(rec.pace.clock() - t0, first)


# -- zipper ----------------------------------------------------------------------


class Zipper:
    """symdiff, zipper_length, cocycle defect and wall separation on random
    elements, plus symdiff on rotated combs.

    The time goes to act_on_eclass, twist minimization and gz_member; the
    comb sizes expose the superlinear growth of symdiff in the leaf count.
    """

    name = "zipper"

    def __init__(self, per_structure=64, comb_sizes=ZIPPER_COMBS):
        self.per_structure = per_structure
        self.comb_sizes = comb_sizes

    def setup(self, lib, seed: int) -> State:
        pools = []
        for group in structures(lib):
            rng = random.Random(f"zipper:{seed}:{group.name}")
            pools.append((group, banded_elements(lib, group, rng, self.per_structure)))
        t2 = lib.trivial_group(2)
        combs = [(n, lib.parse_element(comb_literal(n, 1), t2)) for n in self.comb_sizes]
        return State(lib, {"pools": pools, "combs": combs})

    def block(self, state: State, rec: Recorder) -> None:
        lib = state.lib
        for group, elems in state.inputs["pools"]:
            d = group.alphabet.size
            ident = lib.identity(group)
            for g, h in zip(elems, elems[1:] + elems[:1]):
                length = 2 * (len(g.rows) - 1) // (d - 1)
                diff = rec.call(lib.symdiff, g)
                rec.expect(diff, diff is FAILED or len(diff) == length)
                n = rec.call(lib.zipper_length, g)
                rec.expect(n, n == length)
                defect = rec.call(lib.cocycle_identity_defect, g, h)
                rec.expect(defect, defect == 0)
                sep = rec.call(lib.wall_separation, ident, g)
                rec.expect(sep, sep == length)
        for n, g in state.inputs["combs"]:
            diff = rec.call(lib.symdiff, g)
            rec.expect(diff, diff is FAILED or len(diff) == 2 * (n - 1))
            state.comb_times.setdefault(n, []).append(rec.latencies[-1])


# -- algebra ---------------------------------------------------------------------


def _order_check(g) -> tuple[bool, bool]:
    """F and T membership read off the leaf order, independently of the library."""
    targets = [r.target for r in g.rows]
    ranks = sorted(range(len(targets)), key=lambda i: targets[i])
    n = len(ranks)
    in_f = ranks == list(range(n))
    in_t = all(ranks[(i + 1) % n] == (ranks[i] + 1) % n for i in range(n))
    return in_f, in_t


class Algebra:
    """Parse/format round trips, compose, invert and apply on random
    elements and points, F/T membership, and identity-comb parsing.

    Larger operands than the audit, no dedup, parse- and apply-heavy: a
    parse or Point change shows here alone.
    """

    name = "algebra"

    def __init__(self, per_structure=160, comb_sizes=ALGEBRA_COMBS):
        self.per_structure = per_structure
        self.comb_sizes = comb_sizes

    def setup(self, lib, seed: int) -> State:
        pools = []
        for group in structures(lib):
            rng = random.Random(f"algebra:{seed}:{group.name}")
            elems = banded_elements(lib, group, rng, self.per_structure)
            points = [lib.random_point(group.alphabet, rng) for _ in range(self.per_structure)]
            pools.append((group, elems, points))
        combs = [(n, comb_literal(n, 0)) for n in self.comb_sizes]
        return State(lib, {"pools": pools, "combs": combs, "t2": lib.trivial_group(2)})

    def block(self, state: State, rec: Recorder) -> None:
        lib = state.lib
        for group, elems, points in state.inputs["pools"]:
            alphabet = group.alphabet
            ident = lib.identity(group)
            plain = group.size == 1 and alphabet.size == 2
            for g, h, x in zip(elems, elems[1:] + elems[:1], points):
                text = rec.call(lib.format_element, g)
                back = rec.call(lib.parse_element, text, group)
                rec.expect(back, back == g)
                gi = rec.call(lib.invert, g)
                one = rec.call(lib.compose, g, gi)
                rec.expect(one, one == ident)
                gh = rec.call(lib.compose, g, h)
                hx = rec.call(lib.apply, h, x)
                ghx = rec.call(lib.apply, g, hx)
                direct = rec.call(lib.apply, gh, x)
                rec.expect(direct, direct == ghx)
                ptext = rec.call(alphabet.format_point, x)
                pback = rec.call(alphabet.parse_point, ptext)
                rec.expect(pback, pback == x)
                if plain:
                    want_f, want_t = _order_check(g)
                    in_f = rec.call(lib.is_in_F, g)
                    rec.expect(in_f, in_f == want_f)
                    in_t = rec.call(lib.is_in_T, g)
                    rec.expect(in_t, in_t == want_t)
        t2 = state.inputs["t2"]
        ident = lib.identity(t2)
        for n, text in state.inputs["combs"]:
            g = rec.call(lib.parse_element, text, t2)
            rec.expect(g, g == ident)
            state.comb_times.setdefault(n, []).append(rec.latencies[-1])


# -- cli -------------------------------------------------------------------------


def readme_examples(readme: Path) -> list[tuple[list[str], str]]:
    """(argv, expected stdout) for every `$ localsim ...` example in the README."""
    out = []
    lines = readme.read_text().splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line.startswith("$ localsim "):
            continue
        argv = shlex.split(line[len("$ localsim "):])
        body = []
        while i < len(lines) and lines[i].strip() and not lines[i].startswith("```"):
            body.append(lines[i])
            i += 1
        out.append((argv, "".join(b + "\n" for b in body)))
    return out


def cli_goldens() -> list[tuple[list[str], str]]:
    """(argv, expected stdout) for every example the cli workload runs.

    Text output comes from the README; records output from goldens captured
    at the commit that defined this benchmark.
    """
    records = json.loads((HERE / "goldens" / "cli_records.json").read_text())
    out = []
    for argv, text in readme_examples(HERE.parent / "README.md"):
        if "audit" in argv:
            continue
        out.append((["--format", "text", *argv], text))
        key = shlex.join(argv)
        out.append((["--format", "records", *argv], records[key]))
    return out


class Cli:
    """Every README example except audit, in both output formats, through
    an in-process `localsim.cli.main(argv)` with stdout captured.

    The only workload reaching cli, walls and structure validation; it
    guards the byte-identical output the CLI promises.
    """

    name = "cli"

    def __init__(self, goldens=None, rounds=20):
        self.goldens = goldens
        self.rounds = rounds

    def setup(self, lib, seed: int) -> State:
        cases = list(self.goldens if self.goldens is not None else cli_goldens())
        random.Random(f"cli:{seed}").shuffle(cases)
        return State(lib, {"cases": cases})

    def block(self, state: State, rec: Recorder) -> None:
        cli = state.lib.cli
        for _ in range(self.rounds):
            for argv, want in state.inputs["cases"]:
                buf = io.StringIO()

                def run(argv=argv, buf=buf):
                    with contextlib.redirect_stdout(buf):
                        return cli.main(argv)

                code = rec.call(run)
                rec.expect(code, code == 0 and buf.getvalue() == want)


WORKLOADS = {w.name: w for w in (Audit, Zipper, Algebra, Cli)}
