"""The benchmark's four closed-loop workloads and their correctness gates.

One caller issues each operation after the previous one returns.  A *pass*
is a fixed list of operations; a run repeats passes until its time is up.
Every operation goes through a stable entry point with default knobs
(``acckit.cli.main`` or a public library function; never ``threads``,
``deep`` or a ``_private`` name), so later changes to verifiers, samplers
and options land without editing the benchmark.

Pinned outputs live in ``expected.json``, recorded from the outputs of the
initial acckit release: the exact (v, n, K) of each preset, each
certificate entry's name, mode, result and ``checked`` / ``trials`` count,
the ``*_acc.json`` digests, and the audit verdicts, unit counts and
witness.  Certificate bytes and sampled witnesses are not pinned, because a
new sampler or a new certificate field changes them legitimately.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from acckit import accs, arrays, cli, collusion, cwcodes, families, gf, presets

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())
clock = time.perf_counter


class Gate:
    """Counts attempted and failed operations; an operation fails when it
    raises or when any of its checks reports a problem."""

    def __init__(self, log=None):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.log = log

    def check(self, label: str, fn) -> None:
        self.attempted += 1
        try:
            problems = list(fn())
        except Exception:  # an operation that raises counts as failed
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
            if self.log is not None:
                for p in problems:
                    print(f"FAILED {label}: {p}", file=self.log)


class NullTracer:
    def request(self, name):
        return contextlib.nullcontext()


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def timed(tracer, label, fn):
    """Run fn under a request span; return (result, seconds).  A raised
    exception is returned in place of the result so the gate can count it."""
    with tracer.request(label):
        t0 = clock()
        try:
            result = fn()
        except Exception as exc:  # counted as a failed operation
            result = exc
        return result, clock() - t0


def unwrap(result):
    if isinstance(result, Exception):
        raise result
    return result


def run_cli(argv) -> dict:
    """`acckit <argv> --json`: the last JSON line of stdout plus the exit
    code under "exit"."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([*argv, "--json"])
    lines = buf.getvalue().strip().splitlines()
    return {**(json.loads(lines[-1]) if lines else {}), "exit": rc}


def mismatches(got: dict, want: dict):
    for key, value in want.items():
        if got.get(key) != value:
            yield f"{key} = {got.get(key)!r}, expected {value!r}"


# ---------------------------------------------------------------------------
# Codes built in set-up
# ---------------------------------------------------------------------------

def singletons(q: int) -> families.SetFamily:
    return families.SetFamily.from_sets(families.Universe(q),
                                        [[l] for l in range(q)])


def build_example3() -> accs.AndAcc:
    cw = cwcodes.import_code(presets.fixture_path("example3_inner_code.json"))
    book = arrays.build_W(gf.GF(83), 2, 3)
    return accs.build_theorem1_acc(book, cwcodes.family_from_code(cw), 2,
                                   mode="structural")[0]


def build_augmented(field, q, g_sets, K) -> accs.AndAcc:
    book = arrays.build_U(field, 3, q)
    g = families.SetFamily.from_sets(families.Universe(q), g_sets)
    return accs.build_theorem2_acc(book, singletons(q), g, K)[0]


def build_example4() -> accs.AndAcc:
    return build_augmented(gf.GF(7), 7, [[0, 1, 2, 3], [0, 4, 5, 6]], 3)


def build_example6() -> accs.AndAcc:
    return build_augmented(gf.GF(3, 2), 9, [[0, 1, 2, 3, 4], [0, 5, 6, 7, 8]],
                           4)


def save_checked(gate, name, acc, out_dir) -> Path:
    """Save a code built in set-up; it must be byte-identical to the output
    of the preset of the same name."""
    path = out_dir / f"{name}_acc.json"
    accs.save_acc(acc, path)
    want = EXPECTED["presets"][name]["acc_sha256"]
    gate.check(f"set-up {name} code", lambda: [] if sha256(path) == want
               else [f"{path.name} differs from the {name} preset output"])
    return path


# ---------------------------------------------------------------------------
# certify-concat / certify-augment
# ---------------------------------------------------------------------------

def entry_pin(entry: dict) -> list:
    params = entry.get("params", {})
    count = params.get("checked", params.get("trials"))
    return [entry["name"], entry["mode"], entry["result"], count]


def check_preset(name, summary, out_dir, expected):
    if summary["exit"] != 0:
        yield f"exit code {summary['exit']}"
        return
    if not summary["certified"]:
        yield "summary not certified"
    yield from mismatches(summary, {k: expected[k] for k in ("v", "n", "K")})
    cert = json.loads((out_dir / f"{name}_certificate.json").read_text())
    if not cert["certified"]:
        yield "certificate not certified"
    entries = [entry_pin(e) for e in cert["entries"]]
    if entries != expected["entries"]:
        yield f"certificate entries {entries} != {expected['entries']}"
    digest = sha256(out_dir / f"{name}_acc.json")
    if digest != expected["acc_sha256"]:
        yield f"{name}_acc.json sha256 {digest} != {expected['acc_sha256']}"
    if not (out_dir / f"{name}_summary.json").is_file():
        yield "summary file missing"


class Certify:
    """One pass runs `acckit preset run <name> --json --out-dir <dir>` for
    each preset in turn.  The presets are fixed pipelines, so the seed has
    nothing to choose."""

    aliases = {"certify_s": "pass_s"}
    heavy_apart = False  # op percentiles include the heavy preset

    def __init__(self, name, preset_names, heavy):
        self.name, self.presets, self.heavy = name, list(preset_names), heavy

    def setup(self, seed, out_dir: Path, gate):
        self.out = out_dir

    def run_pass(self, index, gate, tracer):
        ops = []
        for name in self.presets:
            for stale in self.out.glob(f"{name}_*.json"):
                stale.unlink()
            argv = ["preset", "run", name, "--out-dir", str(self.out)]
            summary, dt = timed(tracer, f"preset {name}",
                                lambda: run_cli(argv))
            ops.append((f"preset {name}", dt))
            gate.check(f"preset {name}", lambda: check_preset(
                name, unwrap(summary), self.out, EXPECTED["presets"][name]))
        return ops


# ---------------------------------------------------------------------------
# audit-exhaustive
# ---------------------------------------------------------------------------

@dataclass
class Check:
    """One verifier call.  `run` returns the verdict as a JSON dict; `want`
    pins its fields; a failing check names the object its witness must
    replay on."""

    label: str
    run: Callable[[], dict]
    want: dict
    replay_on: object = None


def replays(obj, witness: dict) -> bool:
    return families.replay_witness(obj, families.Witness(
        kind=witness["kind"], j1=tuple(witness.get("j1", ())),
        j2=tuple(witness.get("j2", ())), covered=witness.get("covered")))


def audit_checks(out_dir: Path, gate) -> list[Check]:
    """K = 3 cover-freeness of the example4 output through the CLI, checked
    exhaustively and by the 10^6-trial sampler (whose verdict and counts,
    not its stream, are pinned), the packed K = 2 code scan of the stacked array over GF(83), and a failing
    K = 2 scan of the stacked array over GF(32): an even alphabet, so the
    scan finds duplicates and recovers the canonical witness."""
    want = EXPECTED["audit"]
    acc4 = save_checked(gate, "example4", build_example4(), out_dir)
    w83 = arrays.build_W(gf.GF(83), 2, 3)
    w32 = arrays.build_W(gf.GF(2, 5), 2, 3)
    return [
        Check("acc verify cff",
              lambda: run_cli(["acc", "verify", "--acc", str(acc4),
                               "--prop", "cff", "--K", "3"]),
              {"exit": 0, **want["example4_cff3"]}),
        Check("acc verify cff sampled",
              lambda: run_cli(["acc", "verify", "--acc", str(acc4),
                               "--prop", "cff", "--K", "3", "--mode",
                               "sampled"]),
              {"exit": 0, **want["example4_cff3_sampled"]}),
        Check("is_k_ud_code W83",
              lambda: families.is_k_ud_code(w83, 2).to_json_dict(),
              want["w83_ud2"]),
        Check("is_k_ud_code W32",
              lambda: families.is_k_ud_code(w32, 2).to_json_dict(),
              want["w32_ud2"], replay_on=w32),
    ]


class Audit:
    """One pass runs every check of the verifier suite once.  The instances
    are fixed and their verdicts pinned, so the seed has nothing to
    choose."""

    aliases = {"verify_s": "pass_s"}
    heavy_apart = False  # op percentiles include the heavy check

    def __init__(self, name, build_checks, heavy):
        self.name, self.build_checks, self.heavy = name, build_checks, heavy

    def setup(self, seed, out_dir: Path, gate):
        self.checks = self.build_checks(out_dir, gate)

    def run_pass(self, index, gate, tracer):
        ops = []
        for check in self.checks:
            verdict, dt = timed(tracer, check.label, check.run)
            ops.append((check.label, dt))

            def problems():
                got = unwrap(verdict)
                yield from mismatches(got, check.want)
                if check.replay_on is not None and not (
                        "witness" in got
                        and replays(check.replay_on, got["witness"])):
                    yield "witness does not replay"

            gate.check(check.label, problems)
        return ops


# ---------------------------------------------------------------------------
# trace-mixed
# ---------------------------------------------------------------------------

class TraceMixed:
    """One pass traces the all-zero fingerprint on the `zero` code, then
    `batch` seeded fingerprints spread round-robin over `codes`: AND attacks
    by honest coalitions of size 1..K and by oversized ones of size up to
    K + `oversize`."""

    heavy = "trace all-zero"
    # The percentiles cover honest and oversized traces only; the all-zero
    # trace is reported alone, as heavy_op_s.
    heavy_apart = True
    aliases = {"trace_p50_ms": "op_p50_ms", "trace_p99_ms": "op_p99_ms",
               "trace_degenerate_s": "heavy_op_s"}

    def __init__(self, name, codes, zero, batch):
        self.name, self.code_specs, self.zero, self.batch = (
            name, codes, zero, batch)

    def setup(self, seed, out_dir: Path, gate):
        self.seed = seed
        self.codes = []
        for name, build, oversize in self.code_specs:
            acc = build()
            save_checked(gate, name, acc, out_dir)
            self.codes.append((name, acc, range(1, acc.K + oversize + 1)))
        self.zero_acc = next(acc for name, acc, _ in self.codes
                             if name == self.zero)

    def run_pass(self, index, gate, tracer):
        ops = []
        acc0 = self.zero_acc
        zero = collusion.Fingerprint(v=acc0.v, bits=0)
        res, dt = timed(tracer, self.heavy, lambda: collusion.trace(acc0, zero))
        ops.append((self.heavy, dt))

        def check_zero():
            r = unwrap(res)
            if r.found:
                yield f"all-zero fingerprint traced to {r.users}"
            if r.candidates != tuple(range(acc0.n)):
                yield f"{len(r.candidates)} candidates, expected {acc0.n}"

        gate.check(self.heavy, check_zero)

        rng = random.Random(self.seed * 1_000_003 + index)
        for j in range(self.batch):
            name, acc, sizes = self.codes[j % len(self.codes)]
            size = rng.choice(sizes)
            coalition = tuple(sorted(rng.sample(range(acc.n), size)))
            res, dt = timed(tracer, "trace", lambda: collusion.trace(
                acc, collusion.and_attack(acc, coalition)))
            ops.append(("trace", dt))

            def check_trace():
                r = unwrap(res)
                if size <= acc.K and r.users != coalition:
                    yield f"{name}: {coalition} traced to {r.users}"
                if size > acc.K and r.confident:
                    yield (f"{name}: oversized {coalition} came back "
                           f"confident as {r.users}")

            gate.check(f"trace {name}", check_trace)
        return ops


# Why each workload was chosen is recorded with it in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in [
        Certify("certify-concat", ["example1", "example2", "example3"],
                heavy="preset example3"),
        Certify("certify-augment", ["example5", "example6"],
                heavy="preset example5"),
        Audit("audit-exhaustive", audit_checks, heavy="acc verify cff"),
        # Oversized coalitions stop at K + 1 on the 6,972-user code, where
        # K + 2 already admits about a hundred candidates, and at K + 2 on
        # the others, so every trace but the all-zero one stays small.
        TraceMixed("trace-mixed",
                   [("example3", build_example3, 1),
                    ("example4", build_example4, 2),
                    ("example6", build_example6, 2)],
                   zero="example4", batch=600),
    ]
}
