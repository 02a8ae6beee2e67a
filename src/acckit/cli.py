"""Command-line interface.

Subcommands mirror the library layout: ``field`` (inspect a finite field),
``oa`` (build and check row arrays), ``cw`` (constant-weight codes),
``family`` (set-family verification), ``acc`` (code construction and
verification), ``attack`` / ``trace`` (collusion simulation), the
conjecture scan ``scan-remark6``, and ``preset`` (canonical pipelines).

Exit codes: 0 when the requested property holds or the build succeeds,
1 when a property fails (a witness is printed as JSON on stdout), and
2 for usage or file-format errors.  User indices on the command line are
1-based, matching the on-disk codeword order; family member indices are
0-based, matching the JSON schema.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import accs, arrays, collusion, cwcodes, families, presets
from .codec import read_lines, write_lines
from .gf import parse_field

PASS, FAIL, USAGE = 0, 1, 2

# Most cells `oa build`, `oa lemma1` or `field table` builds: at the cap a
# command takes about 0.3-0.5 GB and 5-10 s.
MAX_CELLS = 1 << 22
# Most row pairs `oa lemma1` scans: W over GF(107) at t = 2, m = 107, the
# widest W under the cap, takes about 11 s.
MAX_PAIRS = 1 << 26


def _emit(obj, as_json: bool, text: str | None = None) -> None:
    if as_json:
        print(json.dumps(obj, sort_keys=True))
    elif text is not None:
        print(text)


def _check_cells(rows: int, cols: int, what: str) -> None:
    """Refuse, before building it, a rows x cols array past MAX_CELLS."""
    if rows * cols > MAX_CELLS:
        raise ValueError(f"{what} has {rows} x {cols} cells, past the cap "
                         f"of {MAX_CELLS} cells")


def _check_array_cells(which: str, gf, t: int, m: int) -> int:
    """Refuse the array past MAX_CELLS; return its row count, or 0 outside
    2 <= t <= m <= s, where the builders refuse the parameters themselves."""
    if not 2 <= t <= m <= gf.s:
        return 0
    rows = arrays.array_rows(which, gf.s, t)
    _check_cells(rows, m, f"{which} over GF({gf.s}) at t = {t}, m = {m}")
    return rows


def _parse_indices(text: str, base: int = 0) -> list[int]:
    """Parse '2,5,7' or ranges '0-8' (inclusive) into 0-based indices."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "-" in tok:
            lo, hi = (int(end) - base for end in tok.split("-", 1))
            if hi < lo:
                raise ValueError(f"index range {tok!r} runs backwards")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(tok) - base)
    if not out:
        raise ValueError(f"no indices in {text!r}")
    return out


# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------

def cmd_field_elements(args) -> int:
    gf = parse_field(args.field)
    elems = gf.elements()
    _emit({"s": gf.s, "p": gf.p, "e": gf.e, "elements": elems}, args.json,
          f"GF({gf.s}): " + " ".join(str(x) for x in elems))
    return PASS


def cmd_field_table(args) -> int:
    gf = parse_field(args.field)
    _check_cells(gf.s, gf.s, f"each table of GF({gf.s})")
    elems = gf.elements()
    add = [gf.add(a, elems).tolist() for a in elems]
    mul = [gf.mul(a, elems).tolist() for a in elems]
    if args.json:
        _emit({"s": gf.s, "add": add, "mul": mul}, True)
    else:
        for name, table in (("addition", add), ("multiplication", mul)):
            print(f"GF({gf.s}) {name}:")
            for row in table:
                print("  " + " ".join(f"{x:3d}" for x in row))
    return PASS


# ---------------------------------------------------------------------------
# oa
# ---------------------------------------------------------------------------

def cmd_oa_build(args) -> int:
    gf = parse_field(args.field)
    _check_array_cells(args.which, gf, args.t, args.m)
    builder = {"U": arrays.build_U, "V": arrays.build_V, "W": arrays.build_W}
    book = builder[args.which](gf, args.t, args.m)
    arrays.save_codebook(book, args.out)
    _emit({"rows": book.M, "m": book.m, "s": book.s, "out": args.out},
          args.json, f"wrote {args.which}: {book.M} x {book.m} over "
                     f"GF({book.s}) -> {args.out}")
    return PASS


def cmd_oa_check(args) -> int:
    book = arrays.load_codebook(args.book)
    verdict = arrays.verify_oa(book, args.t)
    _emit(verdict.to_json_dict(), args.json,
          f"orthogonal array of strength {args.t}: {verdict.ok}")
    if not verdict.ok and not args.json:
        print(json.dumps(verdict.to_json_dict(), sort_keys=True))
    return PASS if verdict.ok else FAIL


def cmd_oa_distance(args) -> int:
    book = arrays.load_codebook(args.book)
    d = arrays.min_distance(book)
    _emit({"d": d, "m": book.m, "rows": book.M}, args.json,
          f"minimum distance: {d}")
    return PASS


def cmd_oa_lemma1(args) -> int:
    gf = parse_field(args.field)
    # it builds U and V, W's rows, and compares every pair of them
    rows = _check_array_cells("W", gf, args.t, args.m)
    if (pairs := rows * (rows - 1) // 2) > MAX_PAIRS:
        raise ValueError(f"W over GF({gf.s}) at t = {args.t} has {pairs} row "
                         f"pairs, past the cap of {MAX_PAIRS} row pairs")
    report = arrays.check_lemma1_bounds(gf, args.t, args.m)
    _emit(report.to_json_dict(), args.json,
          f"coincidence maxima (U-U, V-V, U-V) = "
          f"({report.max_uu}, {report.max_vv}, {report.max_uv}) "
          f"against bounds {report.bounds}: "
          f"{'ok' if report.ok else 'VIOLATED'}")
    return PASS if report.ok else FAIL


# ---------------------------------------------------------------------------
# cw
# ---------------------------------------------------------------------------

def cmd_cw_gen(args) -> int:
    code = cwcodes.greedy_lexicode(args.q, args.d, args.w)
    if args.out:
        cwcodes.export_code(code, args.out)
    _emit(code.to_json_dict() if not args.out else
          {"N": code.N, "out": args.out}, args.json,
          f"greedy code: N = {code.N} words (q={code.q}, d={code.d}, w={code.w})"
          + (f" -> {args.out}" if args.out else ""))
    return PASS


def cmd_cw_search(args) -> int:
    code = cwcodes.stochastic_search(args.q, args.d, args.w, args.target_n,
                                     seed=args.seed, budget=args.budget)
    if args.out:
        cwcodes.export_code(code, args.out)
    _emit({"N": code.N, "target": args.target_n, "seed": args.seed,
           "reached": code.N >= args.target_n},
          args.json,
          f"search reached N = {code.N} of target {args.target_n} "
          f"(seed {args.seed}, budget {args.budget})"
          + (f" -> {args.out}" if args.out else ""))
    return PASS if code.N >= args.target_n else FAIL


def cmd_cw_verify(args) -> int:
    code = cwcodes.import_code(args.code, d=args.d, verify=False)
    verdict = cwcodes.verify_cw_code(code)
    if not verdict.ok:
        print(json.dumps(verdict.to_json_dict(), sort_keys=True))
        return FAIL
    _emit({"ok": True, "q": code.q, "w": code.w, "d": code.d, "N": code.N},
          args.json, f"valid: N={code.N} words, q={code.q}, w={code.w}, d={code.d}")
    return PASS


def cmd_cw_to_family(args) -> int:
    code = cwcodes.import_code(args.code, d=args.d)
    fam = cwcodes.family_from_code(code)
    families.save_family(fam, args.out)
    _emit({"n": fam.n, "v": fam.universe.v, "out": args.out}, args.json,
          f"wrote family: {fam.n} members over {fam.universe.v} elements "
          f"-> {args.out}")
    return PASS


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------

def _verify(args, fam, K) -> int:
    """Shared body of `family verify` and `acc verify`."""
    if args.mode == "sampled":
        sample = families.sample_udf if args.prop == "udf" else families.sample_cff
        res = sample(fam, K, args.trials, args.seed)
        text = (f"{args.prop} sampled: {res.violations} violations "
                f"in {res.trials} trials")
    else:
        check = families.is_k_udf if args.prop == "udf" else families.is_k_cff
        res = check(fam, K)
        text = f"{args.prop} (K={K}): {res.ok} ({res.checked} checks)"
    _emit(res.to_json_dict(), args.json, text)
    if not res.ok and not args.json:
        print(json.dumps(res.witness.to_json_dict(), sort_keys=True))
    return PASS if res.ok else FAIL


def cmd_family_verify(args) -> int:
    fam = families.load_family(args.family)
    if args.subfamily:
        fam = fam.subfamily(_parse_indices(args.subfamily))
    return _verify(args, fam, args.K)


# ---------------------------------------------------------------------------
# acc
# ---------------------------------------------------------------------------

def _build(args, build) -> int:
    """Shared body of `acc build-t1` and `acc build-t2`."""
    try:
        acc, cert = build()
    except accs.ConstructionRefused as exc:
        print(json.dumps(exc.certificate.to_json_dict(), sort_keys=True))
        return FAIL
    accs.save_acc(acc, args.out)
    if args.cert_out:
        accs.save_certificate(cert, args.cert_out)
    _emit(cert.to_json_dict(), args.json,
          f"built ({acc.v}, {acc.n}, {acc.K}) code -> {args.out}")
    return PASS


def cmd_acc_build_t1(args) -> int:
    book = arrays.load_codebook(args.code)
    fam = families.load_family(args.family)
    return _build(args, lambda: accs.build_theorem1_acc(book, fam, args.K,
                                                        mode=args.mode))


def cmd_acc_build_t2(args) -> int:
    book = arrays.load_codebook(args.code)
    f = families.load_family(args.family_f)
    g = families.load_family(args.family_g)
    return _build(args, lambda: accs.build_theorem2_acc(book, f, g, args.K))


def cmd_acc_verify(args) -> int:
    acc = accs.load_acc(args.acc)
    K = args.K if args.K is not None else acc.K
    # ACC files record no product; any partition gives the same verdict
    product = None
    if args.product:
        try:
            m, q = map(int, args.product.split(","))
        except ValueError:
            raise ValueError(f"--product takes M,Q, got {args.product!r}") from None
        product = (m, q)
    return _verify(args, accs.acc_to_family(acc, product=product), K)


def cmd_acc_compare(args) -> int:
    acc = accs.load_acc(args.acc)
    cmp = accs.compare_prior(acc, args.prior_v, args.prior_n)
    _emit(cmp.to_json_dict(), args.json,
          f"({cmp.v}, {cmp.n}, K={cmp.K}) vs prior ({cmp.prior_v}, "
          f"{cmp.prior_n}): {cmp.summary()}; exceeds block-design bound: "
          f"{cmp.exceeds_bib_bound}")
    return PASS


# ---------------------------------------------------------------------------
# attack / trace / scan
# ---------------------------------------------------------------------------

def cmd_attack(args) -> int:
    acc = accs.load_acc(args.acc)
    users = _parse_indices(args.coalition, base=1)
    outside = [j + 1 for j in users if not 0 <= j < acc.n]
    if outside:
        raise ValueError(f"user numbers must lie in 1..{acc.n}, got {outside[0]}")
    fp = collusion.and_attack(acc, users)
    payload = {"fingerprint": fp.bitstring(),
               "coalition": [j + 1 for j in fp.coalition]}
    _emit(payload, args.json, fp.bitstring())
    if args.out:
        write_lines([fp.bitstring()], args.out)
    return PASS


def cmd_trace(args) -> int:
    acc = accs.load_acc(args.acc)
    if args.fp_file:
        fp = read_lines(args.fp_file, _fingerprint, collusion.CollusionError)
    elif args.fp:
        fp = collusion.Fingerprint.from_bitstring(args.fp)
    else:
        raise ValueError("provide --fp or --fp-file")
    res = collusion.trace(acc, fp, K=args.K)
    payload = res.to_json_dict()
    payload["candidates"] = [j + 1 for j in res.candidates]
    if res.found:
        payload["users"] = [j + 1 for j in res.users]
        note = " (supersets also consistent)" if res.superset_consistent else ""
        _emit(payload, args.json,
              "coalition: " + ",".join(str(j + 1) for j in res.users) + note)
        return PASS
    _emit(payload, args.json, f"no match: {res.reason}")
    return FAIL


def _fingerprint(lines):
    if len(lines) != 1:
        raise ValueError(f"a fingerprint file holds one line, not {len(lines)}")
    return collusion.Fingerprint.from_bitstring(lines[0])


def cmd_scan_remark6(args) -> int:
    gf = parse_field(args.field)
    rep = collusion.scan_remark6(gf, args.t, args.m, args.K, mode=args.mode,
                                 trials=args.trials, seed=args.seed)
    _emit(rep.to_json_dict(), args.json,
          f"W over GF({gf.s}), t={args.t}, m={args.m}, K={args.K} "
          f"[{rep.mode}]: union-distinct = {rep.ok} ({rep.note})")
    return PASS if rep.ok else FAIL


# ---------------------------------------------------------------------------
# preset
# ---------------------------------------------------------------------------

def cmd_preset_run(args) -> int:
    result = presets.run_preset(args.name, fixtures=args.fixtures,
                                out_dir=args.out_dir)
    if args.json:
        print(json.dumps(result.summary, sort_keys=True))
    else:
        print(presets.format_summary(result.summary))
    return PASS


def cmd_preset_list(args) -> int:
    payload = {name: {"expected": [p.expected_v, p.expected_n, p.K],
                      "description": p.description}
               for name, p in presets.PRESETS.items()}
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for name, p in sorted(presets.PRESETS.items()):
            print(f"{name}: expected ({p.expected_v}, {p.expected_n}, {p.K})"
                  f" -- {p.description}")
    return PASS


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# --seed of the sampled modes: the samplers' stream state is 64 bits
_SAMPLER_SEED = "sampler seed, an integer in [0, 2^64) (default 0)"


def _add_common(sp, func, seed=None):
    sp.add_argument("--json", action="store_true", help="machine output")
    if seed:
        sp.add_argument("--seed", type=int, default=0, help=seed)
    sp.set_defaults(func=func)


def _parent(*names, **kwargs) -> argparse.ArgumentParser:
    """A parent parser declaring each name once, as a required option."""
    parent = argparse.ArgumentParser(add_help=False)
    for name in names:
        parent.add_argument(name, required=True, **kwargs)
    return parent


def _add_verify_args(sp, func, K_required):
    """Arguments shared by `family verify` and `acc verify`."""
    sp.add_argument("--prop", choices=["udf", "cff"], required=True)
    sp.add_argument("--K", type=int, required=K_required)
    sp.add_argument("--mode", choices=["exhaustive", "sampled"],
                    default="exhaustive")
    sp.add_argument("--trials", type=int, default=10**6)
    _add_common(sp, func, seed=_SAMPLER_SEED)


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acckit",
        description="anti-collusion fingerprinting codes: construction, "
                    "verification, and attack simulation")
    sub = parser.add_subparsers(dest="command", required=True)
    field = _parent("--field", help="p, p^e, or p^e:c0,c1,...,ce")
    strength = _parent("--t", type=int)
    array = [field, strength, _parent("--m", type=int)]
    weight_code = [_parent("--q", "--d", "--w", type=int)]

    p = sub.add_parser("field", help="finite field inspection")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    q = fsub.add_parser("elements", parents=[field])
    _add_common(q, cmd_field_elements)
    q = fsub.add_parser("table", parents=[field])
    _add_common(q, cmd_field_table)

    p = sub.add_parser("oa", help="row arrays over a field")
    osub = p.add_subparsers(dest="subcommand", required=True)
    q = osub.add_parser("build", parents=array)
    q.add_argument("--which", choices=["U", "V", "W"], default="U")
    q.add_argument("--out", required=True)
    _add_common(q, cmd_oa_build)
    q = osub.add_parser("check", parents=[strength])
    q.add_argument("--book", required=True)
    _add_common(q, cmd_oa_check)
    q = osub.add_parser("distance")
    q.add_argument("--book", required=True)
    _add_common(q, cmd_oa_distance)
    q = osub.add_parser("lemma1", parents=array)
    _add_common(q, cmd_oa_lemma1)

    p = sub.add_parser("cw", help="constant-weight binary codes")
    csub = p.add_subparsers(dest="subcommand", required=True)
    q = csub.add_parser("gen", parents=weight_code)
    q.add_argument("--out")
    _add_common(q, cmd_cw_gen)
    q = csub.add_parser("search", parents=weight_code)
    q.add_argument("--target-n", type=int, required=True)
    q.add_argument("--budget", type=int, default=200_000)
    q.add_argument("--out")
    _add_common(q, cmd_cw_search, seed="search seed (default 0)")
    q = csub.add_parser("verify")
    q.add_argument("--code", required=True)
    q.add_argument("--d", type=int, help="expected distance for bitstring files")
    _add_common(q, cmd_cw_verify)
    q = csub.add_parser("to-family")
    q.add_argument("--code", required=True)
    q.add_argument("--d", type=int)
    q.add_argument("--out", required=True)
    _add_common(q, cmd_cw_to_family)

    p = sub.add_parser("family", help="set-family verification")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    q = fsub.add_parser("verify")
    q.add_argument("--family", required=True)
    q.add_argument("--subfamily", help="0-based indices, e.g. 0-8 or 0,1,4")
    _add_verify_args(q, cmd_family_verify, K_required=True)

    p = sub.add_parser("acc", help="anti-collusion code operations")
    asub = p.add_subparsers(dest="subcommand", required=True)
    q = asub.add_parser("build-t1", help="concatenation construction")
    q.add_argument("--code", required=True)
    q.add_argument("--family", required=True)
    q.add_argument("--K", type=int, required=True)
    q.add_argument("--mode", choices=["exhaustive", "structural"],
                   default="exhaustive")
    q.add_argument("--out", required=True)
    q.add_argument("--cert-out")
    _add_common(q, cmd_acc_build_t1)
    q = asub.add_parser("build-t2", help="augmentation construction")
    q.add_argument("--code", required=True)
    q.add_argument("--family-f", required=True)
    q.add_argument("--family-g", required=True)
    q.add_argument("--K", type=int, required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--cert-out")
    _add_common(q, cmd_acc_build_t2)
    q = asub.add_parser("verify")
    q.add_argument("--acc", required=True)
    q.add_argument("--product", metavar="M,Q",
                   help="read the universe as {1..M} x {0..Q-1}")
    _add_verify_args(q, cmd_acc_verify, K_required=False)
    q = asub.add_parser("compare")
    q.add_argument("--acc", required=True)
    q.add_argument("--prior-v", type=int, required=True)
    q.add_argument("--prior-n", type=int, required=True)
    _add_common(q, cmd_acc_compare)

    p = sub.add_parser("attack", help="bitwise-AND collusion attack")
    p.add_argument("--acc", required=True)
    p.add_argument("--coalition", required=True,
                   help="1-based user ids, e.g. 2,5")
    p.add_argument("--out", help="write the fingerprint to a file")
    _add_common(p, cmd_attack)

    p = sub.add_parser("trace", help="recover the coalition behind a fingerprint")
    p.add_argument("--acc", required=True)
    p.add_argument("--fp", help="fingerprint bitstring")
    p.add_argument("--fp-file", help="file containing the bitstring")
    p.add_argument("--K", type=int)
    _add_common(p, cmd_trace)

    p = sub.add_parser("scan-remark6", parents=array,
                       help="empirical union-distinctness scan of the "
                            "stacked array beyond K = 2")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "sampled"],
                   default="exhaustive")
    p.add_argument("--trials", type=int, default=10**6)
    _add_common(p, cmd_scan_remark6, seed=_SAMPLER_SEED)

    p = sub.add_parser("preset", help="canonical end-to-end pipelines")
    psub = p.add_subparsers(dest="subcommand", required=True)
    q = psub.add_parser("run")
    q.add_argument("name", choices=sorted(presets.PRESETS))
    q.add_argument("--fixtures", help="fixture directory override")
    q.add_argument("--out-dir", help="write code/certificate/summary files")
    _add_common(q, cmd_preset_run)
    q = psub.add_parser("list")
    _add_common(q, cmd_preset_list)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # every acckit input error is a ValueError; FixtureMissing is an OSError
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except presets.PresetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    raise SystemExit(main())
