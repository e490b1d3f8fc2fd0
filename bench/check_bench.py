#!/usr/bin/env python3
"""Sanity gates over the quick-bench JSON tables (the CI bench-release job).

    cmake --build build --target bench-json
    python3 bench/check_bench.py [--dir build] GATE

Each GATE reads one BENCH_<name>.json written by `bench-json` (a list of
ResultTable objects: title, columns, rows, cells), prints the rows it checks
and exits non-zero on the first failed assertion. `fuel-pulse` instead reads
the line `bench_loop` prints:

    ./build/bench/bench_loop --benchmark_filter='NOTHING^' > bench_loop_fuel.txt
    python3 bench/check_bench.py fuel-pulse --file bench_loop_fuel.txt

`dispatch-replicated` reads no JSON: it disassembles the optimizing tier's
dispatch loop in <dir>/bench/bench_scimark.
"""
import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Table:
    """One ResultTable, addressed by row and column name."""

    def __init__(self, raw):
        self.title = raw['title']
        self.rows = raw['rows']
        self.columns = raw['columns']
        self._row = {r: i for i, r in enumerate(self.rows)}
        self._col = {c: i for i, c in enumerate(self.columns)}
        self._cells = raw['cells']

    def cell(self, row, col):
        r = self._row[row] if isinstance(row, str) else row
        return self._cells[r][self._col[col]]


def tables(bench_dir, name):
    with open(os.path.join(bench_dir, f'BENCH_{name}.json')) as f:
        return [Table(t) for t in json.load(f)]


def table(bench_dir, name, title=None, index=None):
    """The table at `index`, or the first whose title contains `title`."""
    ts = tables(bench_dir, name)
    if index is not None:
        return ts[index]
    return next(t for t in ts if title in t.title)


def engine_ordering(d, _args):
    # The paper's headline ordering on the SciMark composite: the optimizing
    # CLR profile beats the baseline (Mono) tier, which beats the interpreter
    # (Rotor) tier. Under --quick the first row runs the tiny test-model
    # sizes where one-shot timing is dominated by JIT compilation (the
    # interpreter legitimately wins there), so the ordering is asserted on
    # the larger second row only.
    g9 = table(d, 'scimark', index=0)
    for name in g9.rows:
        clr, mono, rotor = (g9.cell(name, c)
                            for c in ('clr11', 'mono023', 'rotor10'))
        print(f"{name}: clr11={clr:.2f} mono023={mono:.2f} "
              f"rotor10={rotor:.2f} MFlops")
        tiered = g9.cell(name, 'clr11.tiered')
        print(f"  clr11.tiered={tiered:.2f} MFlops (steady state)")
        if name == 'large memory model':
            assert clr > mono > rotor, f"tier ordering violated on {name}"
            # Warmed tiered pipeline must score within noise of the
            # optimizing-only engine (same register-IR bodies).
            assert tiered > 0.6 * clr, \
                f"tiered steady-state MFlops too low on {name}"
    print("tier ordering holds: clr11 > mono023 > rotor10")
    print("tiered steady state within noise of optimizing-only")


def vector_tier(d, _args):
    # The point of the VECLOOP lowering: the array kernels it targets (SOR's
    # 5-point stencil, SparseMatmul's gather-dot) must get faster under
    # clr11.vec, and no kernel may regress. Asserted on the second row's
    # kernel table only (under --quick the first row runs tiny sizes where
    # one-shot timing is JIT-dominated).
    g11 = table(d, 'scimark', index=2)
    for name in g11.rows:
        clr, vec = g11.cell(name, 'clr11'), g11.cell(name, 'clr11.vec')
        print(f"{name}: clr11={clr:.2f} clr11.vec={vec:.2f} MFlops")
        assert vec > 0.9 * clr, \
            f"clr11.vec regressed on {name}: {vec:.2f} < {clr:.2f}"
        if name in ('SOR', 'Sparse'):
            assert vec > 1.15 * clr, \
                f"VECLOOP gave no speedup on {name}: {vec:.2f} vs {clr:.2f}"
    print("vector tier: SOR/Sparse faster, no kernel regressed")


def tiered_steady(d, _args):
    # After warmup the tiered pipeline runs the same register-IR bodies as
    # the optimizing-only engine, so its steady-state per-invocation time
    # must land within noise of clr11 (2x covers CI jitter; the real gap is
    # a single atomic tier load per call).
    steady = table(d, 'warmup', title='steady-state')
    for name in steady.rows:
        tiered = steady.cell(name, 'clr11.tiered')
        clr = steady.cell(name, 'clr11')
        print(f"{name}: clr11.tiered={tiered:.2f}us clr11={clr:.2f}us")
        assert tiered < 2.0 * clr, f"tiered steady state too slow on {name}"
    print("tiered steady state within noise of optimizing-only")


def osr_monster(d, _args):
    # ONE invocation whose loops run >= 1e6 grid updates: without on-stack
    # replacement the tiered engine would be stuck in the interpreter for
    # the whole call (~3x slower than clr11); with OSR it promotes mid-loop
    # and must land within noise of the optimizing-only engine.
    monster = table(d, 'warmup', title='monster loop')
    tiered = monster.cell(0, 'clr11.tiered')
    clr = monster.cell(0, 'clr11')
    rotor = monster.cell(0, 'rotor10')
    print(f"monster SOR: clr11.tiered={tiered:.2f}ms clr11={clr:.2f}ms "
          f"rotor10={rotor:.2f}ms")
    assert tiered < 2.0 * clr, \
        "tiered single-invocation monster loop too slow: OSR not working"
    print("single-invocation hot loop promotes mid-run via OSR")


def snapshot_warm(d, _args):
    # The point of the code archive (DESIGN.md §13): a VM booted from a
    # snapshot must run published optimized code on its very first
    # invocation. The warm first invocation must land within 1.2x of the
    # snapshot leg's own steady state, for each fleet size N.
    snap = table(d, 'warmup', title='snapshot warm start')
    for name in snap.rows:
        cold1 = snap.cell(name, 'cold first-invoke')
        warm1 = snap.cell(name, 'snapshot first-invoke')
        steady = snap.cell(name, 'snapshot steady')
        print(f"{name}: cold first={cold1:.1f}us "
              f"snapshot first={warm1:.1f}us steady={steady:.1f}us")
        assert warm1 <= 1.2 * steady, \
            f"snapshot boot still pays a JIT spike on {name}: " \
            f"first {warm1:.1f}us vs steady {steady:.1f}us"
    print("snapshot-booted VMs start at steady state on call 1")


def service_metering(d, _args):
    # An uncontended single-tenant SciMark mix through the service must stay
    # under 5% metering overhead end to end.
    ovh = table(d, 'service', title='fuel metering')
    off = ovh.cell('unmetered jobs/sec', 'clr11')
    on = ovh.cell('fuel metered jobs/sec', 'clr11')
    pct = ovh.cell('overhead %', 'clr11')
    print(f"unmetered={off:.1f} jobs/sec, metered={on:.1f} jobs/sec, "
          f"overhead={pct:.2f}%")
    assert pct < 5.0, f"fuel metering overhead too high: {pct:.2f}%"
    scaling = table(d, 'service', title='throughput')
    for name in scaling.rows:
        print(f"{name}: {scaling.cell(name, 'jobs_per_sec'):.1f} jobs/sec, "
              f"p50={scaling.cell(name, 'p50_ms'):.2f}ms "
              f"p99={scaling.cell(name, 'p99_ms'):.2f}ms")
    print("service metering overhead within budget")


def tcp_loopback(d, _args):
    # DESIGN.md §14: with 4 tenant clients each keeping 8 jobs in flight,
    # the wire cost must amortize: client-observed TCP p50 under 2x the
    # in-process p50.
    lb = table(d, 'service', title='TCP loopback')
    ratios = []
    for name in lb.rows:
        ratio = lb.cell(name, 'tcp_p50_ratio')
        print(f"{name}: tcp p50={lb.cell(name, 'tcp_p50_ms'):.2f}ms "
              f"inproc p50={lb.cell(name, 'inproc_p50_ms'):.2f}ms "
              f"ratio={ratio:.2f}x "
              f"({lb.cell(name, 'tcp_jobs_per_sec'):.0f} vs "
              f"{lb.cell(name, 'inproc_jobs_per_sec'):.0f} jobs/sec)")
        ratios.append(ratio)
    assert min(ratios) < 2.0, \
        f"TCP p50 overhead never amortized: best {min(ratios):.2f}x"
    print("TCP front end: p50 within 2x of in-process at depth 8")


def fuel_pulse(_d, args):
    # Arming a fuel budget adds no second branch to the interpreter dispatch
    # loop: bench_loop's metered-vs-plain interpreter For loop (best-of-3)
    # must stay under 2%.
    with open(args.file) as f:
        line = next(l for l in f if l.startswith('interp-fuel-overhead-pct:'))
    pct = float(line.split(':')[1])
    print(f"interpreter fuel-pulse overhead: {pct:+.3f}%")
    assert pct < 2.0, f"fuel pulse slows the interp loop by {pct:.2f}%"
    print("fuel metering rides the existing back-edge counter")


def gc_pause_split(d, _args):
    # A nursery pause must be far cheaper than a full collection and stay
    # cheap as the old generation grows: every minor p50 in the GC-scaling
    # table must beat the single-threaded major. No speedup assert on the
    # parallel major: CI runners do not guarantee spare cores.
    gc = table(d, 'alloc', title='gc scaling')
    major = gc.cell('major:1t', 'p50_ms')
    for name in gc.rows:
        if not name.startswith('minor:'):
            continue
        p50 = gc.cell(name, 'p50_ms')
        print(f"{name}: p50={p50*1000:.1f}us over "
              f"{gc.cell(name, 'old_mb'):.1f} MB old")
        assert p50 < major, \
            f"{name} pause {p50:.3f}ms not below major {major:.3f}ms"
    print(f"major:1t p50={major:.2f}ms; minors stay well below it")


def dispatch_replicated(d, _args):
    # Threaded register dispatch (DESIGN.md §7) pays only while the op
    # handlers keep their own indirect jumps. A compiler that merges them
    # into one shared jump gives back most of the gain (EXPERIMENTS.md) with
    # every test still passing. Each regir_ops.def row's handler ends in
    # NEXT() or JUMP(), and a conditional branch has both; the loop's entry
    # and resume points add a few more than the rows that share a label or
    # never dispatch take away. So require one jump per row plus one per
    # Cond row: a full merge fails, and so does a partial one that folds
    # more jumps than the margin printed below.
    binary = os.path.join(d, 'bench', 'bench_scimark')
    asm = subprocess.run(['objdump', '-d', '--no-show-raw-insn', '-C', binary],
                         check=True, capture_output=True, text=True).stdout
    header = re.compile(r'^[0-9a-f]+ <hpcnet::vm::\(anonymous namespace\)::'
                        r'OptimizingBackend::run\(.*\)>:$')
    body = None
    for line in asm.splitlines():
        if body is None:
            if header.match(line):
                body = []
        elif not line.strip():
            break
        else:
            body.append(line)
    assert body is not None, f"OptimizingBackend::run not found in {binary}"
    jumps = sum(1 for l in body if re.search(r'\bjmp\s+\*', l))
    with open(os.path.join(ROOT, 'src', 'vm', 'regir_ops.def')) as f:
        rows = [l.split(',') for l in f if l.startswith('ROP(')]
    cond = sum(1 for r in rows if r[3].strip() == 'Cond')
    need = len(rows) + cond
    print(f"OptimizingBackend::run: {jumps} indirect jumps; need {need} "
          f"({len(rows)} ops + {cond} conditional branches), "
          f"margin {jumps - need}")
    assert jumps >= need, \
        f"dispatch merged: {jumps} indirect jumps, need {need}"
    print("op handlers keep their own dispatch jumps")


GATES = {
    'engine-ordering': engine_ordering,
    'vector-tier': vector_tier,
    'tiered-steady': tiered_steady,
    'osr-monster': osr_monster,
    'snapshot-warm': snapshot_warm,
    'service-metering': service_metering,
    'tcp-loopback': tcp_loopback,
    'fuel-pulse': fuel_pulse,
    'gc-pause-split': gc_pause_split,
    'dispatch-replicated': dispatch_replicated,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument('--dir', default='build',
                    help='directory holding BENCH_*.json (default: build)')
    ap.add_argument('--file', default='bench_loop_fuel.txt',
                    help='bench_loop output (fuel-pulse only)')
    ap.add_argument('gate', choices=sorted(GATES))
    args = ap.parse_args()
    try:
        GATES[args.gate](args.dir, args)
    except AssertionError as e:
        print(f"FAILED {args.gate}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == '__main__':
    sys.exit(main())
