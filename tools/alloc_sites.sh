#!/bin/sh
# Allocator calls per message by source line, for one benchmark workload.
#
#   tools/alloc_sites.sh <workload> [seed] [benchmark options...]
#
# Clones HEAD of this checkout into a fresh directory under $TMPDIR
# (default /tmp), patches the copy's counting allocator
# (benchmark/src/alloc.rs) with a backtrace sampler that the copy's
# `PhaseMeter` (benchmark/src/workloads/mod.rs) switches on for exactly the
# calls `allocs_per_msg` counts in timed repetition 1, builds it with line
# tables, runs `--workload <workload> --seed <seed> --trace 0` (seed 1 by
# default; full size unless the options say `--quick`) and prints that
# repetition's calls per message by site, largest first. A site is the
# innermost two frames under `crates/` or `benchmark/src/workloads/`, with
# the copy's line numbers. Nothing inside the checkout is written; the
# copy, its build and the run's output are removed at exit.
#
# A capture costs about 90 us, so a full-size repetition of `bulk_vpc`,
# `adaptive_wan` or `fanin_10k` (0.05-0.9 M calls) takes 5-80 s, plus a
# ~2 min build. `rpc_small` makes ~7 calls per round trip over 10^6 round
# trips: sample a window with SAMPLE_SKIP=<calls> SAMPLE_CALLS=<calls> and
# divide the `calls` column by the round trips in the window (the
# per-message column divides by the whole repetition's). SAMPLE_REP=0
# samples the warm-up instead.
set -eu

[ $# -ge 1 ] || { sed -n '2,4p' "$0" >&2; exit 2; }
workload=$1
seed=${2:-1}
[ $# -ge 2 ] && shift 2 || shift 1

repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/alloc-sites.XXXXXX")
trap 'rm -rf "$work"' EXIT
git clone -q "$repo" "$work/src"
echo "HEAD $(git -C "$work/src" log -1 --format='%h %s' | cut -c1-72)" >&2

python3 - "$work/src" <<'PY'
import pathlib, sys

root = pathlib.Path(sys.argv[1]) / "benchmark/src"

SAMPLER = '''
/// Allocation sites of one repetition (patched in by tools/alloc_sites.sh).
pub mod sampler {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
    use std::sync::Mutex;

    static ON: AtomicBool = AtomicBool::new(false);
    static SKIP: AtomicU64 = AtomicU64::new(0);
    static LEFT: AtomicU64 = AtomicU64::new(0);
    static SITES: Mutex<Vec<(String, u64, usize)>> = Mutex::new(Vec::new());
    thread_local! {
        static INSIDE: Cell<bool> = const { Cell::new(false) };
    }

    pub fn start(skip: u64, calls: u64) {
        SKIP.store(skip, Relaxed);
        LEFT.store(calls, Relaxed);
        ON.store(true, Relaxed);
    }

    pub fn stop() {
        if !ON.swap(false, Relaxed) {
            return;
        }
        INSIDE.with(|g| g.set(true));
        for (key, calls, bytes) in std::mem::take(&mut *SITES.lock().unwrap()) {
            println!("site\\t{calls}\\t{bytes}\\t{key}");
        }
        INSIDE.with(|g| g.set(false));
    }

    pub(super) fn sample(grow: usize) {
        if !ON.load(Relaxed) || INSIDE.with(Cell::get) {
            return;
        }
        if SKIP.load(Relaxed) > 0 {
            SKIP.fetch_sub(1, Relaxed);
            return;
        }
        if LEFT.load(Relaxed) == 0 {
            return;
        }
        LEFT.fetch_sub(1, Relaxed);
        INSIDE.with(|g| g.set(true));
        let bt = std::backtrace::Backtrace::force_capture().to_string();
        let mut frames = bt
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("at "))
            .filter_map(|l| {
                let at = l.find("/crates/").or_else(|| l.find("/benchmark/src/workloads/"))?;
                let l = &l[at + 1..];
                Some(l.rsplit_once(':').map_or(l, |(head, _col)| head).to_string())
            });
        let key = match (frames.next(), frames.next()) {
            (Some(a), Some(b)) => format!("{a} < {b}"),
            (Some(a), None) => a,
            _ => "(outside)".to_string(),
        };
        let mut sites = SITES.lock().unwrap();
        match sites.iter_mut().find(|s| s.0 == key) {
            Some(s) => {
                s.1 += 1;
                s.2 += grow;
            }
            None => sites.push((key, 1, grow)),
        }
        drop(sites);
        INSIDE.with(|g| g.set(false));
    }
}
'''

BEGIN = '''        {
            use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
            static REP: AtomicU64 = AtomicU64::new(0);
            let env = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<u64>().ok());
            if REP.fetch_add(1, Relaxed) == env("SAMPLE_REP").unwrap_or(1) {
                let (skip, calls) = (env("SAMPLE_SKIP"), env("SAMPLE_CALLS"));
                alloc::sampler::start(skip.unwrap_or(0), calls.unwrap_or(u64::MAX));
            }
        }
'''

def patch(rel, edits):
    path = root / rel
    text = path.read_text()
    for old, new in edits:
        if text.count(old) != 1:
            sys.exit(f"alloc_sites: {rel} no longer has {old.strip()!r}")
        text = text.replace(old, new)
    path.write_text(text)


patch("alloc.rs", [
    ("fn count(grow: usize) {\n", "fn count(grow: usize) {\n    sampler::sample(grow);\n"),
    ("/// Allocator calls (`alloc`", SAMPLER + "\n/// Allocator calls (`alloc`"),
])
patch("workloads/mod.rs", [
    ("    pub fn begin_timed(&mut self) {\n",
     "    pub fn begin_timed(&mut self) {\n" + BEGIN),
    ("            (alloc::peak_bytes() - self.heap_floor.min(alloc::peak_bytes())) as u64;\n",
     "            (alloc::peak_bytes() - self.heap_floor.min(alloc::peak_bytes())) as u64;\n"
     "        alloc::sampler::stop();\n"),
])
PY

echo "building with line tables (a few minutes)" >&2
(cd "$work/src" && CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    CARGO_TARGET_DIR="$work/target" \
    cargo build -q --release --offline --manifest-path benchmark/Cargo.toml)

echo "running $workload, seed $seed $*" >&2
(cd "$work" && "$work/target/release/kmsg-benchmark" --workload "$workload" \
    --seed "$seed" --trace 0 "$@" > "$work/run.out")

python3 - "$work/run.out" "$workload" "$seed" "${SAMPLE_REP:-1}" <<'PY'
import re, sys

out, workload, seed, want = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
label = "warm-up" if want == 0 else f"timed {want}"
msgs, rows = None, []
for line in open(out):
    if line.startswith("site\t"):
        _, calls, size, key = line.rstrip("\n").split("\t", 3)
        rows.append((int(calls), int(size), key))
    m = re.match(rf"\s+{label}\s+msgs\s+(\d+)", line)
    if m:
        msgs = int(m.group(1))
if not msgs or not rows:
    sys.exit(f"alloc_sites: no sampled repetition '{label}' in the run's output")
total = sum(c for c, _, _ in rows)
print(f"{workload}, seed {seed}, {label}: {msgs} msgs, {total} calls sampled, "
      f"{total / msgs:.3f} per msg")
print(f"{'calls/msg':>10}  {'calls':>8}  {'B/call':>8}  site (innermost < caller)")
for calls, size, key in sorted(rows, key=lambda r: -r[0]):
    print(f"{calls / msgs:10.3f}  {calls:8d}  {size // calls:8d}  {key}")
PY
