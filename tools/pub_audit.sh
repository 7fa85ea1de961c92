#!/bin/sh
# Public-surface audit: for each crate under crates/, the `pub` items (fn,
# struct, enum, trait, type, const, static, mod) declared in its library
# (src/ without src/bin/) whose names appear in none of:
#
#   another crate (any of its files);
#   the crate's own binaries (src/bin/: each is a crate of its own, which
#   can use only the library's `pub` items);
#   any crate's tests/, the crate's own included;
#   the root src/, tests/ or examples/;
#   benchmark/src;
#   a doc test (a ``` block in a `///` or `//!` comment, any crate).
#
# Rustc's dead-code lint cannot see an unused `pub` item, so such an item
# is either dead code in hiding or internal API that should say so. The
# grep only proposes: an item it lists may still be needed by another
# compilation unit, which the compiler tells when the item is narrowed.
# Declarations after a file's first `#[cfg(test)]` are not counted, as in
# tools/loc.sh; nor are comment lines in what is searched.
#
# An item that no other crate names but that a public signature or a
# `pub use` needs stays `pub`; such items are listed in KEEP below with the
# signature that needs them, and are not counted. A KEEP entry that is no
# longer declared, or that something outside now names, is stale and
# fails the audit, so the list stays true.
#
# Every crate's count must be 0: the audit fails on any counted item.
#
# The grep cannot see methods and fields. It never reads a field, and a
# method counts as named whenever its name appears outside: names such as
# `id`, `local` or `config` recur across crates by coincidence. The
# compiler can tell: the sweep in docs/lab/PR-52.md ("The sweep") narrows
# every `pub` to `pub(crate)`, widens back what the workspace, the
# benchmark and the doc tests reject, and deletes what rustc's dead-code
# lint then names.
#
#   tools/pub_audit.sh [--list] [repo-root]
#
# --list also prints each counted item as `file:line: kind name`.
set -u

list=0
if [ "${1:-}" = --list ]; then
    list=1
    shift
fi
cd "${1:-$(dirname "$0")/..}" || exit 2

# crate name — the public signature or re-export that needs the item.
KEEP='
apps ConvergeReport — pub fn run_converging_senders(spec: &ConvergeSpec) -> ConvergeReport (topology.rs)
apps FaultSpec — pub field ScenarioSpec::faults: Vec<FaultSpec> (fuzz.rs)
apps PingStats — pub field ExperimentResult::ping: Option<PingStats> (experiment.rs); pub fn Pinger::stats(&self) -> PingStatsHandle (ping.rs)
apps ReceiverStats — pub fn FileReceiver::stats(&self) -> ReceiverStatsHandle (transfer.rs)
apps SenderStats — pub fn FileSender::stats(&self) -> SenderStatsHandle (transfer.rs)
apps Topology — pub fn star_fanin(net: &Network, senders: usize) -> Topology (topology.rs)
bench SweepOutcome — pub fn sweep_seeds(..) -> SweepOutcome<R> (fuzzer.rs)
core Address — pub trait Header<A: Address> (header.rs)
core CodecError — pub fn decompress(..) -> Result<Vec<u8>, CodecError> (codec.rs)
core DataNetwork — pub fn create_data_network(..) -> Result<DataNetwork, BindError> (data/mod.rs)
core Header — pub use in prelude: NetHeader accessors are its methods, called through the glob import (lib.rs doc test)
core ProtocolFraction — pub fn Ratio::fraction(self, max_total: u64) -> ProtocolFraction (data/ratio.rs)
core SupervisionSummary — pub fn MiddlewareStats::supervision(&self) -> SupervisionSummary (net/stats.rs)
learning ActionIdx — pub fn RatioSpace::transition(&self, s: StateIdx, a: ActionIdx) -> StateIdx (space.rs)
netsim Conn — pub type TcpConn = Conn<TcpConfig> (tcp.rs), pub type UdtConn = Conn<UdtConfig> (udt.rs)
netsim FaultEvent — pub fn FaultPlan::events(&self) -> &[FaultEvent] (faults.rs)
netsim FxHasher — pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>> (slab.rs)
netsim Handle — pub type PacketHandle = Handle<Packet> (pool.rs)
netsim Link — pub fn Network::link(&self, id: LinkId) -> Link (network.rs)
netsim LinkStats — pub fn Link::stats(&self) -> LinkStats (link.rs)
netsim Listener — pub type TcpListener = Listener<TcpConfig> (tcp.rs), pub type UdtListener = Listener<UdtConfig> (udt.rs)
netsim NetworkStats — pub fn Network::stats(&self) -> NetworkStats (network.rs)
netsim SeqRanges — pub enum UdtPacket { Nak { ranges: SeqRanges, .. }, .. } (udt.rs)
netsim TcpConnStats — pub fn TcpConn::stats(&self) -> TcpConnStats (tcp.rs)
netsim TcpSegment — pub enum PacketBody { Tcp(TcpSegment), .. } (packet.rs)
netsim UdpSendError — pub fn UdpSocket::send_to(..) -> Result<(), UdpSendError> (udp.rs)
netsim UdtConnStats — pub fn UdtConn::stats(&self) -> UdtConnStats (udt.rs)
netsim UdtPacket — pub enum PacketBody { Udt(UdtPacket), .. } (packet.rs)
netsim WheelEntry — pub fn TimingWheel::pop_cohort(&mut self, at: SimTime, out: &mut Vec<WheelEntry<T>>) (wheel.rs)
telemetry Level — the log_*! macros expand to $crate::log::Level (log.rs)
telemetry RecoveryAttribution — pub fn recovery_attribution(forest: &SpanForest) -> Option<RecoveryAttribution> (critical_path.rs)
'

tmp=$(mktemp -d "${TMPDIR:-/tmp}/pub_audit.XXXXXX") || exit 2
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' HUP INT TERM

# decls <src dir>: "file:line kind name" for each `pub` item of the library
# (src/bin/ left out) declared before its file's first `#[cfg(test)]`.
decls() {
    find "$1" -path "$1/bin" -prune -o -name '*.rs' -print | sort | xargs awk '
        FNR == 1 { skip = 0 }
        /#\[cfg\(test\)\]/ { skip = 1 }
        skip { next }
        {
            line = $0
            if (!sub(/^[ \t]*pub[ \t]+/, "", line)) next
            sub(/^((const|async|unsafe|extern "[^"]*")[ \t]+)+fn[ \t]/, "fn ", line)
            if (match(line, /^(fn|struct|enum|trait|type|const|static|mod)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
                split(substr(line, 1, RLENGTH), w, /[ \t]+/)
                print FILENAME ":" FNR " " w[1] " " w[2]
            }
        }'
}

# rust_lines [all]: from the Rust read on stdin, the code lines of its doc
# tests (the `///` or `//!` taken off) and, given `all`, its other code
# lines too. Comment lines never count.
rust_lines() {
    awk -v all="${1:-}" '
        /^[ \t]*\/\/[\/!]/ {
            text = $0
            sub(/^[ \t]*\/\/[\/!][ \t]?/, "", text)
            if (text ~ /^```/) { fence = !fence; next }
            if (fence) print text
            next
        }
        /^[ \t]*\/\// { next }
        all { print }'
}

# idents: the identifiers in stdin, one per line, sorted.
idents() {
    grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u
}

# What every crate's outside shares: the root src/, tests/ and examples/,
# benchmark/src, every crate's tests/, and every doc test (each compiles as
# a crate of its own).
shared_dirs="src tests examples benchmark/src"
for d in crates/*/tests; do shared_dirs="$shared_dirs $d"; done
# shellcheck disable=SC2086
{
    find $shared_dirs -name '*.rs' -print0 | xargs -0 cat | rust_lines all
    find crates/*/src -name '*.rs' -print0 | xargs -0 cat | rust_lines
} | idents >"$tmp/shared"

status=0
for src in crates/*/src; do
    crate=${src%/src}
    crate=${crate#crates/}
    # shellcheck disable=SC2046
    {
        find $(for o in crates/*/src; do [ "$o" = "$src" ] || echo "$o"; done) \
            -name '*.rs' -print0
        [ ! -d "$src/bin" ] || find "$src/bin" -name '*.rs' -print0
    } | xargs -0 cat | rust_lines all |
        idents | sort -u -m - "$tmp/shared" >"$tmp/outside"
    decls "$src" >"$tmp/decls"
    total=$(wc -l <"$tmp/decls")
    printf '%s\n' "$KEEP" | awk -v c="$crate" '$1 == c { print $2 }' | sort -u >"$tmp/keep"
    # Declarations whose name nothing outside uses, KEEP entries aside.
    awk 'FILENAME == ARGV[1] { out[$1] = 1; next }
         FILENAME == ARGV[2] { keep[$1] = 1; next }
         !($3 in out) && !($3 in keep)' "$tmp/outside" "$tmp/keep" "$tmp/decls" >"$tmp/unnamed"
    count=$(wc -l <"$tmp/unnamed")
    verdict=ok
    if [ "$count" -gt 0 ]; then
        verdict=FAIL
        status=1
    fi
    printf '%-10s %4d of %4d pub items named nowhere outside %s\n' \
        "$crate" "$count" "$total" "$verdict"
    [ "$list" = 0 ] || sed 's/^/    /' "$tmp/unnamed"
    # Stale KEEP entries: not declared `pub` here, or named outside.
    while read -r name; do
        if ! awk -v n="$name" '$3 == n { found = 1 } END { exit !found }' "$tmp/decls"; then
            echo "    stale KEEP entry: $crate $name is not a pub item of $src"
            status=1
        elif grep -qx "$name" "$tmp/outside"; then
            echo "    stale KEEP entry: $crate $name is named outside the crate"
            status=1
        fi
    done <"$tmp/keep"
done
exit $status
