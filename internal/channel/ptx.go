package channel

import (
	"fmt"
	"strings"
)

// This file generates the device-side half of the channel protocol: the
// fragment that claims record slots in the %smid-selected shard and the
// matching commit, written into the tool's device function. It is the common
// core that itrace, cachesim, memtrace and memcheck previously each
// hand-rolled as private ring-buffer code.
//
// The reservation is warp-aggregated (the CUDA warp-aggregated-atomics
// idiom): the lowest pushing lane — the leader — claims popc(ballot) slots
// with one global atomic and broadcasts the slot base with shfl, so the
// full-buffer decision is warp-uniform and a claiming warp always proceeds
// to write and commit. Per-lane spin loops would deadlock under the
// simulator's min-PC scheduling: spinning lanes at a low PC would starve
// the same warp's slot-holding lanes, whose commit the flush is waiting on.

// The fragments' fixed names. The tool's function keeps %r0–%r3, %rd0 and
// %p0–%p2 for itself and finds the record address in %rd1; the fragments use
// the registers from fragR, fragRD and fragP up, so the function declares
// .reg .u32 %r<11>, .reg .u64 %rd<6> and .reg .pred %p<5> or more. Of those,
// %rd2, %rd3 and %p3 carry the shard control address, the claimed slot count
// and the leader predicate from the claim to the commit; %rd4 and up, %r4 and
// up and %p4 are free in between.
const (
	ctrlParam = "ctrl" // the function's .u64 parameter holding CtrlAddr()
	recAddr   = "%rd1"
	fragR     = 4
	fragRD    = 2
	fragP     = 3
)

// ExpandToolPTX returns cfg.ToolPTX with its "@RESERVE@" line replaced by the
// claim fragment and its "@COMMIT@" line by the publish fragment — the
// source NVBit.OpenChannel registers. Contract for the function around them:
//   - It declares ".param .u64 ctrl" (the tool passes CtrlAddr()) and the
//     registers listed at fragR.
//   - At least one lane reaching the claim has PushPred true (ret lanes
//     that push nothing before it — an empty ballot would elect no leader).
//   - After the claim every pushing lane's %rd1 points at its slot (under
//     SharedSlot, every lane's at the shared one) in the shard's buffer;
//     non-pushing lanes' %rd1 aliases a pushing lane's slot, so
//     per-lane record stores are guarded by PushPred. Under Drop a warp that
//     finds the buffer full skips to the end of the commit instead.
//   - Between the two it does not write %rd2, %rd3 or %p3.
//   - The commit comes after every lane's record stores have been issued:
//     the leader adds the warp's claimed slot count to the shard's commit
//     counter, and the host ships a buffer only once commits cover every
//     claim.
//
// The Block-policy full path publishes the failed claim, then spins on a
// pure-load wait loop until the host's sweep-boundary flush resets the
// shard. The loop deliberately contains no atomics: a warp's burst can end
// anywhere, and a warp parked inside a load-only loop is quiescent, so it
// can never hold up the very flush it is waiting for.
func (cfg Config) ExpandToolPTX() (string, error) {
	if cfg.PushPred == "" {
		return "", fmt.Errorf("channel %s: no PushPred", cfg.Name)
	}
	if cfg.RecordBytes <= 0 || cfg.RecordBytes%8 != 0 {
		return "", fmt.Errorf("channel %s: record size %d not a positive multiple of 8", cfg.Name, cfg.RecordBytes)
	}
	if strings.Count(cfg.ToolPTX, "@RESERVE@") != 1 || strings.Count(cfg.ToolPTX, "@COMMIT@") != 1 ||
		!strings.Contains(cfg.ToolPTX, ".param .u64 "+ctrlParam) {
		return "", fmt.Errorf("channel %s: ToolPTX needs one @RESERVE@, one @COMMIT@ and a .param .u64 %s", cfg.Name, ctrlParam)
	}
	r := func(i int) string { return fmt.Sprintf("%%r%d", fragR+i) }
	rd := func(i int) string { return fmt.Sprintf("%%rd%d", fragRD+i) }
	p := func(i int) string { return fmt.Sprintf("%%p%d", fragP+i) }

	var b strings.Builder
	line := func(format string, args ...interface{}) {
		fmt.Fprintf(&b, "\t"+format+"\n", args...)
	}
	// Shard select: ctrl + %smid*64.
	line("ld.param.u64 %s, [%s];", rd(2), ctrlParam)
	line("mov.u32 %s, %%smid;", r(0))
	line("mov.u32 %s, %d;", r(1), ctrlBytes)
	line("mad.wide.u32 %s, %s, %s, %s;", rd(0), r(0), r(1), rd(2))
	// Warp aggregation: need = popc(push ballot); rank = pushing lanes
	// below me; leader = lowest pushing lane.
	line("vote.ballot.b32 %s, %s;", r(1), cfg.PushPred)
	line("popc.b32 %s, %s;", r(2), r(1))
	line("cvt.u64.u32 %s, %s;", rd(1), r(2))
	line("mov.u32 %s, %%laneid;", r(0))
	line("mov.u32 %s, 1;", r(3))
	line("shl.b32 %s, %s, %s;", r(3), r(3), r(0))
	line("sub.u32 %s, %s, 1;", r(3), r(3))
	line("and.b32 %s, %s, %s;", r(3), r(1), r(3))
	line("popc.b32 %s, %s;", r(3), r(3))
	line("not.b32 %s, %s;", r(4), r(1))
	line("add.u32 %s, %s, 1;", r(4), r(4))
	line("and.b32 %s, %s, %s;", r(4), r(1), r(4))
	line("sub.u32 %s, %s, 1;", r(4), r(4))
	line("popc.b32 %s, %s;", r(4), r(4))
	line("mov.u32 %s, 1;", r(0))
	line("selp.b32 %s, %s, %s, %s;", r(0), r(3), r(0), cfg.PushPred)
	line("setp.eq.u32 %s, %s, 0;", p(0), r(0))
	// Claim: leader fetch-adds need onto head; the old head is the slot
	// base, broadcast to the warp. Base and cap stay below 2^32 (buffer
	// epochs are reset every flush), so the full check is 32-bit.
	fmt.Fprintf(&b, "nvch_retry:\n")
	line("@%s atom.global.add.u64 %s, [%s], %s;", p(0), rd(2), rd(0), rd(1))
	line("cvt.u32.u64 %s, %s;", r(5), rd(2))
	line("shfl.idx.b32 %s, %s, %s;", r(5), r(5), r(4))
	line("add.u32 %s, %s, %s;", r(6), r(5), r(2))
	line("ld.global.u64 %s, [%s+%d];", rd(3), rd(0), offCap)
	line("cvt.u32.u64 %s, %s;", r(0), rd(3))
	line("setp.gt.u32 %s, %s, %s;", p(1), r(6), r(0))
	line("@%s bra nvch_full;", p(1))
	// Success: slot address in the shard's buffer.
	line("ld.global.u64 %s, [%s+%d];", rd(2), rd(0), offBuf)
	line("mov.u32 %s, %d;", r(0), cfg.RecordBytes)
	if cfg.SharedSlot {
		line("mad.wide.u32 %s, %s, %s, %s;", recAddr, r(5), r(0), rd(2))
	} else {
		line("add.u32 %s, %s, %s;", r(6), r(5), r(3))
		line("mad.wide.u32 %s, %s, %s, %s;", recAddr, r(6), r(0), rd(2))
	}
	line("bra nvch_done;")
	fmt.Fprintf(&b, "nvch_full:\n")
	line("@%s red.global.add.u64 [%s+%d], %s;", p(0), rd(0), offFailed, rd(1))
	if cfg.Policy == Drop {
		line("bra nvch_skip;")
	} else {
		// Wait (load-only, see above) until a flush has reset the shard,
		// then re-claim. Head only grows within an epoch and the failed
		// claim took it to the claim's end (r(6), warp-uniform), so a head
		// below that means a new epoch, whether or not it has room: a
		// claim that fails in it wedges it, and the flush follows.
		fmt.Fprintf(&b, "nvch_wait:\n")
		line("ld.global.u64 %s, [%s+%d];", rd(2), rd(0), offHead)
		line("cvt.u32.u64 %s, %s;", r(0), rd(2))
		line("setp.ge.u32 %s, %s, %s;", p(1), r(0), r(6))
		line("@%s bra nvch_wait;", p(1))
		line("bra nvch_retry;")
	}
	fmt.Fprintf(&b, "nvch_done:\n")
	commit := fmt.Sprintf("\t@%s red.global.add.u64 [%s+%d], %s;\nnvch_skip:\n", p(0), rd(0), offCommit, rd(1))
	src := strings.Replace(cfg.ToolPTX, "@RESERVE@", b.String(), 1)
	return strings.Replace(src, "@COMMIT@", commit, 1), nil
}
