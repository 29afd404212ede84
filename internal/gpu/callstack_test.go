package gpu

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nvbitgo/internal/sass"
)

// Call and save stacks (docs/scheduler.md, "Warp state and the step loop")
// are kept per level while the live lanes share a depth and per lane once
// they do not. These tests hold every shape the two forms pass through to
// what the lane-by-lane stacks they replaced produced.

// shapeProlog puts the global thread index in R0 (storeR9's index), the lane
// in R1 and 0 in R9.
const shapeProlog = `
	S2R R0, SR_TID.X
	S2R R2, SR_CTAID.X
	S2R R3, SR_NTID.X
	IMAD R0, R2, R3, R0
	S2R R1, SR_LANEID
	MOVI R9, 0
	MOVI R11, 1
`

// predsToR9 folds P0..P2 into R9 (as R9*8 + P2P1P0), through SEL, which
// knows nothing of save frames.
const predsToR9 = `
	MOVI R13, 8
	IMUL R9, R9, R13
	SEL R12, R11, RZ, P0
	IADD R9, R9, R12, 0
	SEL R12, R11, RZ, P1
	SHL R12, R12, RZ, 1
	IADD R9, R9, R12, 0
	SEL R12, R11, RZ, P2
	SHL R12, R12, RZ, 2
	IADD R9, R9, R12, 0
`

// shapeLaunch is one kernel of a TestCallStackShapes case.
type shapeLaunch struct {
	src   string
	grid  int
	block int
}

// shapeCases are the kernels of TestCallStackShapes. A case with several
// launches runs them in order on one device; a nil entry closes it and takes
// a new one, which is handed the closed device's pooled warps.
var shapeCases = []struct {
	name     string
	launches []*shapeLaunch
}{
	{"converged calls nested to depth 3", []*shapeLaunch{{shapeProlog + `
		CAL f1
		IADD R9, R9, RZ, 1000
	` + storeR9 + `
	f1:
		IADD R9, R9, R1, 1
		CAL f2
		IADD R9, R9, RZ, 100
		RET
	f2:
		IMAD R9, R9, R1, R1
		CAL f3
		IADD R9, R9, RZ, 10
		RET
	f3:
		IADD R9, R9, R1, 3
		RET
	`, 1, 32}}},
	{"guarded call", []*shapeLaunch{{shapeProlog + `
		ISETP.LT P0, R1, RZ, 12
		@P0 CAL f
		IADD R9, R9, RZ, 1000
	` + storeR9 + `
	f:
		IADD R9, R9, R1, 7
		ISETP.LT P1, R1, RZ, 5
		@P1 CAL g
		CAL g
		RET
	g:
		IADD R9, R9, RZ, 50
		RET
	`, 1, 40}}},
	{"two call sites reconverge in the callee", []*shapeLaunch{{shapeProlog + `
		LOP.AND R4, R1, RZ, 1
		ISETP.EQ P0, R4, RZ, 0
		@P0 BRA evens
		CAL f
		IADD R9, R9, RZ, 10
		BRA join
	evens:
		CAL f
		IADD R9, R9, RZ, 20
	join:
	` + storeR9 + `
	f:
		IADD R9, R9, R1, 0
		CAL g
		RET
	g:
		IADD R9, R9, RZ, 300
		ISETP.LT P1, R1, RZ, 8
		@P1 CAL h
		RET
	h:
		IADD R9, R9, RZ, 4000
		RET
	`, 1, 32}}},
	{"exit inside a callee", []*shapeLaunch{{shapeProlog + `
		ISETP.LT P0, R1, RZ, 20
		@P0 CAL f
		IADD R9, R9, RZ, 1000
		CAL k
		IADD R9, R9, RZ, 20000
	` + storeR9 + `
	f:
		IADD R9, R9, R1, 5
		CAL g
		IADD R9, R9, RZ, 70
		RET
	g:
		ISETP.LT P1, R1, RZ, 6
		@P1 EXIT
		IADD R9, R9, RZ, 600
		RET
	k:
		ISETP.GE P2, R1, RZ, 28
		@P2 EXIT
		RET
	`, 1, 32}}},
	{"call overflow, live lanes at one depth", []*shapeLaunch{{shapeProlog + `
		ISETP.LT P0, R1, RZ, 3
		@P0 EXIT
	rec:
		IADD R9, R9, RZ, 1
		CAL rec
		EXIT
	`, 1, 32}}},
	{"call overflow, lanes at different depths", []*shapeLaunch{{shapeProlog + `
		ISETP.GE P0, R1, RZ, 5
	rec:
		@P0 CAL rec
		EXIT
	`, 1, 32}}},
	{"return underflow, live lanes at one depth", []*shapeLaunch{{shapeProlog + `
		ISETP.LT P0, R1, RZ, 3
		@P0 EXIT
		CAL f
		RET
	f:
		RET
	`, 1, 32}}},
	{"return underflow, lanes at different depths", []*shapeLaunch{{shapeProlog + `
		ISETP.GE P0, R1, RZ, 5
		ISETP.GE P2, R1, RZ, 2
		@P0 CAL f
		@P2 RET
		EXIT
	f:
		RET
	`, 1, 32}}},
	{"predicate and barrier saves on the push cohort", []*shapeLaunch{{shapeProlog + `
		LOP.AND R4, R1, RZ, 3
		ISETP.EQ P0, R4, RZ, 1
		ISETP.LT P1, R1, RZ, 16
		SAVEPUSH 2
		STSP
		STSB
		ISETP.EQ P0, RZ, RZ, 0
		ISETP.NE P1, RZ, RZ, 0
		LDSB
		LDSP
		RDPRED R9
	` + predsToR9 + `
		ISETP.LT P2, R1, RZ, 9
		@P2 SAVEPUSH 1
		@P2 STSP
		@P2 STSB
		@P2 RDPRED R10
		IADD R9, R9, R10, 0
		ISETP.NE P0, RZ, RZ, 0
		@P2 LDSB
		@P2 LDSP
		MOVI R5, 0x15
		@P1 WRPRED R5
		@P1 LDSP
	` + predsToR9 + `
		ISETP.LT P2, R1, RZ, 9
		@P2 SAVEPOP
		SAVEPOP
	` + storeR9, 1, 32}}},
	{"predicate and barrier saves off the push cohort", []*shapeLaunch{{shapeProlog + `
		LOP.AND R4, R1, RZ, 1
		ISETP.EQ P0, R4, RZ, 0
		ISETP.LT P1, R1, RZ, 16
		@P0 SAVEPUSH 1
		@P0 STSP
		SAVEPUSH 2
		STSP
		STSB
		ISETP.NE P0, RZ, RZ, 0
		ISETP.EQ P1, RZ, RZ, 0
		LDSP
		LDSB
		RDPRED R9
	` + predsToR9 + `
		SAVEPOP
		@P0 LDSP
		@P0 LDSB
	` + predsToR9 + storeR9, 1, 32}, {shapeProlog + `
		LOP.AND R4, R1, RZ, 1
		ISETP.EQ P0, R4, RZ, 0
		@P0 SAVEPUSH 1
		ISETP.LT P2, R1, RZ, 7
		@P2 LDSB
		EXIT
	`, 1, 32}}},
	{"pooled warp after a CTA that ended at mixed depths", []*shapeLaunch{
		{shapeProlog + `
		LOP.AND R4, R1, RZ, 1
		ISETP.EQ P0, R4, RZ, 0
		ISETP.LT P1, R1, RZ, 10
		@P1 SAVEPUSH 3
		@P0 CAL f
		IADD R9, R9, R1, 1
		ISETP.GE P2, R1, RZ, 24
		@P2 SAVEPUSH 1
		@P2 CAL f
	` + storeR9 + `
	f:
		@P1 CAL g
		IADD R9, R9, RZ, 5
		@P1 EXIT
		RET
	g:
		SAVEPUSH 2
		ISETP.LT P2, R1, RZ, 4
		@P2 EXIT
		SAVEPOP
		RET
	`, 2, 32},
		{shapeProlog + `
		CAL f
		IADD R9, R9, R1, 100
	` + storeR9 + `
	f:
		SAVEPUSH 1
		RDPRED R9
		IADD R9, R9, R1, 7
		SAVEPOP
		RET
	`, 2, 32},
		nil,
		{shapeProlog + `
		CAL f
		IADD R9, R9, R1, 100
	` + storeR9 + `
	f:
		SAVEPUSH 1
		RDPRED R9
		IADD R9, R9, R1, 7
		SAVEPOP
		RET
	`, 2, 32},
		{shapeProlog + "SAVEPOP\nEXIT", 1, 32},
		{shapeProlog + "RET\nEXIT", 1, 32},
	}},
}

// shapeDigests are the digests of what shapeCases leave, recorded on the
// lane-by-lane call and save stacks. The two schedulers leave the same.
var shapeDigests = map[string]string{
	"converged calls nested to depth 3":                  "bce8cb1309fe45a0",
	"guarded call":                                       "437a35cc055fab34",
	"two call sites reconverge in the callee":            "e9f234a1e86e96a7",
	"exit inside a callee":                               "8bd598be5c309f90",
	"call overflow, live lanes at one depth":             "d111043a528d1ada",
	"call overflow, lanes at different depths":           "cb7218c67ab654c8",
	"return underflow, live lanes at one depth":          "41f69ef261feee35",
	"return underflow, lanes at different depths":        "f9928852865e14ed",
	"predicate and barrier saves on the push cohort":     "dddb591eed938576",
	"predicate and barrier saves off the push cohort":    "a5d61a5abfaafd2e",
	"pooled warp after a CTA that ended at mixed depths": "795e8b89d931b91f",
}

// runShape launches one kernel of a shape case and returns what it left:
// the out array, the launch's Stats and the fault, if any.
func runShape(t *testing.T, d *Device, l *shapeLaunch) string {
	t.Helper()
	const words = 128
	out, err := d.Malloc(4 * words)
	if err != nil {
		t.Fatal(err)
	}
	entry := loadSASS(t, d, l.src)
	st, err := d.Launch(LaunchSpec{Entry: entry, Name: "shape", Grid: D1(l.grid), Block: D1(l.block), Params: u64param(out)})
	fault := "none"
	if err != nil {
		f, ok := AsFault(err)
		if !ok {
			t.Fatal(err)
		}
		fault = fmt.Sprintf("%v pc=entry+%d lane=%d cta=%v warp=%d %q %s", f.Kind, f.PC-int32(entry), f.Lane, f.CTA, f.Warp, f.Detail, f.SASS)
	}
	buf := make([]byte, 4*words)
	if err := d.Read(out, buf); err != nil {
		t.Fatal(err)
	}
	var vals [words]uint32
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	return fmt.Sprintf("%v\n%+v\n%s\n", vals, st, fault)
}

// TestCallStackShapes runs every case under both schedulers and compares
// the digest of what each launch left with the recorded one.
func TestCallStackShapes(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, kind SchedulerKind) {
		for _, c := range shapeCases {
			d := faultDevice(t, kind)
			h := sha256.New()
			for _, l := range c.launches {
				if l == nil {
					d.Close()
					d = faultDevice(t, kind)
					continue
				}
				fmt.Fprint(h, runShape(t, d, l))
			}
			d.Close()
			if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != shapeDigests[c.name] {
				t.Errorf("%s: digest %s, recorded %s", c.name, got, shapeDigests[c.name])
			}
		}
	})
}

// callFuzzProgram nests depth calls and then calls f from one site, or
// (split) from two: `@P0 CAL f` and `@!P0 CAL f`, whose lanes reconverge in
// f and return to different PCs. f calls g under P1, and g returns early
// under P2. Nothing a lane computes depends on the PCs it returns to.
func callFuzzProgram(depth int, split bool) string {
	site := "CAL f\n"
	if split {
		site = "@P0 CAL f\n@!P0 CAL f\n"
	}
	var b strings.Builder
	for k := 0; k <= depth; k++ {
		if k > 0 {
			fmt.Fprintf(&b, "w%d:\n", k)
		}
		if k == depth {
			b.WriteString(site)
		} else {
			fmt.Fprintf(&b, "CAL w%d\n", k+1)
		}
		fmt.Fprintf(&b, "IADD R9, R9, R1, %d\n", 11*k)
		if k == 0 {
			b.WriteString("EXIT\n")
		} else {
			b.WriteString("RET\n")
		}
	}
	b.WriteString(`
	f:
		IMAD R9, R9, R3, R0
		@P1 CAL g
		STL [RZ+8], R9
		IADD R9, R9, RZ, 5
		RET
	g:
		IADD R9, R9, R2, 0
		@P2 RET
		IMUL R9, R9, R4
		STL [RZ+4], R9
		RET
	`)
	return b.String()
}

// callFuzzDepths bounds the nesting FuzzCallMasks puts around the call site.
const callFuzzDepths = 4

// callFuzzHarnesses holds the whole and the split program at each depth,
// built on first use.
var callFuzzHarnesses [callFuzzDepths][2]*stepHarness

// runToExit runs the harness's warp until every lane has exited.
func (h *stepHarness) runToExit(t testing.TB) {
	h.c.wdLeft = 1 << 20
	for h.w.live != 0 {
		if err := h.c.step(h.w); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzCallMasks is a metamorphic test of the call stacks: calling f from
// `@P0 CAL f ; @!P0 CAL f` must leave every live lane's registers and local
// memory as one unguarded `CAL f` does, whatever the live lanes, the guards
// and the nesting around the call.
func FuzzCallMasks(f *testing.F) {
	f.Add(uint32(fullMask), uint32(0x5555aaaa), uint8(0), int64(1))
	f.Add(uint32(fullMask), uint32(fullMask), uint8(1), int64(2))
	f.Add(uint32(0xffff00f0), uint32(0x0f0f0f0f), uint8(2), int64(3))
	f.Add(uint32(1<<31|1), uint32(1), uint8(3), int64(4))
	f.Fuzz(func(t *testing.T, live, p0 uint32, depth uint8, seed int64) {
		if callFuzzHarnesses[0][0] == nil {
			d := newTestDevice(t, sass.Volta)
			for k := range callFuzzHarnesses {
				for s := range callFuzzHarnesses[k] {
					h := &stepHarness{entry: int32(loadSASS(t, d, callFuzzProgram(k, s == 1)))}
					h.c = d.newExecContext(LaunchSpec{Entry: CodeAddr(h.entry), Grid: D1(1), Block: D1(WarpSize)}, d.l2)
					h.w = h.c.warps[0]
					callFuzzHarnesses[k][s] = h
				}
			}
		}
		if live == 0 {
			live = 1
		}
		pair := callFuzzHarnesses[int(depth)%callFuzzDepths]
		r := rand.New(rand.NewSource(seed))
		var regs [rowRegs][WarpSize]uint32
		var preds [WarpSize]uint8
		for k := range regs {
			for i := range regs[k] {
				regs[k][i] = r.Uint32()
			}
		}
		for i := range preds {
			preds[i] = uint8(r.Intn(128))&^1 | uint8(p0>>uint(i)&1)
		}
		for _, h := range pair {
			h.w.reset(0, WarpSize, h.entry)
			h.w.live, h.w.act = live, live
			copy(h.w.regs[:rowRegs], regs[:])
			h.w.preds = preds
			for i := range h.w.local {
				clear(h.w.local[i])
			}
			h.runToExit(t)
		}
		whole, split := pair[0].w, pair[1].w
		for m := live; m != 0; m &= m - 1 {
			i := lane(m)
			for k := 0; k < rowRegs; k++ {
				if whole.regs[k][i] != split.regs[k][i] {
					t.Fatalf("live %#x, P0 %#x, depth %d: lane %d R%d = %#x split, %#x whole", live, p0, depth, i, k, split.regs[k][i], whole.regs[k][i])
				}
			}
			if string(whole.local[i]) != string(split.local[i]) {
				t.Fatalf("live %#x, P0 %#x, depth %d: lane %d local memory differs", live, p0, depth, i)
			}
		}
	})
}

// BenchmarkStepCall is the host cost of a CAL+RET and an STSP+LDSP pair on
// a full warp and with one lane guarded off. CI compares the two: the full
// warp calls, returns and saves as one.
func BenchmarkStepCall(b *testing.B) {
	for _, pair := range []struct{ name, prog string }{
		// The callee lies below the call, so the warp issues the RET next
		// whatever lane the guard holds back.
		{"cal+ret", "f:\n@P0 RET\nmain:\n@P0 CAL f\nEXIT"},
		{"stsp+ldsp", "SAVEPUSH 4\nmain:\n@P0 STSP\n@P0 LDSP\nEXIT"},
	} {
		for _, mask := range []struct {
			name string
			p0   uint32
		}{{"full", fullMask}, {"lanes31", fullMask &^ (1 << 13)}} {
			b.Run(pair.name+"/"+mask.name, func(b *testing.B) {
				d := newTestDevice(b, sass.Volta)
				h := &stepHarness{entry: int32(loadSASS(b, d, pair.prog))}
				h.c = d.newExecContext(LaunchSpec{Entry: CodeAddr(h.entry), Grid: D1(1), Block: D1(WarpSize)}, d.l2)
				h.w = h.c.warps[0]
				h.w.reset(0, WarpSize, h.entry)
				for i := range h.w.preds {
					h.w.preds[i] = uint8(mask.p0 >> uint(i) & 1)
				}
				main := h.entry + 1
				if pair.name == "stsp+ldsp" {
					h.c.wdLeft = 1
					if err := h.c.step(h.w); err != nil { // SAVEPUSH, once
						b.Fatal(err)
					}
				}
				run := func() {
					h.w.upc, h.c.wdLeft = main, 2
					for k := 0; k < 2; k++ {
						if err := h.c.step(h.w); err != nil {
							b.Fatal(err)
						}
					}
				}
				run() // the first fetches decode and allocate the chunk's cache
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					run()
				}
			})
		}
	}
}
