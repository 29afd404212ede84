package registry

import (
	"strings"
	"testing"

	"nvbitgo/internal/core"
)

// TestFaultSpecValidation: New is where a session's spec is parsed, for both
// front ends. A spec it cannot parse is refused, whatever the tool, and so is
// a fault the device rule would silently rewrite (the bit position is masked
// into the register).
func TestFaultSpecValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		tool string
		o    Options
		want string // "" accepts; otherwise a substring of the error
	}{
		{"default flip bit 0", "faultinject", Options{}, ""},
		{"flip top bit", "faultinject", Options{FIModel: "flip", FIBit: 31}, ""},
		{"flip bit past the register", "faultinject", Options{FIModel: "flip", FIBit: 32}, "out of range"},
		{"flip bit 40 (would flip bit 8)", "faultinject", Options{FIBit: 40}, "out of range"},
		{"flip2 top pair", "faultinject", Options{FIModel: "flip2", FIBit: 30}, ""},
		{"flip2 at bit 31 (would flip one bit)", "faultinject", Options{FIModel: "flip2", FIBit: 31}, "out of range"},
		{"rand ignores the bit", "faultinject", Options{FIModel: "rand", FIBit: 99, FIValue: 7}, ""},
		{"zero ignores the bit", "faultinject", Options{FIModel: "zero", FIBit: 99}, ""},
		{"unknown model", "faultinject", Options{FIModel: "stuck"}, "unknown injection model"},
		{"unknown group", "faultinject", Options{FIGroup: "fp128"}, "fp128"},
		{"unknown model, another tool", "instrcount", Options{FIModel: "stuck"}, "unknown injection model"},
		{"block", "itrace", Options{Policy: "block"}, ""},
		{"bogus policy", "itrace", Options{Policy: "bogus"}, "backpressure policy"},
		{"bogus policy, no channel", "instrcount", Options{Policy: "bogus"}, "backpressure policy"},
		{"full-save", "instrcount", Options{Inject: "full-save"}, ""},
		{"bogus injection mode", "instrcount", Options{Inject: "bogus"}, "injection mode"},
		{"unknown tool", "no-such-tool", Options{}, "unknown tool"},
	} {
		_, err := New(c.tool, c.o)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestNewParsesTheSpec: "" builds the none tool, and the built instance
// carries its name and parsed injection mode, trampolines by default.
func TestNewParsesTheSpec(t *testing.T) {
	for _, c := range []struct {
		tool, inject string
		name         string
		mode         core.InjectionMode
	}{
		{"", "", "none", core.InjectTrampoline},
		{"none", "inline", "none", core.InjectInline},
		{"memcheck", "full-save", "memcheck", core.InjectFullSave},
		{"instrcount", "trampoline", "instrcount", core.InjectTrampoline},
	} {
		inst, err := New(c.tool, Options{Inject: c.inject})
		if err != nil || inst.Name != c.name || inst.Inject != c.mode {
			t.Fatalf("New(%q, inject %q) = %+v, %v; want %s with %v", c.tool, c.inject, inst, err, c.name, c.mode)
		}
		if _, none := inst.Tool.(noop); none != (c.name == "none") {
			t.Errorf("New(%q) built %T", c.tool, inst.Tool)
		}
	}
}
