package registry

import (
	"slices"
	"strings"
	"testing"

	"nvbitgo/internal/core"
)

// TestFaultSpecValidation: New is where a session's spec is parsed, for both
// front ends. A spec it cannot parse is refused, whatever the tool, and so is
// a fault the device rule would silently rewrite (the bit position is masked
// into the register) or a fault field its model does not read.
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
		{"rand with a value", "faultinject", Options{FIModel: "rand", FIValue: 7}, ""},
		{"rand with a bit", "faultinject", Options{FIModel: "rand", FIBit: 99, FIValue: 7}, "model rand does not read bit"},
		{"zero with a bit", "faultinject", Options{FIModel: "zero", FIBit: 99}, "model zero does not read bit"},
		{"zero with a value", "faultinject", Options{FIModel: "zero", FIValue: 5}, "model zero does not read value"},
		{"flip with a value", "faultinject", Options{FIModel: "flip", FIBit: 3, FIValue: 7}, "model flip does not read value"},
		{"flip2 with a value", "faultinject", Options{FIModel: "flip2", FIValue: 7}, "model flip2 does not read value"},
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
// carries its name and parsed injection mode, trampolines by default. None
// injects nothing, so it refuses any other mode.
func TestNewParsesTheSpec(t *testing.T) {
	for _, c := range []struct {
		tool, inject string
		name         string
		mode         core.InjectionMode
	}{
		{"", "", "none", core.InjectTrampoline},
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
	if _, err := New("none", Options{Inject: "inline"}); err == nil || err.Error() != "tool none does not read inject" {
		t.Errorf("none with inline: err = %v", err)
	}
}

// readTable is which spec fields each tool reads. Every row but none injects
// code and so reads the injection mode.
var readTable = map[string][]string{
	"none":            nil,
	"instrcount":      {"inject"},
	"instrcount-bb":   {"inject"},
	"memdiv":          {"inject"},
	"ophisto":         {"inject"},
	"ophisto-sampled": {"inject"},
	"cachesim":        {"policy", "inject"},
	"itrace":          {"policy", "inject"},
	"memcheck":        {"policy", "inject"},
	"memtrace":        {"policy", "inject"},
	"faultinject":     {"inject", "fiGroup", "fiModel", "fiTarget", "fiBit", "fiValue"},
}

// TestReadTable pins which tool reads which spec field, and holds New to it:
// each field set to a value other than its default builds every tool that
// reads it and is refused, naming the tool and the field, by every other;
// set to its default, or left empty, it builds every tool.
func TestReadTable(t *testing.T) {
	if names := Names(); len(names) != len(readTable) {
		t.Fatalf("catalog %v, table of %d tools", names, len(readTable))
	}
	for _, name := range Names() {
		if got, want := ReadsOf(name), readTable[name]; !slices.Equal(got, want) {
			t.Errorf("ReadsOf(%q) = %v, want %v", name, got, want)
		}
	}
	for _, c := range []struct {
		field               string
		set, dflt, wireDflt Options
	}{
		{"policy", Options{Policy: "block"}, Options{}, Options{Policy: "drop"}},
		{"inject", Options{Inject: "full-save"}, Options{}, Options{Inject: "trampoline"}},
		{"fiGroup", Options{FIGroup: "fp32"}, Options{}, Options{FIGroup: "gpr"}},
		{"fiModel", Options{FIModel: "zero"}, Options{}, Options{FIModel: "flip"}},
		{"fiTarget", Options{FITarget: 9}, Options{}, Options{}},
		{"fiBit", Options{FIBit: 5}, Options{}, Options{}},
		{"fiValue", Options{FIValue: 7}, Options{}, Options{}},
	} {
		for _, name := range Names() {
			reads := slices.Contains(readTable[name], c.field)
			o := c.set
			if reads && c.field == "fiValue" {
				o.FIModel = "rand" // flip, the default model, reads no value
			}
			_, err := New(name, o)
			if reads && err != nil {
				t.Errorf("%s with %s set: %v", name, c.field, err)
			}
			if want := "tool " + name + " does not read " + c.field; !reads && (err == nil || err.Error() != want) {
				t.Errorf("%s with %s set: err = %v, want %q", name, c.field, err, want)
			}
			for _, o := range []Options{c.dflt, c.wireDflt} {
				if _, err := New(name, o); err != nil {
					t.Errorf("%s with %s at its default (%+v): %v", name, c.field, o, err)
				}
			}
		}
	}
	// Every field the spec sets but the tool ignores is named.
	_, err := New("instrcount", Options{Policy: "block", FIBit: 5})
	if want := "tool instrcount does not read policy, fiBit"; err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}
