package registry

import (
	"strings"
	"testing"
)

// TestFaultSpecValidation: a fault spec the device rule would silently
// rewrite (the bit position is masked into the register) is refused when the
// tool is built, for both front ends.
func TestFaultSpecValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		o    Options
		ok   bool
	}{
		{"default flip bit 0", Options{}, true},
		{"flip top bit", Options{FIModel: "flip", FIBit: 31}, true},
		{"flip bit past the register", Options{FIModel: "flip", FIBit: 32}, false},
		{"flip bit 40 (would flip bit 8)", Options{FIBit: 40}, false},
		{"flip2 top pair", Options{FIModel: "flip2", FIBit: 30}, true},
		{"flip2 at bit 31 (would flip one bit)", Options{FIModel: "flip2", FIBit: 31}, false},
		{"rand ignores the bit", Options{FIModel: "rand", FIBit: 99, FIValue: 7}, true},
		{"zero ignores the bit", Options{FIModel: "zero", FIBit: 99}, true},
		{"unknown model", Options{FIModel: "stuck"}, false},
		{"unknown group", Options{FIGroup: "fp128"}, false},
	} {
		_, err := New("faultinject", c.o)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want accepted = %v", c.name, err, c.ok)
		}
		if !c.ok && c.o.FIBit != 0 && !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: error %q does not name the range", c.name, err)
		}
	}
}
