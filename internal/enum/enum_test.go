package enum_test

import (
	"fmt"
	"strings"
	"testing"

	"nvbitgo/internal/channel"
	"nvbitgo/internal/core"
	"nvbitgo/internal/enum"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/tools/faultinject"
	"nvbitgo/internal/workloads/specaccel"
)

// roundTrip checks one enumeration from its String and Parse: every named
// value parses back from its name, the first unnamed one prints as
// typ(n), and neither it, nor the empty name, parses.
func roundTrip[T ~int](t *testing.T, typ string, names []string, str func(T) string, parse func(string) (T, error)) {
	t.Helper()
	for i, name := range names {
		v := T(i)
		if got := str(v); got != name {
			t.Errorf("%s(%d).String() = %q, want %q", typ, i, got, name)
		}
		if got, err := parse(name); err != nil || got != v {
			t.Errorf("parsing %q = %v, %v; want %d", name, got, err, i)
		}
	}
	past := T(len(names))
	if got, want := str(past), fmt.Sprintf("%s(%d)", typ, len(names)); got != want {
		t.Errorf("%s(%d).String() = %q, want %q", typ, len(names), got, want)
	}
	want := "(want " + strings.Join(names, ", ") + ")"
	for _, s := range []string{"", str(past), strings.ToUpper(names[0])} {
		if _, err := parse(s); err == nil || !strings.HasPrefix(err.Error(), "unknown ") || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("%s: parsing %q: err = %v, want `unknown … %q %s`", typ, s, err, s, want)
		}
	}
}

// TestTablesRoundTrip: every enumeration that names its values through this
// package prints each named value as its table says and parses it back, and
// refuses anything else with the one error shape.
func TestTablesRoundTrip(t *testing.T) {
	roundTrip(t, "Policy", []string{"drop", "block"}, channel.Policy.String, channel.ParsePolicy)
	roundTrip(t, "SchedulerKind", []string{"sequential", "parallel"}, gpu.SchedulerKind.String, gpu.ParseScheduler)
	roundTrip(t, "InjectionMode", []string{"trampoline", "full-save", "inline"}, core.InjectionMode.String, core.ParseInjectionMode)
	roundTrip(t, "Group", []string{"gpr", "fp32", "fp64", "ld", "all"}, faultinject.Group.String, faultinject.ParseGroup)
	roundTrip(t, "Model", []string{"flip", "flip2", "rand", "zero"}, faultinject.Model.String, faultinject.ParseModel)
	roundTrip(t, "Size", []string{"small", "medium", "large"}, specaccel.Size.String, specaccel.ParseSize)
	if faultinject.NumGroups != 5 || faultinject.NumModels != 4 {
		t.Errorf("faultinject has %d groups and %d models; the tables above name 5 and 4", faultinject.NumGroups, faultinject.NumModels)
	}
}

// TestErrorShape pins the whole refusal text and Name's fallback for a
// negative value.
func TestErrorShape(t *testing.T) {
	table := []string{"a", "b", "c"}
	if _, err := enum.Parse[int](table, "letter", "x"); err == nil || err.Error() != `unknown letter "x" (want a, b, c)` {
		t.Errorf("err = %v", err)
	}
	if got := enum.Name(table, "Letter", -1); got != "Letter(-1)" {
		t.Errorf("Name(-1) = %q", got)
	}
}
