// Package enum names the values of a small int-backed enumeration from one
// table of names, value i spelled table[i], and parses the names back. Every
// such String/Parse pair in the module goes through it, so they all print an
// unnamed value the same way and refuse an unknown name with one error shape.
package enum

import (
	"fmt"
	"strings"
)

// Name returns v's name in table, or typ(v) — "Policy(7)" — when v has none.
func Name[T ~int](table []string, typ string, v T) string {
	if v >= 0 && int(v) < len(table) {
		return table[v]
	}
	return fmt.Sprintf("%s(%d)", typ, int(v))
}

// Parse returns the value table names s. Any other s, the empty string
// included, fails with `unknown <what> "s" (want a, b, c)`.
func Parse[T ~int](table []string, what, s string) (T, error) {
	for i, n := range table {
		if s == n {
			return T(i), nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q (want %s)", what, s, strings.Join(table, ", "))
}
