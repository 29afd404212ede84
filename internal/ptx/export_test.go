package ptx

import (
	"fmt"
	"sort"
	"strings"
)

// NumRules is the number of rows in the instruction-selection table.
func NumRules() int { return len(rules) }

// RuleHits counts, per table row, the statements of src that select it.
// The source must compile: a row is exercised only by code that lowers.
func RuleHits(src string, hits []int) {
	pm, err := parse(src)
	if err != nil {
		panic(err)
	}
	for _, pf := range pm.funcs {
		for i := range pf.body {
			for j := range rules {
				if pm.forms[pf.body[i].form].rule == &rules[j] {
					hits[j]++
				}
			}
		}
	}
}

// typeList names the types of a set, in declaration order.
func typeList(set ptype) []string {
	var out []string
	for name, t := range typeNames {
		if set&t != 0 {
			out = append(out, name)
		}
	}
	sort.Slice(out, func(i, j int) bool { return typeNames[out[i]] < typeNames[out[j]] })
	return out
}

// RuleName describes row i for a test failure.
func RuleName(i int) string {
	r := &rules[i]
	return fmt.Sprintf("row %d: %s %q %v<-%v only=%d (%s)", i, r.op, r.mods+strings.Join(r.subs, "|"),
		typeList(r.types), typeList(r.from), r.only, r.shape())
}
